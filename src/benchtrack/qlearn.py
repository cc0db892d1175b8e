"""Offline continuous-time q-learning for the reflected tracking problem.

The value function and q-function are parameterized in the exact form that
solves the entropy-regularised problem at temperature rho/d:

    J(y; xi)    = ln(1 + y) + xi
    q(y, a; psi) = psi1' a / (1+y) - a' psi2 psi2' a / (2 (1+y)^2)
                   - rho ln(1 + y) + psi3 ,

with psi3 always re-derived from (psi1, psi2) so that the Gibbs policy
built from q integrates to one and the consistency condition
E_pi[q - gamma ln pi] = 0 holds identically.  At the closed-form constants
(PolicyParams.from_constants) this q is the exact q-function, so q_value and
policy_from_q serve the closed form, the learner and the diagnostics alike.

Learning enforces the martingale property of

    M_t = e^{-rho t} J(Y_t) - int_0^t e^{-rho s} q(Y_s, a_s) ds
          - int_0^t e^{-rho s} dL_s

through its orthogonality against the conventional test functions (the
parameter gradients of J and q).  Each episode contributes the truncated,
discretized residuals

    G_k = J(y_{k+1}) - J(y_k) - q(y_k, a_k) dt - (L_{k+1} - L_k)
          - rho J(y_k) dt ,

Each episode's orthogonality statistics are the sums
sum_k e^{-rho t_k} grad * G_k (_test_sums, the one place where the
psi-gradient of q is written), computed for a block of episodes at once by
_episode_statistics: a 1-row block for each training update, blocks of
sde.BLOCK_ROWS paths for the diagnostics.  psi1 and psi2 move along alpha
times their statistics with episode-indexed decaying rates.  xi enters every G_k only
through -rho xi dt, so its statistic is linear in xi,

    stat_xi(xi) = stat_xi(0) - c xi ,    c = rho dt sum_k e^{-rho t_k} ,

and the root xi + stat_xi / c of its condition is exact for the episode.
Training moves xi by stat_xi / (c i) at global episode i, which makes xi the
running mean of the per-episode roots: the least-squares temporal-difference
solve for a parameter that enters linearly, with the 1/i stochastic-Newton
step.  c depends only on rho, dt and T, so the trainer stays model-free.
The same linearity holds for every statistic, since no test function
depends on xi: stat(xi + s) = stat(xi) + s dstat/dxi, where dstat/dxi are
the sums of the constant residual -rho dt.  The diagnostics' xi-shifted
control is therefore derived from the paths' one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from . import sde
from .model import DomainError, ExploratoryConstants, ModelParams, psi3_consistency

__all__ = [
    "SingularPsi2",
    "NonFiniteUpdate",
    "TooManyRejectedEpisodes",
    "GaussianSpec",
    "PolicyParams",
    "Rates",
    "ScheduleRegime",
    "ScheduleSpec",
    "DEFAULT_SCHEDULE",
    "LearnConfig",
    "TrainHistory",
    "OrthogonalityStats",
    "j_value",
    "q_value",
    "policy_from_q",
    "update_statistics",
    "update",
    "schedule",
    "train",
    "orthogonality_stats",
    "convergence_study",
]

PSI2_FLOOR = 1e-6


class SingularPsi2(ValueError):
    """psi2 psi2' is singular or too ill-conditioned to invert."""


class NonFiniteUpdate(RuntimeError):
    """An episode produced a NaN/Inf parameter update."""


class TooManyRejectedEpisodes(RuntimeError):
    """More than the tolerated fraction of episodes was rejected."""


@dataclass(frozen=True)
class GaussianSpec:
    """Mean vector and covariance matrix of a Gaussian action distribution."""

    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class PolicyParams:
    """Learnable tuple (xi, psi1, psi2); psi3 is derived, never free.

    psi3, psi2_sq and the precision are computed once per instance, so
    neither psi1, psi2 nor the returned psi2_sq or precision may be changed
    in place.
    """

    xi: float
    psi1: np.ndarray
    psi2: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "psi1", np.atleast_1d(np.asarray(self.psi1, dtype=float)))
        object.__setattr__(self, "psi2", np.atleast_2d(np.asarray(self.psi2, dtype=float)))
        d = self.psi1.shape[0]
        if self.psi2.shape != (d, d):
            raise ValueError(f"psi2 must be ({d},{d}), got {self.psi2.shape}")
        if not (self.gamma > 0.0):
            raise ValueError(f"gamma must be > 0, got {self.gamma}")

    @classmethod
    def from_constants(cls, consts: ExploratoryConstants) -> PolicyParams:
        """The closed-form solution (xi*, psi1*, psi2*) at its temperature."""
        return cls(xi=consts.xi_star, psi1=consts.psi1_star, psi2=consts.psi2_star, gamma=consts.gamma)

    @property
    def d(self) -> int:
        return self.psi1.shape[0]

    @cached_property
    def psi2_sq(self) -> np.ndarray:
        return self.psi2 @ self.psi2.T

    @cached_property
    def psi3(self) -> float:
        return psi3_consistency(self.psi1, self.psi2, self.gamma)

    @cached_property
    def precision(self) -> np.ndarray:
        """(psi2 psi2')^-1 with conditioning and absolute-scale guards."""
        ppT = self.psi2_sq
        eigs = np.linalg.eigvalsh(ppT)
        if eigs[0] < PSI2_FLOOR**2 or eigs[-1] / eigs[0] > 1e12:
            raise SingularPsi2(f"psi2 psi2' is singular or ill-conditioned: {ppT!r}")
        return np.linalg.inv(ppT)

    def policy_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """(mean_coef, cov_chol): a ~ N(mean_coef (1+y), (1+y)^2 chol chol')."""
        prec = self.precision
        mean_coef = prec @ self.psi1
        cov_chol = np.linalg.cholesky(self.gamma * prec)
        return mean_coef, cov_chol


def j_value(pp: PolicyParams, y):
    """Parameterized value: ln(1+y) + xi.  Neumann slope at 0 is 1 by form."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise DomainError(f"state must be >= 0, got {y!r}")
    out = np.log1p(y) + pp.xi
    return out if out.ndim else float(out)


def q_value(pp: PolicyParams, rho: float, y, a):
    """Parameterized q including the derived psi3.

    At one state, y is a float and a has shape (d,); along a path, y has
    shape (K,) and a shape (K, d), and the result has shape (K,).
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise DomainError(f"state must be >= 0, got {y!r}")
    out = _q(pp, rho, np.atleast_1d(np.asarray(a, dtype=float)), 1.0 + y, np.log1p(y))
    return out if out.ndim else float(out)


def _q(pp: PolicyParams, rho: float, a, s, log_y, out=None, quad=None, den=None, a_psi2=None):
    """q from the action a, s = 1 + y and ln(1 + y); the last four arguments are optional scratch arrays."""
    lin = np.divide(np.matmul(a, pp.psi1, out=out), s, out=out)
    sq = np.einsum("...e,...e->...", np.matmul(a, pp.psi2_sq, out=a_psi2), a, out=quad)
    sq = np.divide(sq, np.multiply(np.multiply(2.0, s, out=den), s, out=den), out=quad)
    q = np.subtract(lin, sq, out=out)
    q = np.subtract(q, np.multiply(rho, log_y, out=den), out=out)
    return np.add(q, pp.psi3, out=out)


def policy_from_q(pp: PolicyParams, y: float) -> GaussianSpec:
    """Gibbs renormalization exp(q/gamma) of the quadratic q is Gaussian."""
    if y < 0.0:
        raise DomainError(f"state must be >= 0, got {y!r}")
    prec = pp.precision
    s = 1.0 + y
    return GaussianSpec(mean=s * (prec @ pp.psi1), cov=pp.gamma * s * s * prec)


def _statistics_workspace(rows: int, K: int, d: int) -> SimpleNamespace:
    """Scratch arrays for _episode_statistics on up to `rows` paths of K steps.

    A stream of blocks reuses one set: fresh (rows, K) temporaries would be
    handed back to the system after each block and faulted in again.
    """
    s, q, quad, den, j, g = np.empty((6, rows, K))
    return SimpleNamespace(log=np.empty((rows, K + 1)), s=s, q=q, quad=quad, den=den, j=j, g=g,
                           x=np.empty((rows, K, d)))


def _test_sums(
    pp: PolicyParams, w: np.ndarray, x: np.ndarray, s2: np.ndarray, actions: np.ndarray, chain_rule: bool,
    tmp: np.ndarray,
) -> np.ndarray:
    """Per path, sum_k w_k times the test functions at step k, as rows ordered like _component_names.

    The test functions are dJ/dxi = 1 and the psi-gradient of q.  w and
    s2 = (1 + y_k)^2 are (n, K), actions and x = actions / (1 + y_k) are
    (n, K, d), and tmp is (n, K) scratch.  Each path's sums take the
    operations of a lone path, so a 1-row block reproduces the per-episode sums.
    """
    n, d = len(w), pp.d
    rows = np.empty((n, 1 + d + d * d))
    stat_xi = w.sum(axis=1, out=rows[:, 0])
    stat_psi1 = np.matmul(x.transpose(0, 2, 1), w[..., None])[..., 0]
    outer_sum = np.einsum("nk,nkd,nke->nde", np.divide(w, s2, out=tmp), actions, actions)
    stat_psi2 = -outer_sum @ pp.psi2
    if chain_rule:
        # psi3's gradient, -b for psi1 and (b b' + gamma prec) psi2 for psi2,
        # is the same at every step, so it enters weighted by sum_k w_k = stat_xi
        prec = pp.precision
        b = prec @ pp.psi1
        stat_psi1 = stat_psi1 - b * stat_xi[:, None]
        stat_psi2 = stat_psi2 + (b[:, None] * b + pp.gamma * prec) @ pp.psi2 * stat_xi[:, None, None]
    rows[:, 1 : 1 + d] = stat_psi1
    rows[:, 1 + d :] = stat_psi2.reshape(n, d * d)
    return rows


def _episode_statistics(
    pp: PolicyParams,
    rho: float,
    times: np.ndarray,
    states: np.ndarray,
    actions: np.ndarray,
    local_time: np.ndarray,
    chain_rule: bool,
    ws: SimpleNamespace,
    xi_derivative: bool = False,
) -> tuple[np.ndarray, np.ndarray | None, float]:
    """Discount-weighted orthogonality sums of a block of episodes, one row per path.

    states and local_time are (n, K+1), actions (n, K, d), and ws a
    _statistics_workspace of at least n rows.  Returns (rows, d_rows, c):
    rows sum_k e^{-rho t_k} test_k G_k, c = rho dt sum_k e^{-rho t_k}, and
    with xi_derivative the derivative of each row in xi (else None).  xi
    enters each G_k only through -rho xi dt and no test function depends on
    xi, so d_rows are the sums of the constant residual -rho dt and the rows
    at xi + s are rows + s d_rows.
    """
    n = len(states)
    log, s, q, quad, den, j, g, x = (a[:n] for a in (ws.log, ws.s, ws.q, ws.quad, ws.den, ws.j, ws.g, ws.x))
    dt = float(times[1] - times[0])
    disc = np.exp(-rho * times[:-1])
    ys = states[:, :-1]
    if (ys < 0.0).any():
        raise DomainError(f"state must be >= 0, got {ys!r}")
    np.log1p(states, out=log)
    np.add(1.0, ys, out=s)
    _q(pp, rho, actions, s, log[:, :-1], q, quad, den, x)
    # G_k = J(y_{k+1}) - J(y_k) - q_k dt - (L_{k+1} - L_k) - rho J(y_k) dt, then discounted
    np.add(log[:, :-1], pp.xi, out=j)
    np.add(log[:, 1:], pp.xi, out=g)
    g -= j
    g -= np.multiply(q, dt, out=q)
    g -= np.subtract(local_time[:, 1:], local_time[:, :-1], out=den)
    g -= np.multiply(np.multiply(rho, j, out=j), dt, out=j)
    g *= disc
    np.divide(actions, s[..., None], out=x)
    s2 = np.multiply(s, s, out=s)
    rows = _test_sums(pp, g, x, s2, actions, chain_rule, quad)
    d_rows = None
    if xi_derivative:
        d_rows = _test_sums(pp, np.broadcast_to(-rho * dt * disc, g.shape), x, s2, actions, chain_rule, quad)
    return rows, d_rows, rho * dt * float(disc.sum())


def update_statistics(
    pp: PolicyParams, path: sde.EpisodePath, rho: float, chain_rule: bool = True
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """One episode's raw update sums (sum_k e^{-rho t_k} grad q * G_k) and its xi slope c.

    Returns (stat_xi, stat_psi1, stat_psi2, c).  stat_xi(xi) = stat_xi(0) - c xi
    with c = rho dt sum_k e^{-rho t_k}, which depends on neither the path nor
    the parameters.
    """
    rows, _, c = _episode_statistics(
        pp, rho, path.times, path.states[None], path.actions[None], path.local_time[None], chain_rule,
        _statistics_workspace(1, *path.actions.shape),
    )
    d = pp.d
    return float(rows[0, 0]), rows[0, 1 : 1 + d], rows[0, 1 + d :].reshape(d, d), c


@dataclass(frozen=True)
class Rates:
    alpha_psi1: float
    alpha_psi2: float


@dataclass(frozen=True)
class UpdateInfo:
    norm: float
    clipped: bool


def _project_psi2(psi2: np.ndarray) -> np.ndarray:
    """Keep psi2 psi2' positive definite (identifiability up to sign)."""
    d = psi2.shape[0]
    if d == 1:
        return np.array([[max(float(psi2[0, 0]), PSI2_FLOOR)]])
    u, s, vt = np.linalg.svd(psi2)
    return u @ np.diag(np.maximum(s, PSI2_FLOOR)) @ vt


def update(
    pp: PolicyParams,
    path: sde.EpisodePath,
    rates: Rates,
    rho: float,
    xi_weight: float,
    chain_rule: bool = True,
    update_clip: float = 1.0,
) -> tuple[PolicyParams, UpdateInfo]:
    """Apply one stochastic-approximation step from an on-policy episode.

    xi moves the fraction xi_weight of the way to the exact root
    xi + stat_xi / c of its own condition (c from update_statistics).  psi1 and
    psi2 move by their rates times their statistics, and the norm of that
    step is capped at update_clip; the xi step is neither clipped nor counted
    in the norm.  Non-finite updates raise NonFiniteUpdate so the caller can
    skip and count them.  psi3 needs no explicit refresh because it is always
    derived.
    """
    stat_xi, stat_psi1, stat_psi2, c = update_statistics(pp, path, rho, chain_rule)
    d_xi = xi_weight * stat_xi / c
    d_psi1 = rates.alpha_psi1 * stat_psi1
    d_psi2 = rates.alpha_psi2 * stat_psi2
    vec = np.concatenate([d_psi1.ravel(), d_psi2.ravel()])
    if not (math.isfinite(d_xi) and np.isfinite(vec).all()):
        raise NonFiniteUpdate("episode produced a non-finite update")
    norm = math.sqrt(vec.dot(vec))   # np.linalg.norm's formula for a real vector
    clipped = False
    if update_clip is not None and norm > update_clip:
        factor = update_clip / norm
        d_psi1 = d_psi1 * factor
        d_psi2 = d_psi2 * factor
        clipped = True
    new_psi2 = _project_psi2(pp.psi2 + d_psi2)
    new = PolicyParams(
        xi=pp.xi + d_xi,
        psi1=pp.psi1 + d_psi1,
        psi2=new_psi2,
        gamma=pp.gamma,
    )
    return new, UpdateInfo(norm=norm, clipped=clipped)


@dataclass(frozen=True)
class ScheduleRegime:
    coef_psi1: float
    coef_psi2: float
    power: float


@dataclass(frozen=True)
class ScheduleSpec:
    """Piecewise power decay of the psi learning rates over episodes."""

    switch_episode: int = 10_000
    first: ScheduleRegime = ScheduleRegime(0.1, 0.01, 0.61)
    second: ScheduleRegime = ScheduleRegime(0.05, 0.005, 0.81)


DEFAULT_SCHEDULE = ScheduleSpec()


def schedule(i: int, spec: ScheduleSpec = DEFAULT_SCHEDULE) -> Rates:
    """psi learning rates for episode i (1-based)."""
    if i < 1:
        raise ValueError(f"episode index must be >= 1, got {i}")
    regime = spec.first if i <= spec.switch_episode else spec.second
    decay = float(i) ** (-regime.power)
    return Rates(
        alpha_psi1=regime.coef_psi1 * decay,
        alpha_psi2=regime.coef_psi2 * decay,
    )


@dataclass
class LearnConfig:
    """Offline training run configuration.

    `schedule` sets the psi rates; xi follows the running mean of its
    per-episode roots (see the module docstring).
    """

    y0: float
    T: float
    dt: float
    n_episodes: int
    gamma: float
    rho: float
    seed: int
    schedule: ScheduleSpec = DEFAULT_SCHEDULE
    xi0: float = 0.0
    psi1_0: np.ndarray | None = None
    psi2_0: np.ndarray | None = None
    chain_rule: bool = True
    update_clip: float = 1.0
    start_episode: int = 1
    reject_fraction: float = 0.1

    def __post_init__(self):
        if self.n_episodes < 1:
            raise ValueError("need at least one episode")
        if not (self.gamma > 0.0 and self.rho > 0.0):
            raise ValueError("gamma and rho must be > 0")
        self.n_steps = sde.grid_steps(self.T, self.dt)

    def initial_params(self, d: int) -> PolicyParams:
        psi1 = np.zeros(d) if self.psi1_0 is None else np.asarray(self.psi1_0, dtype=float)
        psi2 = np.eye(d) if self.psi2_0 is None else np.asarray(self.psi2_0, dtype=float)
        return PolicyParams(xi=self.xi0, psi1=psi1, psi2=psi2, gamma=self.gamma)


@dataclass
class TrainHistory:
    """Per-episode parameter snapshots plus run diagnostics."""

    episodes: np.ndarray   # episode indices (global, resume-aware)
    xi: np.ndarray
    psi1: np.ndarray       # (N, d)
    psi2: np.ndarray       # (N, d, d)
    psi3: np.ndarray
    update_norms: np.ndarray
    clipped: np.ndarray    # bool
    rejected_episodes: list[int]
    clamp_events: int      # action clamps during this run only
    final: PolicyParams

    def to_csv(self, path) -> None:
        n, d = self.psi1.shape
        header = (
            ["episode", "xi"]
            + [f"psi1_{i+1}" for i in range(d)]
            + [f"psi2_{i+1}{j+1}" for i in range(d) for j in range(d)]
            + ["psi3", "update_norm", "clipped"]
        )
        columns = [self.episodes, self.xi, *self.psi1.T, *self.psi2.reshape(n, d * d).T,
                   self.psi3, self.update_norms, self.clipped.astype(int)]
        sde._write_csv(path, header, zip(*(column.tolist() for column in columns)))

    def summary(self) -> dict:
        return {
            "episodes": int(self.episodes[-1]) if len(self.episodes) else 0,
            "xi": float(self.final.xi),
            "psi1": self.final.psi1.tolist(),
            "psi2": self.final.psi2.tolist(),
            "psi3": float(self.final.psi3),
            "gamma": float(self.final.gamma),
            "rejected_episodes": list(self.rejected_episodes),
            "clamp_events": int(self.clamp_events),
        }


def train(config: LearnConfig, env: sde.Environment) -> TrainHistory:
    """Run the offline learning loop against a simulated environment.

    Episodes come from sde.rollout_linear_gaussian on `env`; the update
    itself reads only the paths, never the market parameters.  Episode i uses the
    Philox stream keyed by (config.seed, i) (sde.episode_rng), so a run is
    reproducible and a resumed run continues the original stream sequence.

    xi moves by stat_xi / (c i) at global episode i, so it is the running
    mean of the per-episode roots of its condition: a run from episode 1
    gives xi0 no weight, and a resumed run treats xi0 as the mean of the
    i - 1 earlier roots.  psi1 and psi2 follow the schedule's rates.
    """
    if not math.isclose(env.dt, config.dt, rel_tol=1e-12):
        raise ValueError(f"environment step {env.dt} != config step {config.dt}")
    d = env.params.d
    pp = config.initial_params(d)
    n = config.n_episodes
    hist_xi = np.empty(n)
    hist_psi1 = np.empty((n, d))
    hist_psi2 = np.empty((n, d, d))
    hist_psi3 = np.empty(n)
    hist_norm = np.zeros(n)
    hist_clip = np.zeros(n, dtype=bool)
    episodes = np.arange(config.start_episode, config.start_episode + n)
    times = np.linspace(0.0, config.T, config.n_steps + 1)  # EpisodePath is frozen, so episodes share it
    # set up once per run: the rollouts share one workspace, and one Philox is re-keyed per episode
    workspace = sde.rollout_workspace(env, config.n_steps)
    stream = sde.episode_streams()
    clamps_before = env.clamp_events
    rejected: list[int] = []
    max_rejected = config.reject_fraction * n
    for idx, i in enumerate(episodes):
        rng = stream(config.seed, int(i))
        rates = schedule(int(i), config.schedule)
        try:
            mean_coef, cov_chol = pp.policy_coefficients()
            states, actions, local = sde.rollout_linear_gaussian(
                env, mean_coef, cov_chol, config.y0, config.n_steps, rng, workspace=workspace
            )
            path = sde.EpisodePath(times=times, states=states, actions=actions, local_time=local)
            pp, info = update(
                pp,
                path,
                rates,
                config.rho,
                xi_weight=1.0 / i,
                chain_rule=config.chain_rule,
                update_clip=config.update_clip,
            )
            hist_norm[idx] = info.norm
            hist_clip[idx] = info.clipped
        except (NonFiniteUpdate, sde.NonFinite, SingularPsi2):
            rejected.append(int(i))
            if len(rejected) > max_rejected:
                raise TooManyRejectedEpisodes(
                    f"{len(rejected)} of {idx + 1} episodes rejected "
                    f"(limit {config.reject_fraction:.0%} of {n})"
                )
        hist_xi[idx] = pp.xi
        hist_psi1[idx] = pp.psi1
        hist_psi2[idx] = pp.psi2
        hist_psi3[idx] = pp.psi3
    return TrainHistory(
        episodes=episodes,
        xi=hist_xi,
        psi1=hist_psi1,
        psi2=hist_psi2,
        psi3=hist_psi3,
        update_norms=hist_norm,
        clipped=hist_clip,
        rejected_episodes=rejected,
        clamp_events=env.clamp_events - clamps_before,
        final=pp,
    )


@dataclass(frozen=True)
class OrthogonalityStats:
    """Per-path martingale statistics and their xi-derivatives, with Monte Carlo means and errors."""

    components: list[str]
    rows: np.ndarray     # (n_paths, len(components))
    d_rows: np.ndarray   # d rows / d xi, the same shape

    @property
    def n_paths(self) -> int:
        return len(self.rows)

    @cached_property
    def means(self) -> np.ndarray:
        return self.rows.mean(axis=0)

    @cached_property
    def stderrs(self) -> np.ndarray:
        return self.rows.std(axis=0, ddof=1) / math.sqrt(self.n_paths)

    def shifted(self, s: float) -> OrthogonalityStats:
        """The statistics of the same paths at xi + s: every row is affine in xi."""
        return OrthogonalityStats(self.components, self.rows + s * self.d_rows, self.d_rows)

    def z_scores(self) -> np.ndarray:
        return self.means / self.stderrs

    def as_dict(self) -> dict:
        return {
            name: {"mean": float(m), "stderr": float(s), "z": float(m / s)}
            for name, m, s in zip(self.components, self.means, self.stderrs)
        }


def _component_names(d: int) -> list[str]:
    names = ["xi"]
    names += [f"psi1[{i}]" for i in range(d)]
    names += [f"psi2[{i},{j}]" for i in range(d) for j in range(d)]
    return names


def orthogonality_stats(
    pp: PolicyParams,
    paths,
    rho: float,
    chain_rule: bool = True,
) -> OrthogonalityStats:
    """Estimate E[sum_k test * (M_{k+1} - M_k)] per test function.

    paths is a BatchPaths or an iterable of them, such as the blocks of
    sde.linear_gaussian_blocks; each is reduced BLOCK_ROWS paths at a time
    and only the per-path rows are kept.  At the correct (xi, psi1, psi2)
    every component is a centred martingale statistic, so each mean should
    vanish within Monte Carlo error.  A standard error needs two paths.
    """
    rows, d_rows, ws = [], [], None
    for batch in [paths] if isinstance(paths, sde.BatchPaths) else paths:
        if ws is None or ws.x.shape[1:] != batch.actions.shape[1:]:
            ws = _statistics_workspace(sde.BLOCK_ROWS, *batch.actions.shape[1:])
        for start in range(0, len(batch.states), sde.BLOCK_ROWS):
            block = slice(start, start + sde.BLOCK_ROWS)
            r, dr, _ = _episode_statistics(
                pp, rho, batch.times, batch.states[block], batch.actions[block], batch.local_time[block],
                chain_rule, ws, xi_derivative=True,
            )
            rows.append(r)
            d_rows.append(dr)
    n_paths = sum(len(r) for r in rows)
    if n_paths < 2:
        raise ValueError(f"need at least two episode paths for a standard error, got {n_paths}")
    return OrthogonalityStats(_component_names(pp.d), np.concatenate(rows), np.concatenate(d_rows))


def convergence_study(
    pp: PolicyParams,
    params: ModelParams,
    dt_list: list[float],
    T_list: list[float],
    n_paths: int,
    y0: float,
    seed: int,
    chain_rule: bool = True,
) -> list[dict]:
    """Orthogonality statistics at a frozen pp across (dt, T) cells.

    Each row carries the Monte Carlo means/stderrs plus the analytic
    envelope e^{-rho T} (2 h0 + 2 |mu_hat| T + sigma_hat sqrt(2T/pi)) that
    dominates the infinite-horizon truncation tail.
    """
    if not dt_list or not T_list:
        raise ValueError("dt_list and T_list must be nonempty")
    mean_coef, cov_chol = pp.policy_coefficients()
    b, s = sde.aggregated_coefficients(params, pp.gamma)
    mu_hat = b - 0.5 * s * s
    h0 = math.log1p(y0)
    rows = []
    for dt in dt_list:
        for T in T_list:
            blocks = sde.linear_gaussian_blocks(params, mean_coef, cov_chol, n_paths, y0, T, dt, seed)
            stats = orthogonality_stats(pp, blocks, params.rho, chain_rule)
            tail = math.exp(-params.rho * T) * (
                2.0 * h0 + 2.0 * abs(mu_hat) * T + s * math.sqrt(2.0 * T / math.pi)
            )
            rows.append(
                {
                    "dt": dt,
                    "T": T,
                    "stats": stats.as_dict(),
                    "max_abs_mean": float(np.max(np.abs(stats.means))),
                    "tail_bound": tail,
                }
            )
    return rows
