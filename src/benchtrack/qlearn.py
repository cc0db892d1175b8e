"""Offline continuous-time q-learning for the reflected tracking problem.

The value function and q-function are parameterized in the exact form that
solves the entropy-regularised problem at temperature rho/d:

    J(y; xi)    = ln(1 + y) + xi
    q(y, a; psi) = psi1'u - |psi2'u|^2 / 2 + psi3 - rho ln(1 + y) ,   u = a / (1 + y) ,

with psi3 always re-derived from (psi1, psi2) so that the Gibbs policy
built from q integrates to one and the consistency condition
E_pi[q - gamma ln pi] = 0 holds identically.  At the closed-form constants
(PolicyParams.from_constants) this q is the exact q-function.  Its relative
part psi1'u - |psi2'u|^2 / 2 + psi3 is written once, in _relative_q, which
q_value and the statistics share.

Learning enforces the martingale property of

    M_t = e^{-rho t} J(Y_t) - int_0^t e^{-rho s} q(Y_s, a_s) ds
          - int_0^t e^{-rho s} dL_s

through its orthogonality against the parameter gradients of J and q.
q + rho J has no y in it, so an episode's discretized residuals are

    G_k = X_k - (psi1'u_k - |psi2'u_k|^2 / 2 + psi3 + rho xi) dt ,
    X_k = ln(1 + y_{k+1}) - ln(1 + y_k) - (L_{k+1} - L_k) ,

read off the path alone.  Its statistics are the sums of w_k = e^{-rho t_k} G_k
times the tests 1, u_k and -u_k u_k' psi2 (_test_sums), computed for a block
of episodes at once by _episode_statistics: a 1-row block for each training
update, blocks of sde.BLOCK_ROWS paths for the diagnostics.  psi1 and psi2
move along alpha times their statistics with episode-indexed decaying rates.
xi enters every G_k only through -rho xi dt, so its statistic is linear in xi,

    stat_xi(xi) = stat_xi(0) - c xi ,    c = rho dt sum_k e^{-rho t_k} ,

and the root xi + stat_xi / c of its condition is exact for the episode.
Training moves xi by stat_xi / (c i) at global episode i, which makes xi the
running mean of the per-episode roots: the least-squares temporal-difference
solve for a parameter that enters linearly, with the 1/i stochastic-Newton
step.  c depends only on rho, dt and T, so the trainer stays model-free.  No
test function depends on xi either, so every statistic is affine in xi, with
the slope given by the same sums at the weights -rho dt e^{-rho t_k}; the
diagnostics' xi-shifted control is derived from the paths' one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from types import SimpleNamespace

import numpy as np

from . import sde
from .model import DomainError, ExploratoryConstants, ModelParams, gibbs_psi3, psi3_consistency

__all__ = [
    "SingularPsi2",
    "NonFiniteUpdate",
    "TooManyRejectedEpisodes",
    "GaussianSpec",
    "PolicyParams",
    "Rates",
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
# the psi learning rates coef i^-power at episode i: (coef_psi1, coef_psi2, power) up to
# SWITCH_EPISODE, then the second regime
SWITCH_EPISODE = 10_000
FIRST_RATES = (0.1, 0.01, 0.61)
SECOND_RATES = (0.05, 0.005, 0.81)
UPDATE_CLIP = 1.0       # the largest norm of one (psi1, psi2) step
REJECT_FRACTION = 0.1   # train stops once more than this share of its episodes is rejected


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

    psi3, psi2_sq, the precision and mean_coef are computed once per
    instance, so neither psi1, psi2 nor any array returned from them (the
    policy_coefficients included) may be changed in place.
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
    def _eigs(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.psi2_sq)

    @cached_property
    def precision(self) -> np.ndarray:
        """(psi2 psi2')^-1 with conditioning and absolute-scale guards."""
        eigs = self._eigs
        if eigs[0] < PSI2_FLOOR**2 or eigs[-1] / eigs[0] > 1e12:
            raise SingularPsi2(f"psi2 psi2' is singular or ill-conditioned: {self.psi2_sq!r}")
        return np.linalg.inv(self.psi2_sq)

    @cached_property
    def mean_coef(self) -> np.ndarray:
        """precision psi1, the Gibbs policy's mean per unit of 1 + y."""
        return self.precision @ self.psi1

    @cached_property
    def psi3(self) -> float:
        """From the factors that the policy uses: psi1'(psi2 psi2')^-1 psi1 = psi1'mean_coef and the eigenvalues."""
        try:
            quad = float(self.psi1 @ self.mean_coef)
        except SingularPsi2:   # no Gibbs policy, but the normalization formula still has a value
            return psi3_consistency(self.psi1, self.psi2, self.gamma)
        return gibbs_psi3(quad, float(np.log(self._eigs).sum()), self.d, self.gamma)

    def policy_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """(mean_coef, cov_chol): a ~ N(mean_coef (1+y), (1+y)^2 chol chol')."""
        return self.mean_coef, np.linalg.cholesky(self.gamma * self.precision)


def j_value(pp: PolicyParams, y):
    """Parameterized value: ln(1+y) + xi.  Neumann slope at 0 is 1 by form."""
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise DomainError(f"state must be >= 0, got {y!r}")
    out = np.log1p(y) + pp.xi
    return out if out.ndim else float(out)


def q_value(pp: PolicyParams, rho: float, y, a):
    """Parameterized q including the derived psi3: the relative q at u = a / (1+y), minus rho ln(1+y).

    At one state, y is a float and a has shape (d,); along a path, y has
    shape (K,) and a shape (K, d), and the result has shape (K,).
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise DomainError(f"state must be >= 0, got {y!r}")
    u = np.atleast_1d(np.asarray(a, dtype=float)) / (1.0 + y)[..., None]
    out = _relative_q(pp, np.moveaxis(u, -1, 0)) - rho * np.log1p(y)
    return out if out.ndim else float(out)


def _relative_q(pp: PolicyParams, u, out=None, t=None, tmp=None):
    """psi1'u - |psi2'u|^2 / 2 + psi3 at u = a / (1+y), from its components u[i] and optional scratch arrays.

    It sums u_i (psi1_i - P_ii u_i / 2 - sum_{j<i} P_ij u_j) with P = psi2 psi2'
    term by term, so an element rounds alike in any block shape.
    """
    if out is None:   # at one state u[i] is a scalar, so these are 0-d
        out, t = np.empty(np.shape(u[0])), np.empty(np.shape(u[0]))
    P = pp.psi2_sq
    for i in range(pp.d):
        t = np.multiply(u[i], -0.5 * P[i, i], out=t)
        t += pp.psi1[i]
        for j in range(i):
            t -= np.multiply(u[j], P[i, j], out=tmp)
        t *= u[i]
        out = np.add(out if i else pp.psi3, t, out=out)   # psi3 + the i = 0 term, then the others
    return out


def policy_from_q(pp: PolicyParams, y: float) -> GaussianSpec:
    """Gibbs renormalization exp(q/gamma) of the quadratic q is Gaussian."""
    if y < 0.0:
        raise DomainError(f"state must be >= 0, got {y!r}")
    s = 1.0 + y
    return GaussianSpec(mean=s * pp.mean_coef, cov=pp.gamma * s * s * pp.precision)


def _statistics_workspace(rows: int, K: int, d: int) -> SimpleNamespace:
    """Scratch arrays for _episode_statistics on up to `rows` paths of K steps, u for the d components of u_k.

    A stream of blocks reuses one set: fresh (rows, K) temporaries would be
    handed back to the system after each block and faulted in again.
    """
    g, p, t, w = np.empty((4, rows, K))
    return SimpleNamespace(log=np.empty((rows, K + 1)), u=np.empty((d, rows, K)), g=g, p=p, t=t, w=w)


# the one-row workspace (K, d) -> ws that update_statistics reuses for every episode
_episode_workspace = lru_cache(maxsize=4)(partial(_statistics_workspace, 1))


def _test_sums(pp: PolicyParams, w: np.ndarray, u: np.ndarray, wu: np.ndarray, wuu: np.ndarray) -> np.ndarray:
    """Per path, sum_k w_k times the tests 1, u_k and -u_k u_k' psi2, as rows ordered like _component_names.

    w is (n, K), or (K,) when every path shares it, u holds d (n, K)
    components, and wu and wuu are (n, K) scratch.  Each sum runs along one
    contiguous row, so a 1-row block gives a row of a larger block bit for bit.
    """
    n, d = len(u[0]), pp.d
    rows = np.empty((n, 1 + d + d * d))
    rows[:, 0] = stat_xi = w.sum(axis=-1)
    stat_psi1 = rows[:, 1 : 1 + d]
    outer_sum = np.empty((n, d, d))
    for i in range(d):
        np.multiply(w, u[i], out=wu).sum(axis=1, out=stat_psi1[:, i])
        for j in range(i + 1):
            outer_sum[:, j, i] = outer_sum[:, i, j] = np.multiply(wu, u[j], out=wuu).sum(axis=1)
    # psi3's gradient, -b for psi1 and (b b' + gamma prec) psi2 for psi2,
    # is the same at every step, so it enters weighted by sum_k w_k = stat_xi
    stat_xi = rows[:, :1]
    b = pp.mean_coef
    stat_psi1 -= b * stat_xi
    stat_psi2 = -outer_sum @ pp.psi2 + (b[:, None] * b + pp.gamma * pp.precision) @ pp.psi2 * stat_xi[..., None]
    rows[:, 1 + d :] = stat_psi2.reshape(n, d * d)
    return rows


def _episode_statistics(
    pp: PolicyParams, rho: float, times: np.ndarray, states: np.ndarray, actions: np.ndarray,
    local_time: np.ndarray, ws: SimpleNamespace, xi_derivative: bool = False,
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
    n, d = len(states), pp.d
    log, u, g, p, t, w = ws.log[:n], ws.u[:, :n], ws.g[:n], ws.p[:n], ws.t[:n], ws.w[:n]
    dt = float(times[1] - times[0])
    disc = np.exp(-rho * times[:-1])
    ys = states[:, :-1]
    if ys.min() < 0.0:
        raise DomainError(f"state must be >= 0, got {ys!r}")
    np.add(ys, 1.0, out=t)
    for i in range(d):
        np.divide(actions[..., i], t, out=u[i])
    # G_k = X_k - (relative q_k + rho xi) dt with X_k = ln(1+y_{k+1}) - ln(1+y_k) - (L_{k+1} - L_k), discounted
    np.log1p(states, out=log)
    np.subtract(log[:, 1:], log[:, :-1], out=g)
    g -= np.subtract(local_time[:, 1:], local_time[:, :-1], out=p)
    _relative_q(pp, u, p, t, w)
    p += rho * pp.xi
    p *= dt
    g -= p
    g *= disc
    rows = _test_sums(pp, g, u, p, t)
    d_rows = _test_sums(pp, -rho * dt * disc, u, p, t) if xi_derivative else None
    return rows, d_rows, rho * dt * float(disc.sum())


def update_statistics(
    pp: PolicyParams, path: sde.EpisodePath, rho: float
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """One episode's raw update sums (sum_k e^{-rho t_k} grad q * G_k) and its xi slope c.

    Returns (stat_xi, stat_psi1, stat_psi2, c).  stat_xi(xi) = stat_xi(0) - c xi
    with c = rho dt sum_k e^{-rho t_k}, which depends on neither the path nor
    the parameters.
    """
    rows, _, c = _episode_statistics(
        pp, rho, path.times, path.states[None], path.actions[None], path.local_time[None],
        _episode_workspace(*path.actions.shape),
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
    pp: PolicyParams, path: sde.EpisodePath, rates: Rates, rho: float, xi_weight: float
) -> tuple[PolicyParams, UpdateInfo]:
    """Apply one stochastic-approximation step from an on-policy episode.

    xi moves the fraction xi_weight of the way to the exact root
    xi + stat_xi / c of its own condition (c from update_statistics).  psi1 and
    psi2 move by their rates times their statistics, and the norm of that
    step is capped at UPDATE_CLIP; the xi step is neither clipped nor counted
    in the norm.  Non-finite updates raise NonFiniteUpdate so the caller can
    skip and count them.  psi3 needs no explicit refresh because it is always
    derived.
    """
    stat_xi, stat_psi1, stat_psi2, c = update_statistics(pp, path, rho)
    d_xi = xi_weight * stat_xi / c
    d_psi1 = rates.alpha_psi1 * stat_psi1
    d_psi2 = rates.alpha_psi2 * stat_psi2
    vec = np.concatenate([d_psi1.ravel(), d_psi2.ravel()])
    if not (math.isfinite(d_xi) and np.isfinite(vec).all()):
        raise NonFiniteUpdate("episode produced a non-finite update")
    norm = math.sqrt(vec.dot(vec))   # np.linalg.norm's formula for a real vector
    clipped = False
    if norm > UPDATE_CLIP:
        factor = UPDATE_CLIP / norm
        d_psi1 = d_psi1 * factor
        d_psi2 = d_psi2 * factor
        clipped = True
    new = PolicyParams(xi=pp.xi + d_xi, psi1=pp.psi1 + d_psi1, psi2=_project_psi2(pp.psi2 + d_psi2), gamma=pp.gamma)
    return new, UpdateInfo(norm=norm, clipped=clipped)


def schedule(i: int) -> Rates:
    """psi learning rates for episode i (1-based): piecewise power decay."""
    if i < 1:
        raise ValueError(f"episode index must be >= 1, got {i}")
    coef_psi1, coef_psi2, power = FIRST_RATES if i <= SWITCH_EPISODE else SECOND_RATES
    decay = float(i) ** (-power)
    return Rates(alpha_psi1=coef_psi1 * decay, alpha_psi2=coef_psi2 * decay)


@dataclass
class LearnConfig:
    """Offline training run configuration.

    schedule() sets the psi rates; xi follows the running mean of its
    per-episode roots (see the module docstring).
    """

    y0: float
    T: float
    dt: float
    n_episodes: int
    gamma: float
    rho: float
    seed: int
    xi0: float = 0.0
    psi1_0: np.ndarray | None = None
    psi2_0: np.ndarray | None = None
    start_episode: int = 1

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
    i - 1 earlier roots.  psi1 and psi2 follow schedule()'s rates.  A start
    whose psi2 psi2' the policy cannot invert raises SingularPsi2 before the
    first episode.
    """
    if not math.isclose(env.dt, config.dt, rel_tol=1e-12):
        raise ValueError(f"environment step {env.dt} != config step {config.dt}")
    d = env.params.d
    pp = config.initial_params(d)
    pp.precision   # raises SingularPsi2 for a start that would reject every episode
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
    max_rejected = REJECT_FRACTION * n
    for idx, i in enumerate(episodes):
        rng = stream(config.seed, int(i))
        rates = schedule(int(i))
        try:
            mean_coef, cov_chol = pp.policy_coefficients()
            states, actions, local = sde.rollout_linear_gaussian(
                env, mean_coef, cov_chol, config.y0, config.n_steps, rng, workspace=workspace
            )
            path = sde.EpisodePath(times=times, states=states, actions=actions, local_time=local)
            pp, info = update(pp, path, rates, config.rho, xi_weight=1.0 / i)
            hist_norm[idx] = info.norm
            hist_clip[idx] = info.clipped
        except (NonFiniteUpdate, sde.NonFinite, SingularPsi2):
            rejected.append(int(i))
            if len(rejected) > max_rejected:
                raise TooManyRejectedEpisodes(
                    f"{len(rejected)} of {idx + 1} episodes rejected "
                    f"(limit {REJECT_FRACTION:.0%} of {n})"
                )
        hist_xi[idx] = pp.xi
        hist_psi1[idx] = pp.psi1
        hist_psi2[idx] = pp.psi2
        hist_psi3[idx] = pp.psi3
    return TrainHistory(episodes=episodes, xi=hist_xi, psi1=hist_psi1, psi2=hist_psi2, psi3=hist_psi3,
                        update_norms=hist_norm, clipped=hist_clip, rejected_episodes=rejected,
                        clamp_events=env.clamp_events - clamps_before, final=pp)


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


def orthogonality_stats(pp: PolicyParams, paths, rho: float) -> OrthogonalityStats:
    """Estimate E[sum_k test * (M_{k+1} - M_k)] per test function.

    paths is a BatchPaths or an iterable of them, such as the blocks of
    sde.linear_gaussian_blocks; each is reduced BLOCK_ROWS paths at a time
    and only the per-path rows are kept.  At the correct (xi, psi1, psi2)
    every component is a centred martingale statistic, so each mean should
    vanish within Monte Carlo error.  A standard error needs two paths.
    """
    rows, d_rows, ws = [], [], None
    for batch in [paths] if isinstance(paths, sde.BatchPaths) else paths:
        K, d = batch.actions.shape[1:]
        if ws is None or ws.u.shape != (d, sde.BLOCK_ROWS, K):
            ws = _statistics_workspace(sde.BLOCK_ROWS, K, d)
        for start in range(0, len(batch.states), sde.BLOCK_ROWS):
            block = slice(start, start + sde.BLOCK_ROWS)
            r, dr, _ = _episode_statistics(
                pp, rho, batch.times, batch.states[block], batch.actions[block], batch.local_time[block], ws,
                xi_derivative=True,
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
            stats = orthogonality_stats(pp, blocks, params.rho)
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
