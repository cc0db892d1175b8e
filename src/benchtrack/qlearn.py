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
sum_k e^{-rho t_k} grad * G_k (_episode_statistics, the one place where the
psi-gradient of q is written).  psi1 and psi2 move along alpha times their
statistics with episode-indexed decaying rates.  xi enters every G_k only
through -rho xi dt, so its statistic is linear in xi,

    stat_xi(xi) = stat_xi(0) - c xi ,    c = rho dt sum_k e^{-rho t_k} ,

and the root xi + stat_xi / c of its condition is exact for the episode.
Training moves xi by stat_xi / (c i) at global episode i, which makes xi the
running mean of the per-episode roots: the least-squares temporal-difference
solve for a parameter that enters linearly, with the 1/i stochastic-Newton
step.  c depends only on rho, dt and T, so the trainer stays model-free.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

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

    psi3 and the precision are computed once per instance, so neither psi1,
    psi2 nor the returned precision may be changed in place.
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

    @property
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
    a = np.atleast_1d(np.asarray(a, dtype=float))
    s = 1.0 + y
    lin = (a @ pp.psi1) / s
    quad = np.einsum("...e,...e->...", a @ pp.psi2_sq, a) / (2.0 * s * s)
    out = lin - quad - rho * np.log1p(y) + pp.psi3
    return out if out.ndim else float(out)


def policy_from_q(pp: PolicyParams, y: float) -> GaussianSpec:
    """Gibbs renormalization exp(q/gamma) of the quadratic q is Gaussian."""
    if y < 0.0:
        raise DomainError(f"state must be >= 0, got {y!r}")
    prec = pp.precision
    s = 1.0 + y
    return GaussianSpec(mean=s * (prec @ pp.psi1), cov=pp.gamma * s * s * prec)


def _episode_statistics(
    pp: PolicyParams,
    rho: float,
    times: np.ndarray,
    states: np.ndarray,
    actions: np.ndarray,
    local_time: np.ndarray,
    chain_rule: bool,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Discount-weighted orthogonality sums of one episode, vectorized in k."""
    dt = float(times[1] - times[0])
    ys = states[:-1]
    y_next = states[1:]
    dL = np.diff(local_time)
    disc = np.exp(-rho * times[:-1])
    j = np.log1p(ys) + pp.xi
    g = (
        np.log1p(y_next)
        + pp.xi
        - j
        - q_value(pp, rho, ys, actions) * dt
        - dL
        - rho * j * dt
    )
    w = disc * g
    stat_xi = float(np.sum(w))  # dJ/dxi = 1
    scale = 1.0 + ys
    stat_psi1 = (actions / scale[:, None]).T @ w
    weights2 = w / (scale * scale)
    outer_sum = np.einsum("k,kd,ke->de", weights2, actions, actions)
    stat_psi2 = -outer_sum @ pp.psi2
    if chain_rule:
        # psi3's gradient, -b for psi1 and (b b' + gamma prec) psi2 for psi2,
        # is the same at every step, so it enters weighted by sum_k w_k = stat_xi
        prec = pp.precision
        b = prec @ pp.psi1
        stat_psi1 = stat_psi1 - b * stat_xi
        stat_psi2 = stat_psi2 + (np.outer(b, b) + pp.gamma * prec) @ pp.psi2 * stat_xi
    return stat_xi, stat_psi1, stat_psi2


def update_statistics(
    pp: PolicyParams, path: sde.EpisodePath, rho: float, chain_rule: bool = True
) -> tuple[float, np.ndarray, np.ndarray]:
    """Expose the raw update sums (sum_k e^{-rho t_k} grad q * G_k)."""
    return _episode_statistics(
        pp, rho, path.times, path.states, path.actions, path.local_time, chain_rule
    )


def _xi_curvature(rho: float, times: np.ndarray) -> float:
    """Slope c of the linear xi condition, stat_xi(xi) = stat_xi(0) - c xi.

    c = rho dt sum_k e^{-rho t_k} over the steps of the time grid; it depends
    on neither the path nor the parameters.
    """
    dt = float(times[1] - times[0])
    return rho * dt * float(np.sum(np.exp(-rho * times[:-1])))


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
    xi + stat_xi / c of its own condition (c from _xi_curvature).  psi1 and
    psi2 move by their rates times their statistics, and the norm of that
    step is capped at update_clip; the xi step is neither clipped nor counted
    in the norm.  Non-finite updates raise NonFiniteUpdate so the caller can
    skip and count them.  psi3 needs no explicit refresh because it is always
    derived.
    """
    stat_xi, stat_psi1, stat_psi2 = update_statistics(pp, path, rho, chain_rule)
    d_xi = xi_weight * stat_xi / _xi_curvature(rho, path.times)
    d_psi1 = rates.alpha_psi1 * stat_psi1
    d_psi2 = rates.alpha_psi2 * stat_psi2
    vec = np.concatenate([d_psi1.ravel(), d_psi2.ravel()])
    if not (math.isfinite(d_xi) and np.all(np.isfinite(vec))):
        raise NonFiniteUpdate("episode produced a non-finite update")
    norm = float(np.linalg.norm(vec))
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
        k = round(self.T / self.dt)
        if not math.isclose(k * self.dt, self.T, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(f"T={self.T} must be an integer multiple of dt={self.dt}")
        self.n_steps = k

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
        d = self.psi1.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = (
                ["episode", "xi"]
                + [f"psi1_{i+1}" for i in range(d)]
                + [f"psi2_{i+1}{j+1}" for i in range(d) for j in range(d)]
                + ["psi3", "update_norm", "clipped"]
            )
            writer.writerow(header)
            for n in range(len(self.episodes)):
                writer.writerow(
                    [int(self.episodes[n]), self.xi[n]]
                    + list(self.psi1[n])
                    + list(self.psi2[n].ravel())
                    + [self.psi3[n], self.update_norms[n], int(self.clipped[n])]
                )

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
    Philox stream keyed by (config.seed, i), so a run is reproducible and a
    resumed run continues the original stream sequence.

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
    clamps_before = env.clamp_events
    rejected: list[int] = []
    max_rejected = config.reject_fraction * n
    for idx, i in enumerate(episodes):
        rng = sde.episode_rng(config.seed, int(i))
        rates = schedule(int(i), config.schedule)
        try:
            mean_coef, cov_chol = pp.policy_coefficients()
            states, actions, local = sde.rollout_linear_gaussian(
                env, mean_coef, cov_chol, config.y0, config.n_steps, rng
            )
            path = sde.EpisodePath(
                times=np.linspace(0.0, config.T, config.n_steps + 1),
                states=states,
                actions=actions,
                local_time=local,
            )
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
    """Monte Carlo means and standard errors of the martingale statistics."""

    components: list[str]
    means: np.ndarray
    stderrs: np.ndarray
    n_paths: int

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

    At the correct (xi, psi1, psi2) every component is a centred martingale
    statistic, so each mean should vanish within Monte Carlo error.
    """
    episodes = list(paths)
    if not episodes:
        raise ValueError("need at least one episode path")
    d = pp.d
    rows = np.empty((len(episodes), 1 + d + d * d))
    for i, ep in enumerate(episodes):
        s_xi, s_p1, s_p2 = _episode_statistics(
            pp, rho, ep.times, ep.states, ep.actions, ep.local_time, chain_rule
        )
        rows[i] = np.concatenate([[s_xi], s_p1.ravel(), s_p2.ravel()])
    means = rows.mean(axis=0)
    stderrs = rows.std(axis=0, ddof=1) / math.sqrt(len(episodes))
    return OrthogonalityStats(
        components=_component_names(d),
        means=means,
        stderrs=stderrs,
        n_paths=len(episodes),
    )


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
            batch = sde.simulate_linear_gaussian_batch(
                params, mean_coef, cov_chol, n_paths, y0, T, dt, seed
            )
            stats = orthogonality_stats(pp, batch, params.rho, chain_rule)
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
