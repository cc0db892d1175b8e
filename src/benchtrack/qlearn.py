"""Offline continuous-time q-learning for the reflected tracking problem.

The value function and q-function are parameterized in the exact form that
solves the entropy-regularised problem at temperature rho/d:

    J(y; xi)    = ln(1 + y) + xi
    q(y, a; psi) = psi1'u - |psi2'u|^2 / 2 + psi3 - rho ln(1 + y) ,   u = a / (1 + y) ,

with psi3 always re-derived from (psi1, psi2) so that the Gibbs policy
built from q integrates to one and the consistency condition
E_pi[q - gamma ln pi] = 0 holds identically.  At the closed-form constants
(PolicyParams.from_constants) this q is the exact q-function.

Learning enforces the martingale property of

    M_t = e^{-rho t} J(Y_t) - int_0^t e^{-rho s} q(Y_s, a_s) ds
          - int_0^t e^{-rho s} dL_s

through its orthogonality against the parameter gradients of J and q.
q + rho J has no y in it, so an episode's discretized residuals are

    G_k = X_k - phi_k'theta dt ,    X_k = ln(1 + y_{k+1}) - ln(1 + y_k) - (L_{k+1} - L_k) ,

with theta = (c0, psi1, P), c0 = psi3 + rho xi, P = psi2 psi2' and the
features phi_k = (1, u_k, -u_k u_k'/2), where u_k u_k' enters by its unique
entries (an off-diagonal pair once, as -u_i u_j).  Training and the
diagnostics read only (u_k, X_k), which the simulator's kernel produces
(sde.increment_blocks), through one feature builder (_features).  Every
test function, psi3's gradient included, is a combination of the entries of
phi_k, so each orthogonality statistic is a fixed map (_statistics_map) of
m = sum_k e^{-rho t_k} G_k phi_k, and all of them vanish where the normal
equations A theta = b of the e^{-rho t}-weighted least-squares fit of X_k on
phi_k dt hold:

    A = sum_k e^{-rho t_k} phi_k phi_k' dt ,    b = sum_k e^{-rho t_k} phi_k X_k .

That is LSTD (Bradtke & Barto 1996) on the martingale conditions of Jia &
Zhou.  The root is the same for any behaviour policy under which A has full
rank, so the fit needs no learning rate.  train adds each episode's sums to
running A and b, solves them once per block of episodes (update), and reads
off psi2 = cholesky(P), psi3 from (psi1, psi2) and xi = (c0 - psi3) / rho.
No test function depends on xi, so every statistic is affine in xi; the
diagnostics' xi-shifted control is derived from the paths' one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import sde
from .model import ExploratoryConstants, ModelParams, _as_state, gibbs_psi3, psi3_consistency

__all__ = [
    "SingularPsi2",
    "TooManyRejectedEpisodes",
    "GaussianSpec",
    "PolicyParams",
    "LearnConfig",
    "TrainHistory",
    "OrthogonalityStats",
    "j_value",
    "q_value",
    "policy_from_q",
    "update",
    "train",
    "orthogonality_stats",
    "convergence_study",
]

PSI2_FLOOR = 1e-6
REJECT_FRACTION = 0.1   # train stops once more than this share of its episodes is rejected


class SingularPsi2(ValueError):
    """psi2 psi2' is not finite, or singular or too ill-conditioned to invert."""


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
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(self.psi2_sq)):
                raise SingularPsi2("psi2 psi2' must be finite: psi2's entries are too large")
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
    def precision(self) -> np.ndarray:
        """(psi2 psi2')^-1 with conditioning and absolute-scale guards."""
        if not _invertible(np.linalg.eigvalsh(self.psi2_sq)):
            raise SingularPsi2(f"psi2 psi2' is singular or ill-conditioned: {self.psi2_sq!r}")
        return np.linalg.inv(self.psi2_sq)

    @cached_property
    def mean_coef(self) -> np.ndarray:
        """precision psi1, the Gibbs policy's mean per unit of 1 + y."""
        return self.precision @ self.psi1

    @cached_property
    def psi3(self) -> float:
        """The Gibbs normalization constant of (psi1, psi2) at gamma, in the policy's own steps.

        psi1'(P^-1 psi1) and the sum of the logs of P's eigenvalues for
        P = psi2 psi2', in model.gibbs_psi3.  Without a Gibbs policy (see
        precision) psi3 still has the normalization formula's value.
        """
        eigs = np.linalg.eigvalsh(self.psi2_sq)
        if not _invertible(eigs):
            return psi3_consistency(self.psi1, self.psi2, self.gamma)
        return gibbs_psi3(float(self.psi1 @ self.mean_coef), float(np.log(eigs).sum()), self.d, self.gamma)

    def policy_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """(mean_coef, cov_chol): a ~ N(mean_coef (1+y), (1+y)^2 chol chol')."""
        return self.mean_coef, np.linalg.cholesky(self.gamma * self.precision)


def _invertible(eigs: np.ndarray) -> bool:
    """Whether psi2 psi2' with these ascending eigenvalues passes precision's guards."""
    return bool(eigs[0] >= PSI2_FLOOR**2 and eigs[-1] / eigs[0] <= 1e12)


def j_value(pp: PolicyParams, y):
    """Parameterized value: ln(1+y) + xi.  Neumann slope at 0 is 1 by form."""
    out = np.log1p(_as_state(y)) + pp.xi
    return out if out.ndim else float(out)


def q_value(pp: PolicyParams, rho: float, y, a):
    """Parameterized q including the derived psi3: the relative q at u = a / (1+y), minus rho ln(1+y).

    At one state, y is a float and a has shape (d,); along a path, y has
    shape (K,) and a shape (K, d), and the result has shape (K,).  It sums
    psi3 + sum_i u_i (psi1_i - P_ii u_i / 2 - sum_{j<i} P_ij u_j), P = psi2 psi2'.
    """
    y = np.asarray(_as_state(y))
    u = np.moveaxis(np.atleast_1d(np.asarray(a, dtype=float)) / (1.0 + y)[..., None], -1, 0)
    P, out = pp.psi2_sq, pp.psi3
    for i in range(pp.d):
        t = u[i] * (-0.5 * P[i, i]) + pp.psi1[i]
        for j in range(i):
            t = t - u[j] * P[i, j]
        out = out + t * u[i]
    out = out - rho * np.log1p(y)
    return out if out.ndim else float(out)


def policy_from_q(pp: PolicyParams, y: float) -> GaussianSpec:
    """Gibbs renormalization exp(q/gamma) of the quadratic q is Gaussian."""
    s = 1.0 + _as_state(y)
    return GaussianSpec(mean=s * pp.mean_coef, cov=pp.gamma * s * s * pp.precision)


def _quadratic_pairs(d: int) -> list[tuple[int, int]]:
    """The (i, j), i <= j, of the entries of u u' in phi, in the order of theta's P entries."""
    return [(i, j) for i in range(d) for j in range(i, d)]


def _feature_workspace(rows: int, K: int, d: int, w: np.ndarray | None = None, g: np.ndarray | None = None
                       ) -> SimpleNamespace:
    """Scratch arrays for _features and its reductions on up to `rows` paths of K steps; one is phi's constant 1.

    The caller may lend the (rows, K) planes w and g.
    """
    return SimpleNamespace(one=np.ones((rows, K)), quad=np.empty((len(_quadratic_pairs(d)), rows, K)),
                           w=np.empty((rows, K)) if w is None else w, g=np.empty((rows, K)) if g is None else g)


def _kernel_feature_workspace(ws: SimpleNamespace) -> SimpleNamespace:
    """A _feature_workspace for the blocks of a kernel workspace ws (sde._workspace).

    It is lent the kernel's planes t and unorm, which are free once a block's (u_k, X_k) are made.
    """
    return _feature_workspace(*ws.x.shape, len(ws.u), w=ws.t, g=ws.unorm)


def _features(u: np.ndarray, ws: SimpleNamespace) -> list[np.ndarray]:
    """phi_k's planes for a block whose relative actions u are (d, n, K): 1, the u_i and -vech(u u')/2.

    u u' enters in _quadratic_pairs order, an off-diagonal pair once, as -u_i u_j.
    """
    d, n = len(u), u.shape[1]
    quad = ws.quad[:, :n]
    for k, (i, j) in enumerate(_quadratic_pairs(d)):
        np.multiply(u[i], u[j], out=quad[k])
        quad[k] *= -0.5 if i == j else -1.0
    return [ws.one[:n], *u, *quad]


def _weighted_sums(phi: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    """Per path, sum_k w_k phi_k, (n, len(phi)); w is (n, K), or (K,) when every path shares it.

    Each sum runs along one row, so a 1-row block gives a row of a larger block bit for bit.
    """
    return np.stack([np.einsum("...k,...k->...", f, w) for f in phi], axis=-1)


def _normal_sums(phi: list[np.ndarray], x: np.ndarray, disc: np.ndarray, dt: float,
                 ws: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """Per path, A_r = sum_k e^{-rho t_k} phi_k phi_k' dt and b_r = sum_k e^{-rho t_k} phi_k X_k.

    phi are a block's planes (_features), x its (n, K) X_k and disc (K,) e^{-rho t_k}.
    """
    n, p = len(x), len(phi)
    wf = ws.w[:n]
    A = np.empty((n, p, p))
    for a in range(p):
        np.multiply(phi[a], disc, out=wf)
        A[:, a, a:] = _weighted_sums(phi[a:], wf)
        A[:, a + 1 :, a] = A[:, a, a + 1 :]
    A *= dt
    return A, _weighted_sums(phi, np.multiply(x, disc, out=wf))


def _statistics_map(pp: PolicyParams, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """(theta, M): theta = (psi3 + rho xi, psi1, P) and M, each orthogonality row being m M for m = sum_k w_k phi_k.

    The tests are 1 for xi, u_k - b for psi1 and
    -u_k u_k' psi2 + (b b' + gamma P^-1) psi2 for psi2, with b = P^-1 psi1
    (psi3's gradient enters through the chain rule): each a combination of
    phi_k's entries, u_i u_j being -2 times phi's entry for i = j and -1
    times it for i < j.
    """
    d, psi2, b = pp.d, pp.psi2, pp.mean_coef
    pairs = _quadratic_pairs(d)
    theta = np.concatenate([[pp.psi3 + rho * pp.xi], pp.psi1, [pp.psi2_sq[i, j] for i, j in pairs]])
    M = np.zeros((len(theta), 1 + d + d * d))
    M[: 1 + d, : 1 + d] = np.eye(1 + d)
    M[0, 1 : 1 + d] = -b
    M[0, 1 + d :] = ((np.outer(b, b) + pp.gamma * pp.precision) @ psi2).ravel()
    for k, (i, j) in enumerate(pairs):
        uu = np.zeros((d, d))   # -u u' per unit of phi's entry k
        uu[i, j] = uu[j, i] = 2.0 if i == j else 1.0
        M[1 + d + k, 1 + d :] = (uu @ psi2).ravel()
    return theta, M


def _orthogonality_rows(theta: np.ndarray, M: np.ndarray, rho: float, block: sde.IncrementBlock,
                        ws: SimpleNamespace) -> tuple[np.ndarray, np.ndarray]:
    """(rows, d_rows): per path, sum_k e^{-rho t_k} test_k G_k and its xi-derivative, at (theta, M) of _statistics_map.

    G_k = X_k - phi_k'theta dt, so a row is M applied to sum_k e^{-rho t_k} G_k phi_k.
    xi enters each G_k only through -rho xi dt and no test function depends on
    xi, so d_rows map -rho dt sum_k e^{-rho t_k} phi_k, and the rows at xi + s
    are rows + s d_rows.
    """
    times, x = block.times, block.x
    n, dt = len(x), float(times[1] - times[0])
    disc = np.exp(-rho * times[:-1])
    phi = _features(block.u, ws)
    g, w = ws.g[:n], ws.w[:n]
    np.subtract(x, theta[0] * dt, out=g)
    for f, c in zip(phi[1:], theta[1:]):
        g -= np.multiply(f, c * dt, out=w)
    g *= disc
    return (np.einsum("rp,pq->rq", _weighted_sums(phi, g), M),
            np.einsum("rp,pq->rq", -rho * dt * _weighted_sums(phi, disc), M))


def update(pp: PolicyParams, A: np.ndarray, b: np.ndarray, rho: float) -> tuple[PolicyParams, bool]:
    """The fit (xi, psi1, psi2) of the normal equations A theta = b, or pp held; returns (params, held).

    theta = (c0, psi1, P's entries in _quadratic_pairs order) gives
    psi2 = cholesky(P) and xi = (c0 - psi3) / rho.  A fit that has no Gibbs
    policy (a singular A, a P that is not positive definite, whose psi2 psi2'
    is not finite or that fails PolicyParams.precision's guards) keeps pp, so
    every block is drawn by a policy.  The fit reads only the sums, never the
    market parameters.
    """
    d = pp.d
    try:
        theta = np.linalg.solve(A, b)
        P = np.empty((d, d))
        for k, (i, j) in enumerate(_quadratic_pairs(d)):
            P[i, j] = P[j, i] = theta[1 + d + k]
        fit = PolicyParams(0.0, theta[1 : 1 + d], np.linalg.cholesky(P), pp.gamma)
        fit.precision   # raises SingularPsi2 for a psi2 without a Gibbs policy
    except (np.linalg.LinAlgError, SingularPsi2):
        return pp, True
    # xi is set on the one instance, whose cached psi3 and precision do not depend on it
    object.__setattr__(fit, "xi", (theta[0] - fit.psi3) / rho)
    return fit, False


@dataclass
class LearnConfig:
    """Offline training run configuration; psi1_0 and psi2_0 set the first block's policy (train reads no start y)."""

    T: float
    dt: float
    n_episodes: int
    gamma: float
    seed: int
    psi1_0: np.ndarray | None = None
    psi2_0: np.ndarray | None = None
    start_episode: int = 1

    def __post_init__(self):
        if self.n_episodes < 1:
            raise ValueError("need at least one episode")
        self.n_steps = sde.grid_steps(self.T, self.dt)

    def initial_params(self, d: int) -> PolicyParams:
        psi1 = np.zeros(d) if self.psi1_0 is None else np.asarray(self.psi1_0, dtype=float)
        psi2 = np.eye(d) if self.psi2_0 is None else np.asarray(self.psi2_0, dtype=float)
        return PolicyParams(xi=0.0, psi1=psi1, psi2=psi2, gamma=self.gamma)


@dataclass
class TrainHistory:
    """Per-episode parameter snapshots plus run diagnostics."""

    episodes: np.ndarray   # episode indices (global, resume-aware)
    xi: np.ndarray
    psi1: np.ndarray       # (N, d)
    psi2: np.ndarray       # (N, d, d)
    psi3: np.ndarray
    clipped: np.ndarray    # bool: the refit at this episode was held
    rejected_episodes: list[int]
    clamp_events: int      # action clamps during this run only
    final: PolicyParams    # the fit of all the sums
    policy: PolicyParams   # the policy that draws the next episode
    A: np.ndarray          # the running normal equations, after the last episode
    b: np.ndarray

    def to_csv(self, path) -> None:
        n, d = self.psi1.shape
        header = (
            ["episode", "xi"]
            + [f"psi1_{i+1}" for i in range(d)]
            + [f"psi2_{i+1}{j+1}" for i in range(d) for j in range(d)]
            + ["psi3", "clipped"]
        )
        columns = [self.episodes, self.xi, *self.psi1.T, *self.psi2.reshape(n, d * d).T,
                   self.psi3, self.clipped.astype(int)]
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
            "policy": {"xi": float(self.policy.xi), "psi1": self.policy.psi1.tolist(),
                       "psi2": self.policy.psi2.tolist()},
            "A": self.A.tolist(),
            "b": self.b.tolist(),
        }


def train(
    config: LearnConfig, params: ModelParams, policy: PolicyParams | None = None,
    sums: tuple[np.ndarray, np.ndarray] | None = None,
) -> TrainHistory:
    """Run the offline learning loop on episodes simulated in the market `params`.

    Episodes run in blocks of sde.BLOCK_ROWS aligned to the global episode
    index (episodes 16b+1 ... 16b+16).  One policy draws all of a block's
    episodes: one kernel call (sde._increments, with no reflection map)
    gives their (u_k, X_k) in the market at config's step and sde.ACTION_CAP,
    and one _normal_sums call reduces each to its rows (A_r, b_r), which are
    added to the running A and b in episode order.  At the block's end
    update solves the sums, and its fit draws the next block.
    A history row holds the policy that drew its episode, and the last row
    of a block the block's fit.  The fit reads only (u_k, X_k) and the
    market's rho.  Episode i uses the Philox stream keyed by
    (config.seed, i), so a run is reproducible.

    A path with non-finite sums rejects its own episode.  A start whose
    psi2 psi2' the policy cannot invert raises SingularPsi2 before the
    first episode.  A resumed run passes the TrainHistory.policy and the
    sums (A, b) of the run it continues, and then repeats an uninterrupted
    run; without them the first block is drawn by config.initial_params
    and the sums start at zero.
    """
    d = params.d
    pp = config.initial_params(d) if policy is None else policy
    pp.precision   # raises SingularPsi2 for a start that cannot draw the first block
    n, K, rows_max = config.n_episodes, config.n_steps, sde.BLOCK_ROWS
    hist_xi = np.empty(n)
    hist_psi1 = np.empty((n, d))
    hist_psi2 = np.empty((n, d, d))
    hist_psi3 = np.empty(n)
    hist_held = np.zeros(n, dtype=bool)
    episodes = np.arange(config.start_episode, config.start_episode + n)
    times = np.linspace(0.0, config.T, K + 1)
    disc, dt = np.exp(-params.rho * times[:-1]), float(times[1] - times[0])
    # set up once per run: one kernel and one feature workspace, and one Philox re-keyed per episode
    market = sde._market(params, config.dt)
    ws, fws = sde._workspace(rows_max, K, d), _feature_workspace(rows_max, K, d)
    p = 1 + d + len(_quadratic_pairs(d))
    A, b = (np.zeros((p, p)), np.zeros(p)) if sums is None else (np.array(s, dtype=float) for s in sums)
    stream = sde.episode_streams()
    clamp_events = 0
    rejected: list[int] = []
    max_rejected = REJECT_FRACTION * n
    lo = 0
    while lo < n:
        first = int(episodes[lo])
        m = min(n - lo, rows_max - (first - 1) % rows_max)   # up to the block's end
        mean_coef, cov_chol = pp.policy_coefficients()
        sde._draw_normals(stream, config.seed, first, ws.normals[:m])
        # a non-finite u_k or X_k gives its rows non-finite sums, which reject its episode
        with np.errstate(over="ignore", invalid="ignore"):
            clamp_events += sde._increments(market, mean_coef, cov_chol, ws, m)
            A_rows, b_rows = _normal_sums(_features(ws.u[:, :m], fws), ws.x[:m], disc, dt, fws)
        finite = np.isfinite(A_rows).all(axis=(1, 2)) & np.isfinite(b_rows).all(axis=1)
        for j in range(m):
            if finite[j]:
                A += A_rows[j]
                b += b_rows[j]
            else:
                rejected.append(first + j)
                if len(rejected) > max_rejected:
                    raise TooManyRejectedEpisodes(
                        f"{len(rejected)} of {lo + j + 1} episodes rejected "
                        f"(limit {REJECT_FRACTION:.0%} of {n})"
                    )
        fit, held = update(pp, A, b, params.rho)
        hist_held[lo + m - 1] = held
        for rows, row_pp in ((slice(lo, lo + m - 1), pp), (lo + m - 1, fit)):
            hist_xi[rows] = row_pp.xi
            hist_psi1[rows] = row_pp.psi1
            hist_psi2[rows] = row_pp.psi2
            hist_psi3[rows] = row_pp.psi3
        if (first + m - 1) % rows_max == 0:
            pp = fit
        lo += m
    return TrainHistory(episodes=episodes, xi=hist_xi, psi1=hist_psi1, psi2=hist_psi2, psi3=hist_psi3,
                        clipped=hist_held, rejected_episodes=rejected, clamp_events=clamp_events,
                        final=fit, policy=pp, A=A, b=b)


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


def orthogonality_stats(pp: PolicyParams, blocks: Callable[..., list], rho: float) -> OrthogonalityStats:
    """Estimate E[sum_k test * (M_{k+1} - M_k)] per test function.

    blocks is the block map of sde.increment_blocks: blocks(reduce, scratch)
    returns reduce(block, scratch(ws)) for each sde.IncrementBlock in path
    order.  Each worker of the map reduces the blocks it draws to their
    per-path rows in its own feature workspace, and only the rows are kept;
    the whole pass runs within this call.  At the correct (xi, psi1, psi2)
    every component is a centred martingale statistic, so each mean should
    vanish within Monte Carlo error.  A standard error needs two paths; a
    non-finite row raises sde.NonFinite naming its path.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        theta, M = _statistics_map(pp, rho)
        parts = blocks(lambda block, fws: _orthogonality_rows(theta, M, rho, block, fws), _kernel_feature_workspace)
    n_paths = sum(len(r) for r, _ in parts)
    if n_paths < 2:
        raise ValueError(f"need at least two episode paths for a standard error, got {n_paths}")
    rows, d_rows = (np.concatenate(arrays) for arrays in zip(*parts))
    bad = ~(np.isfinite(rows).all(axis=1) & np.isfinite(d_rows).all(axis=1))
    if bad.any():
        raise sde.NonFinite(f"path {int(np.argmax(bad))}: non-finite orthogonality statistic")
    return OrthogonalityStats(_component_names(pp.d), rows, d_rows)


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
    dominates the infinite-horizon truncation tail, h0 = ln(1 + y0).  y0
    enters only that bound: the statistics read (u_k, X_k), which do not
    depend on the start.
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
            blocks = sde.increment_blocks(params, mean_coef, cov_chol, n_paths, T, dt, seed)
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
