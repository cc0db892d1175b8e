"""Reflected-diffusion environment simulator with local-time accounting.

The normalized surplus follows, between reflections,

    dY = -sigma_z (Y + 1) dWk + a' mu dt + a' sigma dW ,

where ``a`` is the (possibly random) action, ``W`` the d-dimensional asset
driver and Wk = kappa W0 + sqrt(1 - kappa^2) eta_hat' W the composite
benchmark driver, with W0 independent of W and eta_hat = eta / |eta|.  All
drivers are standard Brownian motions under the benchmark-normalized
pricing measure, which every value function and martingale statistic in
this package is stated under.

Under a state-linear Gaussian policy, a = (1+Y) u with u free of Y.  Holding
u_k over a step makes H = ln(1+Y) a Brownian motion with drift until it
reflects, so given u_k its step is exactly Gaussian:
X_k = (u_k'mu - v_k/2) dt + sqrt(v_k dt) xi_k, with the variance rate
v_k = |sigma'u_k - sigma_z sqrt(1-kappa^2) eta_hat|^2 + sigma_z^2 kappa^2.
So the kernel draws d action normals and one normal xi_k a step
(_increments).  The aggregated dynamics step H by
X_k = (b - s^2/2) dt + s sqrt(dt) z_k.  Reflection at 0 is Lindley's
recursion H' = max(H + X_k, 0), the discrete Skorokhod map, which a
cumulative sum and a running maximum of the push solve with no loop over
steps (_reflect); the local time L is the push itself (Y's local time, since
1 + Y = 1 where it grows), so H and y are exactly 0 on the steps where L
grows.  A clamp at the action cap depends on y, so it is found after the
fact: that step's u_k is scaled, its X_k redrawn from the same xi_k, and
the path replayed from there, its push added to L_k (_paths).

Each output has one sampler.  simulate_linear_gaussian_batch and
simulate_aggregated store paths, and rollout_linear_gaussian gives one path
from the caller's generator; they run the map.  The statistics read only
(u_k, X_k), which increment_blocks (and qlearn.train) take from the kernel,
running the map only on a block where a clamp can bind (_relative_paths).
Every batch works in blocks of a few paths over one reused workspace; row i
draws the Philox stream (seed, i), so it equals a rollout on that stream bit
for bit, and one re-keyed Philox serves every stream (episode_streams).

The same map in continuous time gives an independent oracle for the
policy-averaged dynamics: for H = ln(1 + Y),

    H_t = h0 + mu_hat t + sigma_hat B_t + K_t ,
    K_t = max(0, -h0 + max_{s<=t} (-mu_hat s - sigma_hat B_s)) ,

whose terminal law (skorokhod_terminal_sample) validates the projection
Euler scheme of aggregated_terminal_sample distributionally.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator

import numpy as np

from .model import ModelParams, derived_constants

__all__ = [
    "NonFinite",
    "InvalidVariance",
    "BatchPaths",
    "IncrementBlock",
    "episode_rng",
    "episode_streams",
    "grid_steps",
    "rollout_linear_gaussian",
    "increment_blocks",
    "simulate_linear_gaussian_batch",
    "aggregated_coefficients",
    "simulate_aggregated",
    "aggregated_terminal_sample",
    "skorokhod_terminal_sample",
    "export_paths_csv",
]

DEFAULT_ACTION_CAP = 1e6
_KEY_MASK = 0xFFFFFFFFFFFFFFFF
# paths per kernel block: a block's arrays stay small (150 kB each at K = 1200)
# while numpy's per-call cost is shared by several paths
BLOCK_ROWS = 16


class NonFinite(RuntimeError):
    """A state update produced NaN or Inf."""


class InvalidVariance(ValueError):
    """The aggregated diffusion coefficient would be the root of a negative number."""


def episode_rng(seed: int, episode_index: int) -> np.random.Generator:
    """Counter-based stream keyed by (run seed, episode index).

    Streams for distinct episodes are independent and reproducible, so
    batches of episodes can be generated in any order or in parallel.  The
    key is (seed mod 2^64, episode_index), so every seed has its own streams.
    """
    key = np.array([seed & _KEY_MASK, episode_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def episode_streams() -> Callable[[int, int], np.random.Generator]:
    """A function stream(seed, episode_index) that draws what episode_rng(seed, episode_index) draws.

    One Philox is re-keyed per stream: its key is set and its counter,
    buffer and cached word reset to those of a new Philox.  That skips the
    constructor, which seeds itself from os.urandom before the key replaces
    that seed.  Every call returns the same Generator, so a stream must be
    finished before the next is asked for.
    """
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    fresh = np.random.Philox(key=0).state   # the counter, buffer and positions of a new stream
    key = fresh["state"]["key"]

    def stream(seed: int, episode_index: int) -> np.random.Generator:
        key[0] = seed & _KEY_MASK
        key[1] = episode_index
        bitgen.state = fresh
        return gen

    return stream


def _eta_unit(params: ModelParams) -> np.ndarray:
    n = float(np.linalg.norm(params.eta))
    if n == 0.0:
        # uncorrelated limit: the eta-channel never enters (kappa carries it)
        return np.zeros_like(params.eta)
    return params.eta / n


def _market(params: ModelParams, dt: float) -> SimpleNamespace:
    """The per-step constants of the policy kernel, computed once per run.

    A step's variance rate is v = |sigma'u - bench|^2 + own: bench is the
    benchmark's loading on the asset noise and own its own variance.
    """
    return SimpleNamespace(d=params.d, dt=dt, half_dt=0.5 * dt, mu_dt=params.mu * dt, sigma=params.sigma,
                           bench=params.sigma_z * math.sqrt(1.0 - params.kappa**2) * _eta_unit(params),
                           own=(params.sigma_z * params.kappa) ** 2)


def grid_steps(T: float, dt: float) -> int:
    """The number of steps of length dt in the horizon T, which must be a positive whole number."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    n = round(T / dt)
    if not math.isclose(n * dt, T, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(f"horizon T={T} is not an integer multiple of dt={dt}")
    if n < 1:
        raise ValueError("need at least one step")
    return n


def _grid(T: float, dt: float) -> np.ndarray:
    return np.linspace(0.0, T, grid_steps(T, dt) + 1)


@dataclass(frozen=True)
class BatchPaths:
    """Vectorized stack of reflected episodes on one uniform grid (rows = episodes): states >= 0 and local_time,
    the push of ln(1 + y) at 0 from L_0 = 0.0, which grows only on steps that end exactly at y = 0."""

    times: np.ndarray       # (K+1,)
    states: np.ndarray      # (n, K+1)
    actions: np.ndarray     # (n, K, d); d = 0 for the action-free schemes
    local_time: np.ndarray  # (n, K+1)
    clamp_events: int = 0


@dataclass(frozen=True)
class IncrementBlock:
    """A block of policy paths as statistics read it: u_k = a_k / (1+y_k), X_k = ln(1+y_{k+1}) - ln(1+y_k) - dL_k."""

    times: np.ndarray   # (K+1,)
    u: np.ndarray       # (d, n, K)
    x: np.ndarray       # (n, K)
    clamp_events: int = 0


def _workspace(rows: int, K: int, d: int) -> SimpleNamespace:
    """Buffers for the kernel on up to `rows` paths of K steps; u holds the d components of u_k.

    A stream of blocks allocates them once.  Fresh temporaries in each
    block would go back to the system when the block ends and be faulted in
    again by the next one, a cost that swings with the machine's load.
    """
    def e(*shape):
        return np.empty((rows, *shape))
    return SimpleNamespace(normals=e(K, d + 1), u=np.empty((d, rows, K)), x=e(K), unorm=e(K), t=e(K), w=e(K),
                           h=e(K + 1), push=e(K + 1), states=e(K + 1), actions=e(K, d), local=e(K + 1))


def _blocks(K: int, d: int, n_paths: int, seed: int, fill) -> Iterator:
    """fill(ws, n, first_path) per block of n <= BLOCK_ROWS paths, ws.normals[j] from stream (seed, first_path + j).

    Every block is drawn into the same workspace, so the next one overwrites what fill returned.
    """
    ws = _workspace(min(n_paths, BLOCK_ROWS), K, d)
    stream = episode_streams()
    for start in range(0, n_paths, BLOCK_ROWS):
        n = min(BLOCK_ROWS, n_paths - start)
        for j in range(n):
            stream(seed, start + j).standard_normal(out=ws.normals[j])
        yield fill(ws, n, start)


def _batch(blocks: Iterator[BatchPaths], times: np.ndarray, d: int, n_paths: int) -> BatchPaths:
    """The n_paths rows that `blocks` yields on `times`, copied into one BatchPaths."""
    K = len(times) - 1
    states, local, actions = np.empty((n_paths, K + 1)), np.empty((n_paths, K + 1)), np.empty((n_paths, K, d))
    clamp_events = 0
    for start, block in zip(range(0, n_paths, BLOCK_ROWS), blocks):
        rows = slice(start, start + BLOCK_ROWS)
        states[rows], actions[rows], local[rows] = block.states, block.actions, block.local_time
        clamp_events += block.clamp_events
    return BatchPaths(times, states, actions, local, clamp_events)


def _reflect(x: np.ndarray, states: np.ndarray, local: np.ndarray, ws: SimpleNamespace) -> None:
    """Fill states[:, 1:] and local[:, 1:] for H' = max(H + x_k, 0), H = ln(1+y), from column 0, per row.

    With S the partial sums of x from ln(1 + y_0), H = S + P for the push
    P_k = max_{j<=k} max(-S_j, 0), and local = local[:, 0] + P.  P grows
    exactly on the reflecting steps; there it equals -S, so H and y are
    exactly 0.  From local[:, 0] = +0.0, local is P itself, with no -0.0.
    """
    n, m = x.shape
    h, push = ws.h[:n, : m + 1], ws.push[:n, : m + 1]
    with np.errstate(invalid="ignore", over="ignore"):
        np.log1p(states[:, 0], out=h[:, 0])
        h[:, 1:] = x
        np.cumsum(h, axis=1, out=h)
        np.maximum(np.negative(h, out=push), 0.0, out=push)
        np.maximum.accumulate(push, axis=1, out=push)
        h += push
        np.expm1(h[:, 1:], out=states[:, 1:])
        np.add(push[:, 1:], local[:, :1], out=local[:, 1:])


def _increments(m: SimpleNamespace, mean_coef: np.ndarray, cov_chol: np.ndarray, ws: SimpleNamespace, n: int) -> None:
    """Fill a block's relative actions ws.u[:, :n], their squared norms ws.unorm[:n] and its steps ws.x[:n].

    Row r reads ws.normals[r], (K, d+1): per step d action normals z_k and one
    normal xi_k, for u_k = mean_coef + cov_chol z_k and X_k = (u_k'mu - v_k/2) dt
    + sqrt(v_k dt) xi_k (_market).  Contractions over d are explicit sums, so an
    element's rounding does not depend on the block's shape.
    """
    d = m.d
    normals = ws.normals[:n]
    u, x, unorm, t, w = ws.u[:, :n], ws.x[:n], ws.unorm[:n], ws.t[:n], ws.w[:n]

    def dot(coef, planes, out):  # out = sum_j coef[j] planes[j]
        np.multiply(planes[0], coef[0], out=out)
        for j in range(1, d):
            out += np.multiply(planes[j], coef[j], out=w)

    z = [normals[..., j] for j in range(d)]
    for i in range(d):
        dot(cov_chol[i], z, u[i])
        u[i] += mean_coef[i]
    dot(u, u, unorm)
    for j in range(d):   # x = v
        dot(m.sigma[:, j], u, t)
        t -= m.bench[j]
        if j:
            x += np.square(t, out=t)
        else:
            np.square(t, out=x)
    x += m.own
    np.sqrt(np.multiply(x, m.dt, out=t), out=t)
    t *= normals[..., d]
    x *= -m.half_dt
    x += t
    for i in range(d):
        x += np.multiply(u[i], m.mu_dt[i], out=t)


def _paths(m: SimpleNamespace, y0: float, action_cap: float, ws: SimpleNamespace, n: int) -> int:
    """Fill ws.states, ws.actions and ws.local of a block from y0 and its steps ws.x; return its clamp count.

    A clamp scales u_k by cap / |(1+y_k) u_k|, which depends on y_k, so the first
    clamp of a row is found after the fact: u_k is scaled and X_k redrawn from the
    same xi_k, in place, and the row replayed from there until no new clamp; a
    replay adds its push to L_k.  The norms and the mask are built only when
    max(1+y) max|u|, which bounds every (1+y_k)|u_k| (nan if any is nan), is over
    the cap.  A non-finite row is left as it is (the samplers raise on it through
    _check_finite), and the other rows are unaffected.
    """
    u, x, unorm, t, w = ws.u[:, :n], ws.x[:n], ws.unorm[:n], ws.t[:n], ws.w[:n]
    states, local = ws.states[:n], ws.local[:n]
    states[:, 0] = y0
    local[:, 0] = 0.0
    _reflect(x, states, local, ws)
    clamps = 0
    np.add(states[:, :-1], 1.0, out=t)
    if not t.max() * math.sqrt(unorm.max()) <= action_cap:
        xi = ws.normals[:n, :, m.d]
        np.sqrt(unorm, out=unorm)
        over = np.multiply(t, unorm, out=w) > action_cap
        for r in np.flatnonzero(over.any(axis=1)):
            k = int(np.argmax(over[r]))
            while k >= 0:
                clamps += 1
                u[:, r, k] *= action_cap / ((1.0 + states[r, k]) * unorm[r, k])
                e = u[:, r, k] @ m.sigma - m.bench
                v = e @ e + m.own
                x[r, k] = math.sqrt(v * m.dt) * xi[r, k] - v * m.half_dt + u[:, r, k] @ m.mu_dt
                _reflect(x[r : r + 1, k:], states[r : r + 1, k:], local[r : r + 1, k:], ws)
                later = np.flatnonzero((1.0 + states[r, k + 1 : -1]) * unorm[r, k + 1 :] > action_cap)
                k = k + 1 + int(later[0]) if later.size else -1
        np.add(states[:, :-1], 1.0, out=t)   # the replays moved the states
    for i in range(m.d):
        np.multiply(t, u[i], out=ws.actions[:n, :, i])
    return clamps


def _relative_paths(m: SimpleNamespace, mean_coef: np.ndarray, cov_chol: np.ndarray, y0: float,
                    action_cap: float, ws: SimpleNamespace, n: int) -> int:
    """Fill ws.u[:, :n] and ws.x[:n] as _increments and _paths leave them, running _paths only if a clamp can bind.

    H = ln(1 + y) is S + P, S = h0 + C the partial sums of X from h0 = ln(1 + y0)
    and the push P at most max(0, -min S), so exp(max S + max(0, -min S)) max|u|
    bounds every (1+y_k)|u_k| of the block (nan if any is nan).  Returns the clamps.
    """
    _increments(m, mean_coef, cov_chol, ws, n)
    c, h0 = ws.h[:n], math.log1p(y0)
    c[:, 0] = 0.0
    np.cumsum(ws.x[:n], axis=1, out=c[:, 1:])
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.exp(h0 + c.max() + max(0.0, -h0 - c.min())) * np.sqrt(ws.unorm[:n].max())
    return 0 if bound <= action_cap else _paths(m, y0, action_cap, ws, n)


def _check_finite(a: np.ndarray, first_path: int) -> None:
    """Raise NonFinite naming the first step k with a non-finite a[:, k], and its first such path after first_path.

    A sum is finite only if every term is, so the mask is built only when a value may be bad.
    """
    if not math.isfinite(a.sum()):
        bad = ~np.isfinite(a)
        if bad.any():
            k = int(np.argmax(bad.any(axis=0)))
            raise NonFinite(f"path {first_path + int(np.argmax(bad[:, k]))}, step {k}: non-finite state proposal")


def _policy_args(params: ModelParams, mean_coef, cov_chol, y0: float, dt: float):
    """(market, mean_coef, cov_chol) of a kernel run, refusing a negative y0."""
    if y0 < 0.0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    d = params.d
    return (_market(params, dt), np.asarray(mean_coef, dtype=float).reshape(d),
            np.asarray(cov_chol, dtype=float).reshape(d, d))


def rollout_linear_gaussian(params: ModelParams, mean_coef: np.ndarray, cov_chol: np.ndarray, y0: float, n_steps: int,
                            dt: float, rng: np.random.Generator, action_cap: float = DEFAULT_ACTION_CAP
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One episode of n_steps of a state-linear Gaussian policy: its (states, actions, local time).

    Draws the episode's normals from rng in one block of shape (K, d+1) and
    runs the kernel of simulate_linear_gaussian_batch, so the result is
    bit-identical to the batch's row on the same stream.  The batch counts
    the clamps.
    """
    m, mean_coef, cov_chol = _policy_args(params, mean_coef, cov_chol, y0, dt)
    ws = _workspace(1, n_steps, params.d)
    rng.standard_normal(out=ws.normals[0])
    _increments(m, mean_coef, cov_chol, ws, 1)
    _paths(m, y0, action_cap, ws, 1)
    _check_finite(ws.states[:, 1:], 0)
    return ws.states[0], ws.actions[0], ws.local[0]


def increment_blocks(params: ModelParams, mean_coef: np.ndarray, cov_chol: np.ndarray, n_paths: int, y0: float,
                     T: float, dt: float, seed: int, action_cap: float = DEFAULT_ACTION_CAP
                     ) -> Iterator[IncrementBlock]:
    """The (u_k, X_k) of the rows of simulate_linear_gaussian_batch, in blocks of at most BLOCK_ROWS paths.

    They are the kernel's own u and X; the reflection map runs only on a block
    where a clamp can bind (_relative_paths).  The next block overwrites a block's
    arrays; a NonFinite names the first non-finite X_k by its path's index in the run.
    """
    m, mean_coef, cov_chol = _policy_args(params, mean_coef, cov_chol, y0, dt)
    times = _grid(T, dt)

    def fill(ws, n, first_path):
        clamp_events = _relative_paths(m, mean_coef, cov_chol, y0, action_cap, ws, n)
        _check_finite(ws.x[:n], first_path)
        return IncrementBlock(times, ws.u[:, :n], ws.x[:n], clamp_events)

    return _blocks(len(times) - 1, params.d, n_paths, seed, fill)


def simulate_linear_gaussian_batch(
    params: ModelParams,
    mean_coef: np.ndarray,
    cov_chol: np.ndarray,
    n_paths: int,
    y0: float,
    T: float,
    dt: float,
    seed: int,
    action_cap: float = DEFAULT_ACTION_CAP,
) -> BatchPaths:
    """Simulate many episodes of a state-linear Gaussian policy at once.

    The policy draws a ~ N(mean_coef (1+y), (1+y)^2 cov_chol cov_chol'),
    which covers both the explicit optimal policy and every parameterized
    policy used by the learner.  One Philox stream per episode keeps the
    result bit-identical to sequential generation path by path.
    """
    m, mean_coef, cov_chol = _policy_args(params, mean_coef, cov_chol, y0, dt)
    times = _grid(T, dt)

    def fill(ws, n, first_path):
        _increments(m, mean_coef, cov_chol, ws, n)
        clamp_events = _paths(m, y0, action_cap, ws, n)
        _check_finite(ws.states[:n, 1:], first_path)
        return BatchPaths(times, ws.states[:n], ws.actions[:n], ws.local[:n], clamp_events)

    return _batch(_blocks(len(times) - 1, params.d, n_paths, seed, fill), times, params.d, n_paths)


def aggregated_coefficients(params: ModelParams, gamma: float) -> tuple[float, float]:
    """Drift and diffusion multipliers of the policy-averaged state.

    Under the explicit Gaussian policy the state aggregates to

        dY = b (1+Y) dt + s (1+Y) dB + dL ,

    with b = 2 alpha + sqrt(1-kappa^2) zeta and
    s^2 = alpha + (d/2) gamma + kappa^2 sigma_z^2 / 2 + sqrt(1-kappa^2) zeta.
    """
    c = derived_constants(params)
    root_term = math.sqrt(1.0 - params.kappa**2) * c.zeta
    b = 2.0 * c.alpha + root_term
    s2 = c.alpha + 0.5 * params.d * gamma + 0.5 * params.kappa**2 * params.sigma_z**2 + root_term
    if s2 < 0.0:
        raise InvalidVariance(f"squared diffusion coefficient is negative: {s2}")
    return b, math.sqrt(s2)


def simulate_aggregated(
    params: ModelParams,
    gamma: float,
    y0: float,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> BatchPaths:
    """Paths of the one-factor aggregated dynamics, exact on the grid.

    ln(1 + Y) is a Brownian motion with drift b - s^2/2, reflected at 0, so
    the kernel's reflection map on X_k = (b - s^2/2) dt + s sqrt(dt) z_k
    gives the Skorokhod map's H at the grid times: states = expm1(H) and
    local_time = its push K, which is Y's local time (1 + Y = 1 where K grows).
    """
    if y0 < 0.0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    b, s = aggregated_coefficients(params, gamma)
    drift, scale = (b - 0.5 * s * s) * dt, s * math.sqrt(dt)

    times = _grid(T, dt)

    def fill(ws, n, first_path):
        x, states, local = ws.x[:n], ws.states[:n], ws.local[:n]
        np.multiply(ws.normals[:n, :, 0], scale, out=x)
        x += drift
        states[:, 0] = y0
        local[:, 0] = 0.0
        _reflect(x, states, local, ws)
        return BatchPaths(times, states, ws.actions[:n], local)

    return _batch(_blocks(len(times) - 1, 0, n_paths, seed, fill), times, 0, n_paths)


def aggregated_terminal_sample(
    params: ModelParams,
    gamma: float,
    y0: float,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Terminal values Y_T of the aggregated dynamics, vectorized over paths."""
    b, s = aggregated_coefficients(params, gamma)
    times = _grid(T, dt)
    K = len(times) - 1
    rng = episode_rng(seed, 0)
    sqdt = math.sqrt(dt)
    y = np.full(n_paths, float(y0))
    for k in range(K):
        z = rng.standard_normal(n_paths)
        proposal = y + b * (1.0 + y) * dt + s * (1.0 + y) * sqdt * z
        y = np.maximum(proposal, 0.0)
    return y


def skorokhod_terminal_sample(
    params: ModelParams,
    gamma: float,
    h0: float,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Terminal log-states H_T from the Skorokhod construction, vectorized."""
    if h0 < 0.0:
        raise ValueError(f"h0 must be >= 0, got {h0}")
    b, s = aggregated_coefficients(params, gamma)
    mu_hat = b - 0.5 * s * s
    times = _grid(T, dt)
    K = len(times) - 1
    rng = episode_rng(seed, 0)
    bpath = np.zeros(n_paths)
    running_max = np.zeros(n_paths)
    sqdt = math.sqrt(dt)
    for j in range(1, K + 1):
        bpath += sqdt * rng.standard_normal(n_paths)
        free = -mu_hat * times[j] - s * bpath
        running_max = np.maximum(running_max, free)
    k_T = np.maximum(0.0, -h0 + running_max)
    return h0 + mu_hat * T + s * bpath + k_T


def _write_csv(path, header: list[str], rows) -> None:
    """Write the header and the rows of numbers in the bytes that csv.writer gives them, one join a row.

    str of a number is what csv.writer writes (a float's shortest repr), and
    no header name needs quoting.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in rows)


def export_paths_csv(paths: BatchPaths, csv_path, meta_path, metadata: dict) -> None:
    """Write paths as (episode, k, t, y, action..., dL, L) rows plus a metadata JSON.

    Row k carries the action taken at step k, so a path's last row has nan actions.
    """
    d = paths.actions.shape[2]
    no_action = np.full((1, d), math.nan)

    def rows():
        for i, local in enumerate(paths.local_time):
            block = np.column_stack([
                paths.times, paths.states[i], np.vstack([paths.actions[i], no_action]),
                np.diff(local, prepend=0.0), local,
            ]).tolist()
            for k, row in enumerate(block):
                yield [i, k, *row]

    _write_csv(csv_path, ["episode", "k", "t", "y"] + [f"action_{i+1}" for i in range(d)] + ["dL", "L"], rows())
    with open(meta_path, "w") as fh:
        json.dump(metadata, fh, indent=2, default=str)
