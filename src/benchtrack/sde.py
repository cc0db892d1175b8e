"""Reflected-diffusion environment simulator with local-time accounting.

The normalized surplus follows, between reflections,

    dY = -sigma_z (Y + 1) dWk + a' mu dt + a' sigma dW ,

where ``a`` is the (possibly random) action, ``W`` the d-dimensional asset
driver and Wk = kappa W0 + sqrt(1 - kappa^2) eta_hat' W the composite
benchmark driver, with W0 independent of W and eta_hat = eta / |eta| (|eta|
is 1 up to rounding: ModelParams refuses any other).  All drivers are
standard Brownian motions under the benchmark-normalized pricing measure,
which every value function and martingale statistic in this package is
stated under.

Under a state-linear Gaussian policy, a = (1+Y) u with u free of Y.  Holding
u_k over a step makes H = ln(1+Y) a Brownian motion with drift until it
reflects, so given u_k its step is exactly Gaussian:
X_k = (u_k'mu - v_k/2) dt + sqrt(v_k dt) xi_k, with the variance rate
v_k = |sigma'u_k - sigma_z sqrt(1-kappa^2) eta_hat|^2 + sigma_z^2 kappa^2.
So the kernel draws d action normals and one normal xi_k a step
(_increments).  The action cap ACTION_CAP bounds |u_k|, the position per
unit of the compensated account, before X_k is drawn, so a clamped step is as
exactly Gaussian as any other.  The aggregated dynamics step H by
X_k = (b - s^2/2) dt + s sqrt(dt) z_k.  Reflection at 0 is Lindley's
recursion H' = max(H + X_k, 0), the discrete Skorokhod map, which a
cumulative sum and a running maximum of the push solve with no loop over
steps (_reflect); the local time L is the push itself (Y's local time, since
1 + Y = 1 where it grows), so H and y are exactly 0 where L grows.

Each output has one sampler.  simulate_linear_gaussian_batch and
simulate_aggregated store paths, and rollout_linear_gaussian gives one path
from the caller's generator; they run the map (_paths).  The statistics read
only (u_k, X_k), which increment_blocks (and qlearn.train) take from the
kernel without running the map.
Every path sampler is one ordered block map (_block_map): blocks of
MAP_ROWS paths go to up to two worker threads, each with its own workspace
and its own re-keyed Philox (episode_streams), and each block is reduced by
the worker that drew it.  Row i draws the Philox stream (seed, i) and every
contraction and row sum is per row, so a row equals a rollout on that
stream bit for bit, whichever worker drew it and however many there are.
The terminal samplers keep O(n_paths) state: each is one projected walk
x' = max(step(x, shift + scale z), floor) (_terminal_walk), stepped a block
of paths at a time, up to TERMINAL_BLOCKS blocks of at least TERMINAL_ROWS
paths (_terminal_layout: one block below 2 TERMINAL_ROWS), and block b draws
the stream (seed, b), one normal a path a step.  The layout depends on
n_paths alone, so a sample does not depend on the CPUs.  Both maps hand
their blocks to the workers through one scheduler (_ordered_map).

skorokhod_terminal_sample is the additive walk on H = ln(1 + Y) with floor
0: Lindley's recursion on the exact steps X_k, the grid Skorokhod map that
simulate_aggregated's rows solve.  aggregated_terminal_sample is the
multiplicative walk on 1 + Y with floor 1, the projection Euler scheme of
the aggregated dynamics, which the first checks distributionally.  Both land
on >= 0 exactly.  The map's explicit running-maximum formula,

    H_t = h0 + mu_hat t + sigma_hat B_t + K_t ,
    K_t = max(0, -h0 + max_{s<=t} (-mu_hat s - sigma_hat B_s)) ,

is the tests' independent reference for the walk (tests/oracles.py).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

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

ACTION_CAP = 1e6   # the bound on |u_k| of every policy sampler and of qlearn.train
_KEY_MASK = 0xFFFFFFFFFFFFFFFF
# episodes per refit block of qlearn.train: a block's arrays stay small (150 kB
# each at K = 1200) while numpy's per-call cost is shared by several paths
BLOCK_ROWS = 16
# paths per block of the block map: each numpy call costs about 10 us, so
# 16-row blocks hand the GIL between the workers too often
MAP_ROWS = 32
MAX_WORKERS = 2   # the only worker count measured
# path blocks of the terminal samplers, each step a few numpy calls over a whole block.  On two
# workers at 10^4 paths, two blocks drew 80-91M path-steps/s, three 64-68M, four 66-83M and one
# about 47M (the workers hand the GIL over around each call); at 4096 paths two blocks ran 1.4x
# as fast as one
TERMINAL_BLOCKS = 2
TERMINAL_ROWS = 2048   # the fewest paths of a block, unless the sample has fewer


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


def _market(params: ModelParams, dt: float) -> SimpleNamespace:
    """The per-step constants of the policy kernel, computed once per run.

    A step's variance rate is v = |sigma'u - bench|^2 + own: bench is the
    benchmark's loading on the asset noise and own its own variance.
    """
    eta_hat = params.eta / float(np.linalg.norm(params.eta))
    return SimpleNamespace(d=params.d, dt=dt, half_dt=0.5 * dt, mu_dt=params.mu * dt, sigma=params.sigma,
                           bench=params.sigma_z * math.sqrt(1.0 - params.kappa**2) * eta_hat,
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

    A worker allocates them once for all its blocks.  Fresh temporaries in
    each block would go back to the system when the block ends and be
    faulted in again by the next one, a cost that swings with the machine's load.
    """
    def e(*shape):
        return np.empty((rows, *shape))
    return SimpleNamespace(normals=e(K, d + 1), u=np.empty((d, rows, K)), x=e(K), unorm=e(K), t=e(K), w=e(K),
                           h=e(K + 1), push=e(K + 1))


def _workers() -> int:
    """One worker per CPU that this process may run on, at most MAX_WORKERS."""
    import os
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def _draw_normals(stream: Callable, seed: int, first: int, normals: np.ndarray) -> None:
    """The draw stage of the block map and of qlearn.train: row j of normals draws stream(seed, first + j)."""
    for j in range(len(normals)):
        stream(seed, first + j).standard_normal(out=normals[j])


def _ordered_map(n_tasks: int, worker_state: Callable[[], object], task) -> list:
    """[task(state, b) for b in range(n_tasks)], in order, on up to _workers() threads.

    The tasks go in turn to the workers, one of them the caller; each makes
    its own state = worker_state() once and runs its tasks under the caller's
    np.errstate (a thread does not inherit it).  So a result depends only on
    its task, as long as task reads nothing that an earlier task left in
    state.  If tasks raise, the error of the earliest one is raised once
    every worker has stopped; no task is taken after an error.
    """
    import threading
    results: list = [None] * n_tasks
    errors: dict = {}
    lock, order = threading.Lock(), iter(range(n_tasks))
    errstate = np.geterr()

    def work():
        state = worker_state()
        with np.errstate(**errstate):
            while not errors:
                with lock:
                    b = next(order, None)
                if b is None:
                    return
                try:
                    results[b] = task(state, b)
                except BaseException as exc:
                    errors[b] = exc   # the other workers take no further task
                    if not isinstance(exc, Exception):   # an interrupt in the caller
                        raise

    threads = [threading.Thread(target=work) for _ in range(min(_workers(), n_tasks) - 1)]
    for t in threads:
        t.start()
    try:
        work()
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results


def _block_map(n_paths: int, seed: int, workspace: Callable[[int], SimpleNamespace], fill) -> list:
    """[fill(ws, n, first_path) for each block of n <= MAP_ROWS paths], in path order (_ordered_map).

    ws.normals[j] holds the stream (seed, first_path + j).  Each worker has
    its own ws = workspace(MAP_ROWS) and its own re-keyed Philox.
    """
    rows = MAP_ROWS
    starts = range(0, n_paths, rows)

    def task(state, b):
        ws, stream = state
        start = starts[b]
        n = min(rows, n_paths - start)
        _draw_normals(stream, seed, start, ws.normals[:n])
        return fill(ws, n, start)

    return _ordered_map(len(starts), lambda: (workspace(min(rows, n_paths)), episode_streams()), task)


def _terminal_layout(n_paths: int) -> list[int]:
    """The first path of each block of a terminal sampler, then n_paths.

    Up to TERMINAL_BLOCKS blocks of at least TERMINAL_ROWS paths each (so
    one block below 2 TERMINAL_ROWS paths), whose sizes differ by at most
    one.  The layout depends on n_paths alone, never on the CPUs.
    """
    blocks = min(TERMINAL_BLOCKS, max(1, n_paths // TERMINAL_ROWS))
    return [b * n_paths // blocks for b in range(blocks + 1)]


def _terminal_walk(start: float, K: int, shift: float, scale: float, step, floor: float, n_paths: int,
                   seed: int) -> np.ndarray:
    """n_paths walks of K steps x' = max(step(x, shift + scale z), floor) from start, in O(n_paths) memory.

    Block b of _terminal_layout(n_paths) draws the stream (seed, b), one
    normal z a path a step; the blocks go to the workers of _ordered_map,
    each with one buffer of a block's width.
    """
    x = np.full(n_paths, float(start))
    bounds = _terminal_layout(n_paths)
    width = max(np.diff(bounds))

    def task(state, b):
        stream, buf = state
        x_b, z = x[bounds[b]: bounds[b + 1]], buf[: bounds[b + 1] - bounds[b]]
        gen = stream(seed, b)
        for _ in range(K):
            gen.standard_normal(out=z)
            z *= scale
            z += shift
            step(x_b, z, out=x_b)
            np.maximum(x_b, floor, out=x_b)

    _ordered_map(len(bounds) - 1, lambda: (episode_streams(), np.empty(width)), task)
    return x


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


def _increments(m: SimpleNamespace, mean_coef: np.ndarray, cov_chol: np.ndarray, ws: SimpleNamespace, n: int) -> int:
    """Fill a block's relative actions ws.u[:, :n] and its steps ws.x[:n]; return its clamp count.

    Row r reads ws.normals[r], (K, d+1): per step d action normals z_k and one
    normal xi_k, for u_k = mean_coef + cov_chol z_k, scaled onto ACTION_CAP where
    |u_k| is over it, and X_k = (u_k'mu - v_k/2) dt + sqrt(v_k dt) xi_k (_market).
    Contractions over d are explicit sums, so an element's rounding does not
    depend on the block's shape.  A non-finite u_k or X_k is left to the caller.
    """
    d, cap = m.d, ACTION_CAP
    normals = ws.normals[:n]
    u, x, unorm, t, w = ws.u[:, :n], ws.x[:n], ws.unorm[:n], ws.t[:n], ws.w[:n]

    def dot(coef, planes, out):  # out = sum_j coef[j] planes[j]
        np.multiply(planes[0], coef[0], out=out)
        for j in range(1, d):
            out += np.multiply(planes[j], coef[j], out=w)

    z = [normals[..., j] for j in range(d)]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(d):
            dot(cov_chol[i], z, u[i])
            u[i] += mean_coef[i]
        dot(u, u, unorm)
        clamps = 0
        if not math.sqrt(unorm.max()) <= cap:   # some |u_k| is over the cap, or its square overflowed
            over = ~(np.sqrt(unorm, out=unorm) <= cap)
            uo = u[:, over]
            top = np.abs(uo).max(axis=0)
            norm = top * np.sqrt(np.square(uo / top).sum(axis=0))   # |u_k|, scaled by max_i |u_i| against overflow
            u[:, over] = uo * np.fmin(cap / norm, 1.0)        # a nan norm leaves its u_k as it is
            clamps = int(np.count_nonzero(norm > cap))
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
    return clamps


def _paths(y0: float, ws: SimpleNamespace, states: np.ndarray, local: np.ndarray, actions: np.ndarray) -> None:
    """Fill a block's states, local time and actions from y0, its steps ws.x and its u_k: a_k = (1+y_k) u_k."""
    n = len(states)
    u, t = ws.u[:, :n], ws.t[:n]
    states[:, 0] = y0
    local[:, 0] = 0.0
    _reflect(ws.x[:n], states, local, ws)
    np.add(states[:, :-1], 1.0, out=t)
    for i in range(len(u)):
        np.multiply(t, u[i], out=actions[:, :, i])


def _check_finite(a: np.ndarray, first_path: int) -> None:
    """Raise NonFinite naming a's first row with a non-finite value, as path first_path + row, and its first bad step.

    The rows are paths in order, so the message does not depend on how a run's paths are split into blocks.
    A sum is finite only if every term is, so the mask is built only when a value may be bad.
    """
    if not math.isfinite(a.sum()):
        bad = ~np.isfinite(a)
        if bad.any():
            i = int(np.argmax(bad.any(axis=1)))
            raise NonFinite(f"path {first_path + i}, step {int(np.argmax(bad[i]))}: non-finite state proposal")


def _check_start(y0: float) -> None:
    if y0 < 0.0:
        raise ValueError(f"y0 must be >= 0, got {y0}")


def _policy_args(params: ModelParams, mean_coef, cov_chol, dt: float):
    """(market, mean_coef, cov_chol) of a kernel run."""
    d = params.d
    return (_market(params, dt), np.asarray(mean_coef, dtype=float).reshape(d),
            np.asarray(cov_chol, dtype=float).reshape(d, d))


def rollout_linear_gaussian(params: ModelParams, mean_coef: np.ndarray, cov_chol: np.ndarray, y0: float, n_steps: int,
                            dt: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One episode of n_steps of a state-linear Gaussian policy: its (states, actions, local time).

    Draws the episode's normals from rng in one block of shape (K, d+1) and
    runs the kernel of simulate_linear_gaussian_batch, so the result is
    bit-identical to the batch's row on the same stream.  The batch counts
    the clamps.
    """
    _check_start(y0)
    m, mean_coef, cov_chol = _policy_args(params, mean_coef, cov_chol, dt)
    ws = _workspace(1, n_steps, params.d)
    states, local, actions = np.empty((1, n_steps + 1)), np.empty((1, n_steps + 1)), np.empty((1, n_steps, params.d))
    rng.standard_normal(out=ws.normals[0])
    _increments(m, mean_coef, cov_chol, ws, 1)
    _paths(y0, ws, states, local, actions)
    _check_finite(states[:, 1:], 0)
    return states[0], actions[0], local[0]


def increment_blocks(params: ModelParams, mean_coef: np.ndarray, cov_chol: np.ndarray, n_paths: int, T: float,
                     dt: float, seed: int) -> Callable[..., list]:
    """The (u_k, X_k) of the rows of simulate_linear_gaussian_batch, as a block map that runs when it is called.

    blocks(reduce, scratch=None) returns [reduce(block, s) for each
    IncrementBlock of at most MAP_ROWS paths], in path order: reduce runs on
    the worker that drew the block (_block_map), and s = scratch(ws) is made
    once per worker from its kernel workspace ws (None without scratch).  A
    block's arrays are the kernel's own u and X in ws, which the worker's
    next block overwrites; the reflection map never runs.  A NonFinite names
    the first path with a non-finite X_k, and its first such step.  The
    paths' start y_0 enters no (u_k, X_k), so the map takes none.
    """
    m, mean_coef, cov_chol = _policy_args(params, mean_coef, cov_chol, dt)
    times = _grid(T, dt)
    K, d = len(times) - 1, params.d

    def blocks(reduce, scratch=None) -> list:
        def workspace(rows):
            ws = _workspace(rows, K, d)
            ws.scratch = None if scratch is None else scratch(ws)
            return ws

        def fill(ws, n, first_path):
            clamp_events = _increments(m, mean_coef, cov_chol, ws, n)
            _check_finite(ws.x[:n], first_path)
            return reduce(IncrementBlock(times, ws.u[:, :n], ws.x[:n], clamp_events), ws.scratch)

        return _block_map(n_paths, seed, workspace, fill)

    return blocks


def simulate_linear_gaussian_batch(
    params: ModelParams,
    mean_coef: np.ndarray,
    cov_chol: np.ndarray,
    n_paths: int,
    y0: float,
    T: float,
    dt: float,
    seed: int,
) -> BatchPaths:
    """Simulate many episodes of a state-linear Gaussian policy at once.

    The policy draws a ~ N(mean_coef (1+y), (1+y)^2 cov_chol cov_chol'),
    which covers both the explicit optimal policy and every parameterized
    policy used by the learner.  One Philox stream per episode keeps the
    result bit-identical to sequential generation path by path; each worker
    of the block map writes its blocks' rows of the output.
    """
    _check_start(y0)
    m, mean_coef, cov_chol = _policy_args(params, mean_coef, cov_chol, dt)
    times = _grid(T, dt)
    K, d = len(times) - 1, params.d
    states, local, actions = np.empty((n_paths, K + 1)), np.empty((n_paths, K + 1)), np.empty((n_paths, K, d))

    def fill(ws, n, first_path):
        rows = slice(first_path, first_path + n)
        clamp_events = _increments(m, mean_coef, cov_chol, ws, n)
        _paths(y0, ws, states[rows], local[rows], actions[rows])
        _check_finite(states[rows, 1:], first_path)
        return clamp_events

    clamps = _block_map(n_paths, seed, lambda rows: _workspace(rows, K, d), fill)
    return BatchPaths(times, states, actions, local, sum(clamps))


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
    _check_start(y0)
    b, s = aggregated_coefficients(params, gamma)
    drift, scale = (b - 0.5 * s * s) * dt, s * math.sqrt(dt)
    times = _grid(T, dt)
    K = len(times) - 1
    states, local = np.empty((n_paths, K + 1)), np.empty((n_paths, K + 1))

    def fill(ws, n, first_path):
        rows = slice(first_path, first_path + n)
        x = ws.x[:n]
        np.multiply(ws.normals[:n, :, 0], scale, out=x)
        x += drift
        states[rows, 0] = y0
        local[rows, 0] = 0.0
        _reflect(x, states[rows], local[rows], ws)

    _block_map(n_paths, seed, lambda rows: _workspace(rows, K, 0), fill)
    return BatchPaths(times, states, np.empty((n_paths, K, 0)), local)


def aggregated_terminal_sample(
    params: ModelParams,
    gamma: float,
    y0: float,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Terminal values Y_T >= 0 of the projection Euler scheme of the aggregated dynamics, in O(n_paths) memory.

    The scheme steps y to max(y + b (1+y) dt + s (1+y) sqrt(dt) z, 0), that
    is g = 1 + y to max(g (1 + b dt + s sqrt(dt) z), 1): the multiplicative
    walk of _terminal_walk from 1 + y0, whose g - 1 is returned.
    """
    _check_start(y0)
    b, s = aggregated_coefficients(params, gamma)
    return _terminal_walk(1.0 + y0, grid_steps(T, dt), 1.0 + b * dt, s * math.sqrt(dt), np.multiply, 1.0, n_paths,
                          seed) - 1.0


def skorokhod_terminal_sample(
    params: ModelParams,
    gamma: float,
    h0: float,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> np.ndarray:
    """Terminal log-states H_T >= 0 of the Skorokhod map on the grid, in O(n_paths) memory.

    Lindley's recursion H' = max(H + X_k, 0) on the exact steps
    X_k = mu_hat dt + s sqrt(dt) z_k of H = ln(1 + Y), mu_hat = b - s^2/2:
    the additive walk of _terminal_walk from h0.
    """
    if h0 < 0.0:
        raise ValueError(f"h0 must be >= 0, got {h0}")
    b, s = aggregated_coefficients(params, gamma)
    return _terminal_walk(h0, grid_steps(T, dt), (b - 0.5 * s * s) * dt, s * math.sqrt(dt), np.add, 0.0, n_paths,
                          seed)


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
