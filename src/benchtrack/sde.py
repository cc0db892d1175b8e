"""Reflected-diffusion environment simulator with local-time accounting.

The normalized surplus follows, between reflections,

    dY = -sigma_z (Y + 1) dWk + a' mu dt + a' sigma dW ,

where ``a`` is the (possibly random) action, ``W`` the d-dimensional asset
driver and ``Wk`` the composite benchmark driver correlated with ``W``
through ``kappa`` and ``eta``.  All drivers are simulated as standard
Brownian increments under the benchmark-normalized pricing measure, which
is the measure every value function and martingale statistic in this
package is stated under.

The composite is Wk = kappa W0 + sqrt(1 - kappa^2) eta_hat' W with W0
independent of W and eta_hat = eta / |eta|, so Wk is itself a standard
Brownian motion.

Under a state-linear Gaussian policy, a = (1+Y) u with u free of Y.  Holding
u_k over a step makes H = ln(1+Y) a Brownian motion with drift until it
reflects, so its step is exact: X_k = c_k - v_k dt / 2, with c_k the step's
relative increment u'mu dt + (sigma'u - sigma_z sqrt(1-kappa^2) eta_hat)'dW
- sigma_z kappa dW0 and v_k = |sigma'u - sigma_z sqrt(1-kappa^2) eta_hat|^2
+ sigma_z^2 kappa^2 its variance rate.  The aggregated dynamics step H by
X_k = (b - s^2/2) dt + s sqrt(dt) z_k.  Reflection at 0 is Lindley's
recursion H' = max(H + X_k, 0), the discrete Skorokhod map, which a
cumulative sum and a running maximum of the push solve with no loop over
steps; the local time L is the push itself (Y's local time, since 1 + Y = 1
where it grows), so H and y are exactly 0 on the steps where L grows and
diff(L) is the push's increment.  A clamp at the action cap depends on y, so
it is found after the fact: that step's c_k and v_k are recomputed for the
clamped u and the path is replayed from there, its push added to L_k.
Both path samplers (policy and aggregated) return a BatchPaths built in
blocks of a few paths; row i draws the Philox stream (seed, i), so it equals
a lone path on that stream.  One generator (_blocks) yields the blocks over
one set of reused buffers; the samplers copy them into their batch, and
linear_gaussian_blocks hands them to a consumer that keeps only what it
reduces them to.  A run pays its setup once: one re-keyed Philox serves
every stream (episode_streams), and its blocks share one workspace.
qlearn.train runs the kernel on its own blocks of episodes, one policy per
block; rollout_linear_gaussian runs it on a single path.

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
    "EpisodePath",
    "BatchPaths",
    "episode_rng",
    "episode_streams",
    "grid_steps",
    "Environment",
    "rollout_workspace",
    "rollout_linear_gaussian",
    "linear_gaussian_blocks",
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
    """The per-step constants of the policy kernel, computed once per run."""
    sqdt, eta_hat, root = math.sqrt(dt), _eta_unit(params), math.sqrt(1.0 - params.kappa**2)
    return SimpleNamespace(
        d=params.d, eta_hat=eta_hat, kappa=params.kappa, root=root, noise=-params.sigma_z * sqdt, sqdt=sqdt,
        sigma=params.sigma, mu_dt=[m * dt for m in params.mu.tolist()], half_dt=0.5 * dt,
        # v = |sigma'u - bench|^2 + own: the benchmark's loading on the asset normals and its own variance
        bench=params.sigma_z * root * eta_hat, own=(params.sigma_z * params.kappa) ** 2,
    )


@dataclass(frozen=True)
class EpisodePath:
    """A discretized reflected trajectory on a uniform grid.

    states[k] >= 0 everywhere; local_time is the push of ln(1 + y) at 0 from
    L_0 = 0.0, non-decreasing, and increases only at steps whose post-step
    state sits exactly at 0.
    """

    times: np.ndarray       # (K+1,)
    states: np.ndarray      # (K+1,)
    actions: np.ndarray     # (K, d)
    local_time: np.ndarray  # (K+1,), L_0 = 0


@dataclass
class Environment:
    """The market, step and action cap that rollout_linear_gaussian and qlearn.train simulate.

    clamp_events is a running total of the action clamps of every rollout
    and training run on this environment.
    """

    params: ModelParams
    dt: float
    action_cap: float = DEFAULT_ACTION_CAP
    clamp_events: int = 0


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
    """Vectorized stack of episodes sharing one grid (rows = episodes)."""

    times: np.ndarray       # (K+1,)
    states: np.ndarray      # (n, K+1)
    actions: np.ndarray     # (n, K, d); d = 0 for the action-free schemes
    local_time: np.ndarray  # (n, K+1)
    clamp_events: int = 0

    def __iter__(self) -> Iterator[EpisodePath]:
        for states, actions, local in zip(self.states, self.actions, self.local_time):
            yield EpisodePath(times=self.times, states=states, actions=actions, local_time=local)


def _workspace(rows: int, K: int, d: int) -> SimpleNamespace:
    """Scratch arrays for the kernel on up to `rows` paths of K steps.

    A stream of blocks allocates them once.  Fresh temporaries in each
    block would go back to the system when the block ends and be faulted in
    again by the next one, a cost that swings with the machine's load.
    """
    def e(*shape):
        return np.empty((rows, *shape))
    return SimpleNamespace(normals=e(K, 2 * d + 1), u=e(K, d), c=e(K), base=e(K), drive=e(K), unorm=e(K),
                           v=e(K), t=e(K), w=e(K), h=e(K + 1), push=e(K + 1))


def _blocks(times: np.ndarray, d: int, n_paths: int, seed: int, fill) -> Iterator[BatchPaths]:
    """n_paths rows on `times`, written by fill(ws, states, actions, local, first_path) per block.

    Row j of ws.normals holds the stream (seed, first_path + j); fill returns the block's clamp count.
    Every block is a view of the same buffers, so the next block overwrites it.
    """
    K = len(times) - 1
    rows = min(n_paths, BLOCK_ROWS)
    ws = _workspace(rows, K, d)
    stream = episode_streams()
    states, local, actions = np.empty((rows, K + 1)), np.empty((rows, K + 1)), np.empty((rows, K, d))
    for start in range(0, n_paths, BLOCK_ROWS):
        n = min(BLOCK_ROWS, n_paths - start)
        for j in range(n):
            stream(seed, start + j).standard_normal(out=ws.normals[j])
        clamp_events = fill(ws, states[:n], actions[:n], local[:n], start)
        yield BatchPaths(times=times, states=states[:n], actions=actions[:n], local_time=local[:n],
                         clamp_events=clamp_events)


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


def _linear_gaussian_paths(
    m: SimpleNamespace, mean_coef: np.ndarray, cov_chol: np.ndarray, y0: float, action_cap: float,
    ws: SimpleNamespace, states: np.ndarray, actions: np.ndarray, local: np.ndarray,
) -> int:
    """Fill the states, actions and local time of a block of policy paths; return its clamp count.

    m holds the market's constants (_market), mean_coef is (d,) and cov_chol
    (d, d).  The block's n rows read ws.normals[:n], (n, K, 2d+1): per step d
    action normals, the benchmark's own normal and d asset normals.  c
    holds each step's exact increment of ln(1 + y) before reflection,
    X_k = c_k - v_k dt / 2.  Contractions over d are explicit sums, so an
    element's rounding does not depend on the block's shape.  A non-finite
    row is left as it is (the samplers raise on it through _check_finite,
    the trainer rejects its episode), and the other rows are unaffected.
    """
    n, d = len(states), m.d
    normals = ws.normals[:n]
    z, g0, g = normals[..., :d], normals[..., d], normals[..., d + 1 :]
    u, c, base, drive, unorm, v, t, w = (a[:n] for a in (ws.u, ws.c, ws.base, ws.drive, ws.unorm, ws.v, ws.t, ws.w))

    def accumulate(out, x, first):  # out = 0 + x_0 + x_1 + ..., the builtin sum's order (0 + x is x + 0)
        if first:
            np.add(x, 0.0, out=out)
        else:
            out += x

    def dot(coef, v, out):  # sum_j coef[j] v[..., j]
        for j in range(d):
            accumulate(out, np.multiply(v[..., j], coef[j], out=w), j == 0)

    dot(m.eta_hat, g, t)
    np.multiply(g0, m.kappa, out=base)
    base += np.multiply(t, m.root, out=t)
    base *= m.noise
    for i in range(d):
        dot(cov_chol[i], z, u[..., i])
        u[..., i] += mean_coef[i]
        dot(m.sigma[i], g, t)
        t *= m.sqdt
        t += m.mu_dt[i]
        accumulate(drive, np.multiply(t, u[..., i], out=t), i == 0)
        accumulate(unorm, np.square(u[..., i], out=w), i == 0)
    for j in range(d):
        dot(m.sigma[:, j], u, t)
        t -= m.bench[j]
        accumulate(v, np.square(t, out=t), j == 0)
    v += m.own
    v *= m.half_dt
    np.add(base, drive, out=c)
    c -= v
    states[:, 0] = y0
    local[:, 0] = 0.0
    _reflect(c, states, local, ws)

    # A clamp scales the action by cap / |(1+y_k) u_k|, which depends on y_k.
    # The first clamp of a row is found after the fact; that step is redone
    # with its clamped c_k and v_k and the row replayed from there, until no
    # new clamp; a replay adds its push to L_k, so L stays continuous.  The
    # norms and the mask are built only when max(1+y) max|u|, which bounds
    # every (1+y_k)|u_k| (nan if any is nan), is not at or below the cap.
    clamped = None
    np.add(states[:, :-1], 1.0, out=t)
    if not t.max() * math.sqrt(unorm.max()) <= action_cap:
        np.sqrt(unorm, out=unorm)
        over = np.multiply(t, unorm, out=w) > action_cap
        clamped = np.zeros(c.shape, dtype=bool)
        for r in np.flatnonzero(over.any(axis=1)):
            k = int(np.argmax(over[r]))
            while k >= 0:
                clamped[r, k] = True
                f = action_cap / ((1.0 + states[r, k]) * unorm[r, k])
                e = (f * u[r, k]) @ m.sigma - m.bench
                c[r, k] = base[r, k] + f * drive[r, k] - (e @ e + m.own) * m.half_dt
                _reflect(c[r : r + 1, k:], states[r : r + 1, k:], local[r : r + 1, k:], ws)
                later = np.flatnonzero((1.0 + states[r, k + 1 : -1]) * unorm[r, k + 1 :] > action_cap)
                k = k + 1 + int(later[0]) if later.size else -1
        np.add(states[:, :-1], 1.0, out=t)   # the replays used t as scratch

    np.multiply(t[..., None], u, out=actions)
    if clamped is None:
        return 0
    actions[clamped] = u[clamped] * (action_cap / unorm[clamped])[:, None]
    return int(np.count_nonzero(clamped))


def _check_finite(states: np.ndarray, local: np.ndarray, first_path: int) -> None:
    """Raise NonFinite naming the first non-finite step of a block, its path counted from first_path.

    A non-finite c_k makes y_{k+1} or L_{k+1} non-finite.  A sum is finite
    only if every term is, so the mask is built only when a value may be bad.
    """
    if not math.isfinite(states[:, 1:].sum() + local[:, 1:].sum()):
        bad = ~(np.isfinite(states[:, 1:]) & np.isfinite(local[:, 1:]))
        if bad.any():
            k = int(np.argmax(bad.any(axis=0)))
            raise NonFinite(f"path {first_path + int(np.argmax(bad[:, k]))}, step {k}: non-finite state proposal")


def rollout_workspace(env: Environment, n_steps: int) -> SimpleNamespace:
    """Buffers and market constants that rollouts of n_steps on env can share across a run.

    A rollout returns fresh arrays, so its result stays valid after the
    next rollout on the same workspace.
    """
    ws = _workspace(1, n_steps, env.params.d)
    ws.params, ws.dt, ws.market = env.params, env.dt, _market(env.params, env.dt)
    return ws


def rollout_linear_gaussian(
    env: Environment,
    mean_coef: np.ndarray,
    cov_chol: np.ndarray,
    y0: float,
    n_steps: int,
    rng: np.random.Generator,
    *,
    workspace: SimpleNamespace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single fast episode of a state-linear Gaussian policy.

    Draws the episode's normals in one block of shape (K, 2d+1) and runs
    the same kernel as simulate_linear_gaussian_batch, so the result is
    bit-identical to the corresponding row of a batch under the same stream.
    workspace, from rollout_workspace(env, n_steps), saves building the
    buffers and constants on every call.
    """
    if y0 < 0.0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    d = env.params.d
    if workspace is None:
        workspace = rollout_workspace(env, n_steps)
    elif workspace.params is not env.params or workspace.dt != env.dt or workspace.c.shape[1] != n_steps:
        raise ValueError("the workspace was built for another environment or step count")
    rng.standard_normal(out=workspace.normals[0])
    states, actions, local = np.empty(n_steps + 1), np.empty((n_steps, d)), np.empty(n_steps + 1)
    env.clamp_events += _linear_gaussian_paths(
        workspace.market, np.asarray(mean_coef, dtype=float).reshape(d),
        np.asarray(cov_chol, dtype=float).reshape(d, d), y0, env.action_cap, workspace,
        states[None], actions[None], local[None],
    )
    _check_finite(states[None], local[None], 0)
    return states, actions, local


def linear_gaussian_blocks(
    params: ModelParams,
    mean_coef: np.ndarray,
    cov_chol: np.ndarray,
    n_paths: int,
    y0: float,
    T: float,
    dt: float,
    seed: int,
    action_cap: float = DEFAULT_ACTION_CAP,
) -> Iterator[BatchPaths]:
    """The rows of simulate_linear_gaussian_batch, streamed in blocks of at most BLOCK_ROWS paths.

    Memory stays at one block whatever n_paths is.  A block's arrays are
    overwritten by the next block, so read them before asking for it; a
    NonFinite names the path by its index in the whole run.
    """
    if y0 < 0.0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    d = params.d
    mean_coef = np.asarray(mean_coef, dtype=float).reshape(d)
    cov_chol = np.asarray(cov_chol, dtype=float).reshape(d, d)
    m = _market(params, dt)

    def fill(ws, states, actions, local, first_path):
        clamp_events = _linear_gaussian_paths(m, mean_coef, cov_chol, y0, action_cap, ws, states, actions, local)
        _check_finite(states, local, first_path)
        return clamp_events

    return _blocks(_grid(T, dt), d, n_paths, seed, fill)


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
    blocks = linear_gaussian_blocks(params, mean_coef, cov_chol, n_paths, y0, T, dt, seed, action_cap)
    return _batch(blocks, _grid(T, dt), params.d, n_paths)


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

    def fill(ws, states, actions, local, first_path):
        x = ws.c[: len(states)]
        np.multiply(ws.normals[: len(states), :, 0], scale, out=x)
        x += drift
        states[:, 0] = y0
        local[:, 0] = 0.0
        _reflect(x, states, local, ws)
        return 0

    times = _grid(T, dt)
    return _batch(_blocks(times, 0, n_paths, seed, fill), times, 0, n_paths)


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
