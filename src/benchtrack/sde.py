"""Reflected-diffusion environment simulator with local-time accounting.

The normalized surplus follows, between reflections,

    dY = -sigma_z (Y + 1) dWk + a' mu dt + a' sigma dW ,

where ``a`` is the (possibly random) action, ``W`` the d-dimensional asset
driver and ``Wk`` the composite benchmark driver correlated with ``W``
through ``kappa`` and ``eta``.  All drivers are simulated as standard
Brownian increments under the benchmark-normalized pricing measure, which
is the measure every value function and martingale statistic in this
package is stated under.  Reflection at 0 uses the projection Euler scheme:
the overshoot below 0 is credited to the non-decreasing local-time process
``L`` and the state is clamped to 0.

The composite is Wk = kappa W0 + sqrt(1 - kappa^2) eta_hat' W with W0
independent of W and eta_hat = eta / |eta|, so Wk is itself a standard
Brownian motion.

Under a state-linear Gaussian policy, a = (1+Y) u with u free of Y, and
under the aggregated dynamics, a step is y' = max(y + (1+y) c_k, 0) with c_k
free of y.  In H = ln(1+y) that is Lindley's recursion
H' = max(H + log1p(c_k), 0), the discrete Skorokhod map, which a cumulative
sum and a running maximum solve with no loop over steps.  A clamp at the
action cap depends on y, so it is found after the fact and the path is
replayed from the clamped step.  All three path samplers (policy, aggregated
and Skorokhod) return a BatchPaths built in blocks of a few paths; row i
draws the Philox stream (seed, i), so it equals a lone path on that stream.
One generator (_blocks) yields the blocks over one set of reused buffers;
the samplers copy them into their batch, and linear_gaussian_blocks hands
them to a consumer that keeps only what it reduces them to.

The same map in continuous time gives an independent oracle for the
policy-averaged dynamics: for H = ln(1 + Y),

    H_t = h0 + mu_hat t + sigma_hat B_t + K_t ,
    K_t = max(0, -h0 + max_{s<=t} (-mu_hat s - sigma_hat B_s)) ,

which involves no Euler stepping of the reflection and is used to validate
the projection scheme distributionally.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator

import numpy as np

from .model import ModelParams, derived_constants

__all__ = [
    "NonFinite",
    "InvalidVariance",
    "EpisodePath",
    "BatchPaths",
    "episode_rng",
    "grid_steps",
    "Environment",
    "rollout_linear_gaussian",
    "linear_gaussian_blocks",
    "simulate_linear_gaussian_batch",
    "aggregated_coefficients",
    "simulate_aggregated",
    "aggregated_terminal_sample",
    "skorokhod_paths",
    "skorokhod_terminal_sample",
    "export_paths_csv",
]

DEFAULT_ACTION_CAP = 1e6
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
    batches of episodes can be generated in any order or in parallel.
    """
    return np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, episode_index]))


def _eta_unit(params: ModelParams) -> np.ndarray:
    n = float(np.linalg.norm(params.eta))
    if n == 0.0:
        # uncorrelated limit: the eta-channel never enters (kappa carries it)
        return np.zeros_like(params.eta)
    return params.eta / n


@dataclass(frozen=True)
class EpisodePath:
    """A discretized reflected trajectory on a uniform grid.

    states[k] >= 0 everywhere; local_time is cumulative, non-decreasing and
    increases only at steps whose post-step state sits exactly at 0.
    """

    times: np.ndarray       # (K+1,)
    states: np.ndarray      # (K+1,)
    actions: np.ndarray     # (K, d)
    local_time: np.ndarray  # (K+1,), L_0 = 0


@dataclass
class Environment:
    """The market, step and action cap that rollout_linear_gaussian simulates.

    clamp_events is a running total of the action clamps of every rollout
    on this environment.
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
                           dL=e(K), t=e(K), w=e(K), x=e(K + 1), h=e(K + 1), push=e(K + 1),
                           reflect=np.empty((rows, K), dtype=bool))


def _blocks(times: np.ndarray, d: int, n_paths: int, seed: int, fill) -> Iterator[BatchPaths]:
    """n_paths rows on `times`, written by fill(ws, states, actions, local, first_path) per block.

    Row j of ws.normals holds the stream (seed, first_path + j); fill returns the block's clamp count.
    Every block is a view of the same buffers, so the next block overwrites it.
    """
    K = len(times) - 1
    rows = min(n_paths, BLOCK_ROWS)
    ws = _workspace(rows, K, d)
    states, local, actions = np.empty((rows, K + 1)), np.empty((rows, K + 1)), np.empty((rows, K, d))
    for start in range(0, n_paths, BLOCK_ROWS):
        n = min(BLOCK_ROWS, n_paths - start)
        for j in range(n):
            episode_rng(seed, start + j).standard_normal(out=ws.normals[j])
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


def _reflect(c: np.ndarray, states: np.ndarray, dL: np.ndarray, ws: SimpleNamespace) -> None:
    """Fill states[:, 1:] and dL for y' = max(y + (1+y) c_k, 0) from states[:, 0], per row.

    With S the partial sums of log1p(c), H = S + max_{j<=k} max(-S_j, 0).  The
    push grows exactly on the reflecting steps; there it equals -S, so H and y
    are exactly 0.  A step with 1 + c_k <= 0 reflects whatever the state (its
    log1p is -inf or nan), so its row restarts there.
    """
    for r, k in [(slice(None), -1), *zip(*np.nonzero(c <= -1.0))]:
        if k >= 0:
            y = states[r, k]
            dL[r, k] = -(y + (1.0 + y) * c[r, k])
            states[r, k + 1] = 0.0
            r = slice(r, r + 1)
        cs, ys, dls = c[r, k + 1 :], states[r, k + 1 :], dL[r, k + 1 :]
        n, m = cs.shape
        x, h, push = ws.x[:n, : m + 1], ws.h[:n, : m + 1], ws.push[:n, : m + 1]
        t, reflect = ws.t[:n, :m], ws.reflect[:n, :m]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.log1p(ys[:, 0], out=x[:, 0])
            np.log1p(cs, out=x[:, 1:])
            np.cumsum(x, axis=1, out=h)
            np.maximum(np.negative(h, out=x), 0.0, out=x)
            np.maximum.accumulate(x, axis=1, out=push)
            h += push
            np.expm1(h[:, 1:], out=ys[:, 1:])
            np.greater(push[:, 1:], push[:, :-1], out=reflect)
            # dL = max(-(y + (1+y) c), 0) on the reflecting steps, else 0
            np.add(ys[:, :-1], 1.0, out=t)
            t *= cs
            t += ys[:, :-1]
            np.maximum(np.negative(t, out=t), 0.0, out=t)
            dls[...] = 0.0
            np.copyto(dls, t, where=reflect)


def _linear_gaussian_paths(
    params: ModelParams, dt: float, mean_coef: np.ndarray, cov_chol: np.ndarray, y0: float,
    action_cap: float, ws: SimpleNamespace, states: np.ndarray, actions: np.ndarray, local: np.ndarray,
    first_path: int = 0,
) -> int:
    """Fill the states, actions and local time of a block of policy paths; return its clamp count.

    The block's n rows read ws.normals[:n], (n, K, 2d+1): per step d action
    normals, the benchmark's own normal and d asset normals.  Contractions
    over d are explicit sums, so an element's rounding does not depend on the
    block's shape.
    """
    n, d = len(states), params.d
    mean_coef = np.asarray(mean_coef, dtype=float).reshape(d)
    cov_chol = np.asarray(cov_chol, dtype=float).reshape(d, d)
    normals = ws.normals[:n]
    z, g0, g = normals[..., :d], normals[..., d], normals[..., d + 1 :]
    u, c, base, drive, unorm, dL, t, w = (a[:n] for a in (ws.u, ws.c, ws.base, ws.drive, ws.unorm, ws.dL, ws.t, ws.w))
    sqdt = math.sqrt(dt)

    def dot(coef, v, out):  # sum_j coef[j] v[..., j], summed from 0 like the builtin sum
        out[...] = 0.0
        for j in range(d):
            out += np.multiply(v[..., j], coef[j], out=w)

    dot(_eta_unit(params), g, t)
    np.multiply(g0, params.kappa, out=base)
    base += np.multiply(t, math.sqrt(1.0 - params.kappa**2), out=t)
    base *= -params.sigma_z * sqdt
    drive[...] = unorm[...] = 0.0
    for i in range(d):
        dot(cov_chol[i], z, u[..., i])
        u[..., i] += mean_coef[i]
        dot(params.sigma[i], g, t)
        t *= sqdt
        t += params.mu[i] * dt
        drive += np.multiply(t, u[..., i], out=t)
        unorm += np.square(u[..., i], out=w)
    np.sqrt(unorm, out=unorm)
    np.add(base, drive, out=c)
    states[:, 0] = y0
    _reflect(c, states, dL, ws)

    # A clamp scales the action by cap / |(1+y_k) u_k|, which depends on y_k.
    # The first clamp of a row is found after the fact; that step is redone
    # with its clamped c_k and the row replayed from there, until no new clamp.
    clamped = np.zeros(c.shape, dtype=bool)
    over = np.multiply(np.add(states[:, :-1], 1.0, out=t), unorm, out=w) > action_cap
    for r in np.flatnonzero(over.any(axis=1)):
        k = int(np.argmax(over[r]))
        while k >= 0:
            clamped[r, k] = True
            c[r, k] = base[r, k] + action_cap / ((1.0 + states[r, k]) * unorm[r, k]) * drive[r, k]
            _reflect(c[r : r + 1, k:], states[r : r + 1, k:], dL[r : r + 1, k:], ws)
            later = np.flatnonzero((1.0 + states[r, k + 1 : -1]) * unorm[r, k + 1 :] > action_cap)
            k = k + 1 + int(later[0]) if later.size else -1

    bad = ~(np.isfinite(c) & np.isfinite(states[:, 1:]) & np.isfinite(dL))
    if bad.any():
        k = int(np.argmax(bad.any(axis=0)))
        raise NonFinite(f"path {first_path + int(np.argmax(bad[:, k]))}, step {k}: non-finite state proposal")
    np.multiply(np.add(states[:, :-1], 1.0, out=t)[..., None], u, out=actions)
    actions[clamped] = u[clamped] * (action_cap / unorm[clamped])[:, None]
    local[:, 0] = 0.0
    np.cumsum(dL, axis=1, out=local[:, 1:])
    return int(np.count_nonzero(clamped))


def rollout_linear_gaussian(
    env: Environment,
    mean_coef: np.ndarray,
    cov_chol: np.ndarray,
    y0: float,
    n_steps: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Single fast episode of a state-linear Gaussian policy.

    Draws the episode's normals in one block of shape (K, 2d+1) and runs
    the same kernel as simulate_linear_gaussian_batch, so the result is
    bit-identical to the corresponding row of a batch under the same stream.
    """
    if y0 < 0.0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    d = env.params.d
    ws = _workspace(1, n_steps, d)
    rng.standard_normal(out=ws.normals[0])
    states, actions, local = np.empty(n_steps + 1), np.empty((n_steps, d)), np.empty(n_steps + 1)
    env.clamp_events += _linear_gaussian_paths(
        env.params, env.dt, mean_coef, cov_chol, y0, env.action_cap, ws, states[None], actions[None], local[None]
    )
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
    fill = functools.partial(_linear_gaussian_paths, params, dt, mean_coef, cov_chol, y0, action_cap)
    return _blocks(_grid(T, dt), params.d, n_paths, seed, fill)


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
    """Projection-Euler paths of the one-factor aggregated dynamics, c_k = b dt + s sqrt(dt) z_k."""
    if y0 < 0.0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    b, s = aggregated_coefficients(params, gamma)
    scale = s * math.sqrt(dt)

    def fill(ws, states, actions, local, first_path):
        n = len(states)
        c, dL = ws.c[:n], ws.dL[:n]
        np.multiply(ws.normals[:n, :, 0], scale, out=c)
        c += b * dt
        states[:, 0] = y0
        _reflect(c, states, dL, ws)
        local[:, 0] = 0.0
        np.cumsum(dL, axis=1, out=local[:, 1:])
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


def skorokhod_paths(
    params: ModelParams,
    gamma: float,
    h0: float,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> BatchPaths:
    """Explicit running-max construction of the reflected log-state H = ln(1 + Y).

    H_t = h0 + mu_hat t + sigma_hat B_t + K_t, with K given by the closed
    Skorokhod formula; no Euler discretization of the reflection enters, so
    this doubles as an oracle for the projection scheme.  Rows hold
    states = expm1(H) and local_time = K, the push of H (not Y's local time).
    """
    if h0 < 0.0:
        raise ValueError(f"h0 must be >= 0, got {h0}")
    b, s = aggregated_coefficients(params, gamma)
    mu_hat = b - 0.5 * s * s
    times = _grid(T, dt)
    sqdt = math.sqrt(dt)
    drift, neg_drift = h0 + mu_hat * times, -mu_hat * times

    def fill(ws, states, actions, local, first_path):
        # free = -mu_hat t - s B;  K = max(0, running max of max(free, 0) - h0);  H = h0 + mu_hat t + s B + K
        n = len(states)
        bpath, free, running_max = ws.x[:n], ws.h[:n], ws.push[:n]
        bpath[:, 0] = 0.0
        np.cumsum(np.multiply(ws.normals[:n, :, 0], sqdt, out=ws.c[:n]), axis=1, out=bpath[:, 1:])
        np.subtract(neg_drift, np.multiply(bpath, s, out=free), out=free)
        np.maximum.accumulate(np.maximum(free, 0.0, out=free), axis=1, out=running_max)
        np.maximum(0.0, np.add(running_max, -h0, out=local), out=local)
        np.add(drift, np.multiply(bpath, s, out=free), out=states)
        states += local
        np.expm1(states, out=states)
        return 0

    return _batch(_blocks(times, 0, n_paths, seed, fill), times, 0, n_paths)


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


def export_paths_csv(paths: BatchPaths, csv_path, meta_path, metadata: dict) -> None:
    """Write paths as (episode, k, t, y, action..., dL, L) rows plus a metadata JSON.

    Row k carries the action taken at step k, so a path's last row has nan actions.
    """
    d = paths.actions.shape[2]
    no_action = np.full((1, d), math.nan)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "k", "t", "y"] + [f"action_{i+1}" for i in range(d)] + ["dL", "L"])
        for i, local in enumerate(paths.local_time):
            rows = np.column_stack([
                paths.times, paths.states[i], np.vstack([paths.actions[i], no_action]),
                np.diff(local, prepend=0.0), local,
            ]).tolist()
            writer.writerows([i, k, *row] for k, row in enumerate(rows))
    with open(meta_path, "w") as fh:
        json.dump(metadata, fh, indent=2, default=str)
