"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles (bisection,
finite differences, Gaussian moment identities, brute-force quadrature)
and never calls the code paths it is used to verify.  The `*_loop`
simulators take one step at a time: they advance H = ln(1+y) by its exact
increment X_k (the relative action held over the step) and reflect it by
H' = max(H + X_k, 0), crediting the shortfall to L; they share only the
grid, the random streams and the result types with `sde`.  An `EpisodePath`
is one path, a row of a BatchPaths (`episode_paths`).  The `per_path`
samplers, `skorokhod_log_path` and `export_paths_csv_per_row` are the
package's API from before every sampler returned a BatchPaths: one path per
call and one CSV row per write.  Each batch row and the bulk writer's bytes
must equal theirs exactly.  `orthogonality_rows_loop` is the per-episode
statistics loop from before they were reduced block by block;
`increment_statistics` builds the same sums from a path's relative actions
and exact increments alone.
`run_tracking_loop` and `backtest_csv_per_row` are the backtest from before
it stepped over Python floats and wrote its CSV in one call: numpy scalars
at every bar and one CSV row per write.  `train_loop` is the trainer
one episode at a time: per episode a new generator, a 1-row kernel block of
(u_k, X_k) and a 1-row block of normal-equation sums, with the policy held
for each block of sde.BLOCK_ROWS episodes and refit at its end, as `train`
holds it.  `exact_increment_two_factor` is the policy step as the simulator
drew it before it drew X_k given u_k: from the asset and benchmark normals.
`psi3_policy_steps` writes out the steps of PolicyParams.psi3.  `history_csv_per_row` is the history
writer from before the bulk CSV writer.  `aggregated_terminal_loop` and
`skorokhod_terminal_loop` are the terminal samplers from before they split
their paths into blocks: every path from one stream, one step at a time.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from benchtrack import backtest, qlearn, sde
from benchtrack.model import gibbs_psi3, psi3_consistency


def bisect_root(f, lo: float, hi: float, width: float = 1e-14) -> float:
    """Plain bisection down to the requested bracket width."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0.0, "no sign change on the bracket"
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def central_diff(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def rel_err(approx: float, exact: float, floor: float = 1e-10) -> float:
    return abs(approx - exact) / max(abs(exact), floor)


def gaussian_expect_quadratic(
    psi1: np.ndarray, psi2sq: np.ndarray, mean: np.ndarray, cov: np.ndarray, y: float
) -> float:
    """E[psi1'a/(1+y) - a' psi2sq a / (2(1+y)^2)] for a ~ N(mean, cov)."""
    s = 1.0 + y
    lin = float(psi1 @ mean) / s
    quad = (float(mean @ psi2sq @ mean) + float(np.trace(psi2sq @ cov))) / (2.0 * s * s)
    return lin - quad


def gaussian_entropy(cov: np.ndarray) -> float:
    d = cov.shape[0]
    return 0.5 * (d * math.log(2.0 * math.pi * math.e) + float(np.linalg.slogdet(cov)[1]))


def gaussian_pdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    d = len(mean)
    diff = np.asarray(x, dtype=float) - mean
    quad = float(diff @ np.linalg.solve(cov, diff))
    norm = math.sqrt((2.0 * math.pi) ** d * float(np.linalg.det(cov)))
    return math.exp(-0.5 * quad) / norm


def simulate_gbm(mu: float, sigma: float, s0: float, dt: float, n: int, rng) -> np.ndarray:
    """Exact GBM sampling: S_{k+1} = S_k exp((mu - sigma^2/2) dt + sigma dW)."""
    z = rng.standard_normal(n)
    incr = (mu - 0.5 * sigma**2) * dt + sigma * math.sqrt(dt) * z
    return s0 * np.exp(np.concatenate([[0.0], np.cumsum(incr)]))


def running_sup_injection(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A_t = (z0 - v0)^+ v sup_{s<=t}(Z_s - V_s), computed naively."""
    n = len(z)
    a = np.empty(n)
    a[0] = max(z[0] - v[0], 0.0)
    for i in range(1, n):
        a[i] = max(a[i - 1], z[i] - v[i])
    return a


def _eta_unit(params) -> np.ndarray:
    return params.eta / float(np.linalg.norm(params.eta))


def exact_increment(params, dt: float, u: np.ndarray, xi: np.ndarray):
    """X = (u'mu - v/2) dt + sqrt(v dt) xi, the step of ln(1+y) with the relative action u held over it.

    u is (..., d) and xi (...,) standard normal.  Given u, dY / (1+Y) is
    Gaussian with mean u'mu dt and variance v dt, v = |sigma'u - sigma_z
    sqrt(1-kappa^2) eta_hat|^2 + sigma_z^2 kappa^2, and Ito's correction
    takes v dt / 2 off its logarithm.
    """
    loading = u @ params.sigma - params.sigma_z * math.sqrt(1.0 - params.kappa**2) * _eta_unit(params)
    v = (loading * loading).sum(axis=-1) + (params.sigma_z * params.kappa) ** 2
    return ((u @ params.mu) - 0.5 * v) * dt + np.sqrt(v * dt) * xi


def exact_increment_two_factor(params, dt: float, u: np.ndarray, normals: np.ndarray):
    """X = c - v dt / 2 from the Brownian increments themselves, the simulator's step before it drew X given u.

    u is (..., d) and normals (..., 2d+1): d action normals (unused here),
    the benchmark's own normal and d asset normals.  c is the step's
    dY / (1+Y) and v its variance rate, as in exact_increment.
    """
    d = params.d
    loading = u @ params.sigma - params.sigma_z * math.sqrt(1.0 - params.kappa**2) * _eta_unit(params)
    noise = (loading * normals[..., d + 1 :]).sum(axis=-1) - params.sigma_z * params.kappa * normals[..., d]
    c = (u @ params.mu) * dt + math.sqrt(dt) * noise
    v = (loading * loading).sum(axis=-1) + (params.sigma_z * params.kappa) ** 2
    return c - 0.5 * v * dt


@dataclass(frozen=True)
class EpisodePath:
    """One discretized reflected trajectory on a uniform grid: a row of an sde.BatchPaths."""

    times: np.ndarray       # (K+1,)
    states: np.ndarray      # (K+1,)
    actions: np.ndarray     # (K, d)
    local_time: np.ndarray  # (K+1,), L_0 = 0


def episode_paths(batch: sde.BatchPaths) -> list[EpisodePath]:
    """The rows of a batch, one EpisodePath each."""
    return [EpisodePath(batch.times, states, actions, local)
            for states, actions, local in zip(batch.states, batch.actions, batch.local_time)]


def _lindley_step(H, x):
    """H' = max(H + x, 0) and the push max(-(H + x), 0) that it takes; a nan H + x is kept as H'."""
    h = H + x
    return (0.0, -h) if h < 0.0 else (h, 0.0)


def rollout_linear_gaussian_loop(
    params,
    mean_coef: np.ndarray,
    cov_chol: np.ndarray,
    y0: float,
    n_steps: int,
    dt: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Step-by-step episode of a state-linear Gaussian policy, exact in ln(1+y), and its clamp count.

    The reference for sde.rollout_linear_gaussian: same stream, same draws.  A
    relative action u_k with |u_k| over sde.ACTION_CAP is scaled onto it before
    its X_k is drawn (math.hypot takes the norm without overflow).
    """
    if y0 < 0.0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    d = params.d
    K = n_steps
    normals = rng.standard_normal((K, d + 1))
    mean_coef = np.asarray(mean_coef, dtype=float).reshape(d)
    cov_chol = np.asarray(cov_chol, dtype=float).reshape(d, d)

    states = np.empty(K + 1)
    local = np.empty(K + 1)
    actions = np.empty((K, d))
    states[0] = y0
    local[0] = 0.0
    y, H, L = float(y0), math.log1p(y0), 0.0
    clamps, action_cap = 0, sde.ACTION_CAP
    for k in range(K):
        scale = 1.0 + y
        u = mean_coef + cov_chol @ normals[k, :d]
        norm = math.hypot(*u)
        if norm > action_cap:
            u *= action_cap / norm
            clamps += 1
        H, dL = _lindley_step(H, float(exact_increment(params, dt, u, normals[k, d])))
        y = math.expm1(H)
        if not (math.isfinite(y) and math.isfinite(dL)):
            raise sde.NonFinite(f"step {k}: non-finite state proposal")
        L += dL
        actions[k] = scale * u
        states[k + 1] = y
        local[k + 1] = L
    return states, actions, local, clamps


def simulate_linear_gaussian_batch_loop(
    params,
    mean_coef: np.ndarray,
    cov_chol: np.ndarray,
    n_paths: int,
    y0: float,
    T: float,
    dt: float,
    seed: int,
) -> sde.BatchPaths:
    """Step-by-step batch of a state-linear Gaussian policy, all paths per step, exact in ln(1+y).

    The reference for sde.simulate_linear_gaussian_batch: same streams, and the cap rule of
    rollout_linear_gaussian_loop.  A NonFinite names the first path with a non-finite state,
    and its first such step.
    """
    if y0 < 0.0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    times = sde._grid(T, dt)
    K = len(times) - 1
    d = params.d
    mean_coef = np.asarray(mean_coef, dtype=float).reshape(d)
    cov_chol = np.asarray(cov_chol, dtype=float).reshape(d, d)

    rngs = [sde.episode_rng(seed, i) for i in range(n_paths)]
    # one block per episode, concatenated: (n, K, d+1) standard normals
    normals = np.stack([r.standard_normal((K, d + 1)) for r in rngs])
    z_act = normals[:, :, :d]

    states = np.empty((n_paths, K + 1))
    local = np.empty((n_paths, K + 1))
    actions = np.empty((n_paths, K, d))
    states[:, 0] = y0
    local[:, 0] = 0.0
    clamp_events, action_cap = 0, sde.ACTION_CAP

    y = np.full(n_paths, float(y0))
    H = np.log1p(y)
    first_bad = np.full(n_paths, -1)   # each path's first step with a non-finite state
    for k in range(K):
        scale = 1.0 + y
        with np.errstate(invalid="ignore", over="ignore"):
            u = mean_coef[None, :] + z_act[:, k, :] @ cov_chol.T
            norms = np.hypot.reduce(u, axis=1)   # |u_k| without overflow
            over = norms > action_cap
            if np.any(over):
                u[over] *= (action_cap / norms[over])[:, None]
                clamp_events += int(np.count_nonzero(over))
            h = H + exact_increment(params, dt, u, normals[:, k, d])
            H = np.maximum(h, 0.0)
            dL = np.maximum(-h, 0.0)
            y = np.expm1(H)
            actions[:, k, :] = scale[:, None] * u
            local[:, k + 1] = local[:, k] + dL
        states[:, k + 1] = y
        first_bad[(first_bad < 0) & ~(np.isfinite(y) & np.isfinite(dL))] = k
    if np.any(first_bad >= 0):
        bad = int(np.argmax(first_bad >= 0))
        raise sde.NonFinite(f"path {bad}, step {first_bad[bad]}: non-finite state proposal")
    return sde.BatchPaths(
        times=times,
        states=states,
        actions=actions,
        local_time=local,
        clamp_events=clamp_events,
    )


def simulate_aggregated_loop(
    params,
    gamma: float,
    y0: float,
    T: float,
    dt: float,
    rng: np.random.Generator,
) -> EpisodePath:
    """Step-by-step path of the aggregated dynamics, exact in ln(1+y).

    The reference for sde.simulate_aggregated: same stream.
    """
    if y0 < 0.0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    b, s = sde.aggregated_coefficients(params, gamma)
    times = sde._grid(T, dt)
    K = len(times) - 1
    states = np.empty(K + 1)
    local = np.empty(K + 1)
    states[0] = y0
    local[0] = 0.0
    H = math.log1p(y0)
    sqdt = math.sqrt(dt)
    shocks = rng.standard_normal(K)
    for k in range(K):
        H, dL = _lindley_step(H, (b - 0.5 * s * s) * dt + s * sqdt * shocks[k])
        states[k + 1] = math.expm1(H)
        local[k + 1] = local[k] + dL
    return EpisodePath(times=times, states=states, actions=np.empty((K, 0)), local_time=local)


def simulate_aggregated_per_path(
    params,
    gamma: float,
    y0: float,
    T: float,
    dt: float,
    rng: np.random.Generator,
) -> EpisodePath:
    """Path of the one-factor aggregated dynamics by the reflection map on X_k = (b - s^2/2) dt + s sqrt(dt) z_k."""
    if y0 < 0.0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    b, s = sde.aggregated_coefficients(params, gamma)
    times = sde._grid(T, dt)
    K = len(times) - 1
    x = s * math.sqrt(dt) * rng.standard_normal(K)[None] + (b - 0.5 * s * s) * dt
    states, local = np.full((1, K + 1), float(y0)), np.zeros((1, K + 1))
    sde._reflect(x, states, local, sde._workspace(1, K, 0))
    return EpisodePath(times=times, states=states[0], actions=np.empty((K, 0)), local_time=local[0])


@dataclass(frozen=True)
class LogPath:
    """Skorokhod-map representation of the log-state H = ln(1 + Y)."""

    times: np.ndarray
    h: np.ndarray   # reflected log-state, H >= 0
    k: np.ndarray   # cumulative boundary push (local time of H)
    b: np.ndarray   # the driving Brownian path (B_0 = 0)


def skorokhod_log_path(
    params,
    gamma: float,
    h0: float,
    T: float,
    dt: float,
    rng: np.random.Generator,
) -> LogPath:
    """Explicit running-max construction of the reflected log-state.

    H_t = h0 + mu_hat t + sigma_hat B_t + K_t, with K given by the closed
    Skorokhod formula; no Euler discretization of the reflection enters, so
    this doubles as an oracle for the projection scheme.
    """
    if h0 < 0.0:
        raise ValueError(f"h0 must be >= 0, got {h0}")
    b, s = sde.aggregated_coefficients(params, gamma)
    mu_hat = b - 0.5 * s * s
    times = sde._grid(T, dt)
    K = len(times) - 1
    db = math.sqrt(dt) * rng.standard_normal(K)
    bpath = np.concatenate([[0.0], np.cumsum(db)])
    free = -mu_hat * times - s * bpath
    running_max = np.maximum.accumulate(np.maximum(free, 0.0))
    k = np.maximum(0.0, -h0 + running_max)
    h = h0 + mu_hat * times + s * bpath + k
    return LogPath(times=times, h=h, k=k, b=bpath)


def aggregated_terminal_loop(params, gamma: float, y0: float, T: float, dt: float, n_paths: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Terminal Y_T of n_paths projection Euler paths that all draw from rng, n_paths normals a step.

    The sampler from before it split its paths into blocks: a block of
    sde.aggregated_terminal_sample is this on the block's stream.
    """
    b, s = sde.aggregated_coefficients(params, gamma)
    K = len(sde._grid(T, dt)) - 1
    sqdt = math.sqrt(dt)
    y = np.full(n_paths, float(y0))
    for _ in range(K):
        z = rng.standard_normal(n_paths)
        y = np.maximum(y + b * (1.0 + y) * dt + s * (1.0 + y) * sqdt * z, 0.0)
    return y


def skorokhod_terminal_loop(params, gamma: float, h0: float, T: float, dt: float, n_paths: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Terminal H_T of the Skorokhod construction for n_paths paths that all draw from rng, n_paths normals a step.

    The sampler from before it split its paths into blocks: a block of
    sde.skorokhod_terminal_sample is this on the block's stream.
    """
    b, s = sde.aggregated_coefficients(params, gamma)
    mu_hat = b - 0.5 * s * s
    times = sde._grid(T, dt)
    sqdt = math.sqrt(dt)
    bpath, running_max = np.zeros(n_paths), np.zeros(n_paths)
    for t in times[1:]:
        bpath += sqdt * rng.standard_normal(n_paths)
        running_max = np.maximum(running_max, -mu_hat * t - s * bpath)
    return h0 + mu_hat * T + s * bpath + np.maximum(0.0, -h0 + running_max)


def export_paths_csv_per_row(
    paths: sde.BatchPaths | list[EpisodePath], csv_path, meta_path=None, metadata: dict | None = None
) -> None:
    """Write paths as (episode, k, t, y, action..., dL, L) rows plus a metadata JSON."""
    episodes = paths if isinstance(paths, list) else episode_paths(paths)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        d = 0 if not episodes or episodes[0].actions is None else episodes[0].actions.shape[1]
        header = ["episode", "k", "t", "y"] + [f"action_{i+1}" for i in range(d)] + ["dL", "L"]
        writer.writerow(header)
        for idx, ep in enumerate(episodes):
            dL = np.diff(ep.local_time)
            n_steps = len(ep.times) - 1
            for k in range(n_steps + 1):
                acts = [] if ep.actions is None else (
                    list(ep.actions[k]) if k < n_steps else [math.nan] * d
                )
                writer.writerow(
                    [idx, k, ep.times[k], ep.states[k]]
                    + acts
                    + [dL[k - 1] if k > 0 else 0.0, ep.local_time[k]]
                )
    if meta_path is not None:
        with open(meta_path, "w") as fh:
            json.dump(metadata or {}, fh, indent=2, default=str)


def episode_statistics_loop(pp, rho: float, ep: EpisodePath) -> np.ndarray:
    """One episode's orthogonality sums as a row (xi, psi1, psi2 raveled).

    The package's per-episode statistics from before they were computed per
    block, with q written out in place of qlearn.q_value.
    """
    times, states, actions, local_time = ep.times, ep.states, ep.actions, ep.local_time
    dt = float(times[1] - times[0])
    ys = states[:-1]
    y_next = states[1:]
    dL = np.diff(local_time)
    disc = np.exp(-rho * times[:-1])
    j = np.log1p(ys) + pp.xi
    s = 1.0 + ys
    q = (
        (actions @ pp.psi1) / s
        - np.einsum("...e,...e->...", actions @ pp.psi2_sq, actions) / (2.0 * s * s)
        - rho * np.log1p(ys)
        + pp.psi3
    )
    g = np.log1p(y_next) + pp.xi - j - q * dt - dL - rho * j * dt
    w = disc * g
    stat_xi = float(np.sum(w))
    stat_psi1 = (actions / s[:, None]).T @ w
    outer_sum = np.einsum("k,kd,ke->de", w / (s * s), actions, actions)
    return _statistics_row(pp, stat_xi, stat_psi1, -outer_sum @ pp.psi2)


def increment_statistics(pp, rho: float, times: np.ndarray, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One path's orthogonality sums from its relative actions u (K, d) and log-increments x (K,) alone.

    J = ln(1+y) + xi makes q + rho J = psi1'u - |psi2'u|^2 / 2 + psi3 + rho xi,
    so when dJ - dL = X_k on every step the residual is
    G_k = X_k - (psi1'u_k - |psi2'u_k|^2 / 2 + psi3 + rho xi) dt.
    """
    dt = float(times[1] - times[0])
    pu = u @ pp.psi2
    g = x - (u @ pp.psi1 - 0.5 * (pu * pu).sum(axis=1) + pp.psi3 + rho * pp.xi) * dt
    w = np.exp(-rho * times[:-1]) * g
    stat_psi2 = -np.einsum("k,kd,ke->de", w, u, u) @ pp.psi2
    return _statistics_row(pp, float(np.sum(w)), u.T @ w, stat_psi2)


def _statistics_row(pp, stat_xi, stat_psi1, stat_psi2):
    """(xi, psi1, psi2 raveled), with psi3's gradient added through the chain rule."""
    prec = pp.precision
    b = prec @ pp.psi1
    stat_psi1 = stat_psi1 - b * stat_xi
    stat_psi2 = stat_psi2 + (np.outer(b, b) + pp.gamma * prec) @ pp.psi2 * stat_xi
    return np.concatenate([[stat_xi], stat_psi1.ravel(), stat_psi2.ravel()])


def orthogonality_rows_loop(pp, batch: sde.BatchPaths, rho: float) -> np.ndarray:
    """Per-path sums, one episode at a time: the reference rows of qlearn.orthogonality_stats."""
    return np.array([episode_statistics_loop(pp, rho, ep) for ep in episode_paths(batch)])


def run_tracking_loop(
    prices: backtest.PriceSeries,
    strategy,
    v0: float,
    rho: float,
    name: str = "strategy",
) -> backtest.BacktestResult:
    """Step the tracking rule through a price series, one numpy scalar at a time."""
    if v0 < 0.0:
        raise ValueError(f"v0 must be >= 0, got {v0}")
    n = len(prices)
    z = prices.benchmark
    rel = np.diff(prices.assets, axis=0) / prices.assets[:-1]
    wealth = np.empty(n)
    injection = np.empty(n)
    state = np.empty(n)
    actions = np.empty((n - 1, prices.d))
    wealth[0] = v0
    injection[0] = max(z[0] - v0, 0.0)
    for i in range(n - 1):
        y = (wealth[i] + injection[i] - z[i]) / z[i]
        state[i] = y
        theta = z[i] * np.atleast_1d(np.asarray(strategy(y), dtype=float))
        actions[i] = theta
        wealth[i + 1] = wealth[i] + float(theta @ rel[i])
        injection[i + 1] = max(injection[i], z[i + 1] - wealth[i + 1])
    state[n - 1] = (wealth[-1] + injection[-1] - z[-1]) / z[-1]
    return backtest.BacktestResult(
        name=name,
        times=prices.times.copy(),
        benchmark=z.copy(),
        wealth=wealth,
        injection=injection,
        state=state,
        actions=actions,
        rho=rho,
        v0=v0,
    )


def backtest_csv_per_row(result: backtest.BacktestResult, path) -> None:
    """Write a backtest result as (t, Z, V, A, Y, theta...) rows, one row per write."""
    d = result.actions.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "Z", "V", "A", "Y"] + [f"theta_{i+1}" for i in range(d)]
        )
        n = len(result.times)
        for i in range(n):
            theta = list(result.actions[i]) if i < n - 1 else [math.nan] * d
            writer.writerow(
                [result.times[i], result.benchmark[i], result.wealth[i],
                 result.injection[i], result.state[i]] + theta
            )



def psi3_policy_steps(psi1: np.ndarray, psi2: np.ndarray, gamma: float) -> float:
    """psi3 of one (psi1, psi2) in the policy's own steps, as PolicyParams derived it before history blocks.

    P = psi2 psi2', the guards of PolicyParams.precision on P's eigenvalues,
    then psi1'(P^-1 psi1) and the sum of the log eigenvalues in gibbs_psi3;
    without a Gibbs policy, the normalization formula.
    """
    P = psi2 @ psi2.T
    eigs = np.linalg.eigvalsh(P)
    if eigs[0] < qlearn.PSI2_FLOOR**2 or eigs[-1] / eigs[0] > 1e12:
        return psi3_consistency(psi1, psi2, gamma)
    return gibbs_psi3(float(psi1 @ (np.linalg.inv(P) @ psi1)), float(np.log(eigs).sum()), len(psi1), gamma)


def train_loop(
    config: qlearn.LearnConfig, params, policy: qlearn.PolicyParams | None = None,
    sums: tuple[np.ndarray, np.ndarray] | None = None,
) -> qlearn.TrainHistory:
    """The offline least-squares loop one episode at a time, with every episode's generator and buffers built anew.

    Episode i is drawn by the fit at the start of its block of
    sde.BLOCK_ROWS episodes (episodes 16b+1 ... 16b+16): its (u_k, X_k)
    come from a 1-row kernel block on a new generator, and its
    normal-equation sums (a 1-row _normal_sums block) are added to the
    running ones unless they are non-finite.  The sums are refit at each
    block's end and at the run's end.  `policy` and `sums` stand for the
    block's policy and the sums of a run that a resumed run continues.
    """
    d = params.d
    pp = config.initial_params(d) if policy is None else policy
    pp.precision   # a start with no Gibbs policy raises SingularPsi2, as in qlearn.train
    n, K = config.n_episodes, config.n_steps
    p = 1 + d + d * (d + 1) // 2
    A, b = (np.zeros((p, p)), np.zeros(p)) if sums is None else (np.array(sums[0]), np.array(sums[1]))
    hist_xi = np.empty(n)
    hist_psi1 = np.empty((n, d))
    hist_psi2 = np.empty((n, d, d))
    hist_psi3 = np.empty(n)
    hist_held = np.zeros(n, dtype=bool)
    episodes = np.arange(config.start_episode, config.start_episode + n)
    times = np.linspace(0.0, config.T, K + 1)
    disc = np.exp(-params.rho * times[:-1])
    market = sde._market(params, config.dt)
    clamp_events = 0
    rejected: list[int] = []
    for idx, i in enumerate(episodes):
        i = int(i)
        mean_coef, cov_chol = pp.policy_coefficients()
        ws, fws = sde._workspace(1, K, d), qlearn._feature_workspace(1, K, d)
        sde.episode_rng(config.seed, i).standard_normal(out=ws.normals[0])
        with np.errstate(over="ignore", invalid="ignore"):
            clamp_events += sde._increments(market, mean_coef, cov_chol, ws, 1)
            A_r, b_r = qlearn._normal_sums(qlearn._features(ws.u, fws), ws.x, disc, float(times[1] - times[0]), fws)
        if np.isfinite(A_r).all() and np.isfinite(b_r).all():
            A = A + A_r[0]
            b = b + b_r[0]
        else:
            rejected.append(i)
            if len(rejected) > qlearn.REJECT_FRACTION * n:
                raise qlearn.TooManyRejectedEpisodes(
                    f"{len(rejected)} of {idx + 1} episodes rejected "
                    f"(limit {qlearn.REJECT_FRACTION:.0%} of {n})"
                )
        row = pp
        if i % sde.BLOCK_ROWS == 0 or idx == n - 1:
            row, hist_held[idx] = qlearn.update(pp, A, b, params.rho)
            final = row
            if i % sde.BLOCK_ROWS == 0:
                pp = row
        hist_xi[idx] = row.xi
        hist_psi1[idx] = row.psi1
        hist_psi2[idx] = row.psi2
        hist_psi3[idx] = row.psi3
    return qlearn.TrainHistory(
        episodes=episodes,
        xi=hist_xi,
        psi1=hist_psi1,
        psi2=hist_psi2,
        psi3=hist_psi3,
        clipped=hist_held,
        rejected_episodes=rejected,
        clamp_events=clamp_events,
        final=final,
        policy=pp,
        A=A,
        b=b,
    )


def history_csv_per_row(history: qlearn.TrainHistory, path) -> None:
    """Write a training history as (episode, xi, psi1..., psi2..., psi3, clipped) rows, one per write."""
    d = history.psi1.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = (
            ["episode", "xi"]
            + [f"psi1_{i+1}" for i in range(d)]
            + [f"psi2_{i+1}{j+1}" for i in range(d) for j in range(d)]
            + ["psi3", "clipped"]
        )
        writer.writerow(header)
        for n in range(len(history.episodes)):
            writer.writerow(
                [int(history.episodes[n]), history.xi[n]]
                + list(history.psi1[n])
                + list(history.psi2[n].ravel())
                + [history.psi3[n], int(history.clipped[n])]
            )

# Reference model: d = 1, mu = 0.2, sigma = 1, sigma_z = 0.2, kappa = 0.5,
# eta = 1, rho = gamma = 0.2.  Frozen values below were produced with the
# bisection/arithmetic oracles in this file (see scripts in test modules).
REF = {
    "lambda": 0.910753193579918,
    "u0": -0.09799230686117888,
    "u1": -8.302639428110326e-05,
    "theta0": 0.19105444204090413,
    "xi_star": 0.3624246577445103,
    "psi1_star": 0.37320508075688774,
    "psi2_star": 1.0,
    "psi3_star": -0.09248493154890206,
    "agg_drift": 0.07464101615137755,
    "agg_diff": 0.39955101820841044,
    "mu_hat": -0.005179491924311219,
}
