"""Independent reference implementations used to check the package.

Everything here is deliberately written from first principles (bisection,
finite differences, Gaussian moment identities, brute-force quadrature)
and never calls the code paths it is used to verify.  The `*_loop`
simulators step the projection-Euler scheme one step at a time, as the
package did before its loop-free reflection kernel; they share only the
grid, the random streams and the result types with `sde`.  The `per_path`
samplers, `skorokhod_log_path` and `export_paths_csv_per_row` are the
package's API from before every sampler returned a BatchPaths: one path per
call and one CSV row per write.  Each batch row and the bulk writer's bytes
must equal theirs exactly.  `orthogonality_rows_loop` is the per-episode
statistics loop from before they were reduced block by block.
`run_tracking_loop` and `backtest_csv_per_row` are the backtest from before
it stepped over Python floats and wrote its CSV in one call: numpy scalars
at every bar and one CSV row per write.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from benchtrack import backtest, sde


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
    n = float(np.linalg.norm(params.eta))
    return np.zeros_like(params.eta) if n == 0.0 else params.eta / n


def rollout_linear_gaussian_loop(
    env: sde.Environment,
    mean_coef: np.ndarray,
    cov_chol: np.ndarray,
    y0: float,
    n_steps: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step-by-step projection-Euler episode of a state-linear Gaussian policy.

    The reference for sde.rollout_linear_gaussian: same stream, same draws.
    """
    if y0 < 0.0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    params = env.params
    dt = env.dt
    d = params.d
    K = n_steps
    normals = rng.standard_normal((K, 2 * d + 1))
    sqdt = math.sqrt(dt)
    eta_hat = _eta_unit(params)
    ck = math.sqrt(1.0 - params.kappa**2)
    mean_coef = np.asarray(mean_coef, dtype=float).reshape(d)
    cov_chol = np.asarray(cov_chol, dtype=float).reshape(d, d)

    states = np.empty(K + 1)
    local = np.empty(K + 1)
    actions = np.empty((K, d))
    states[0] = y0
    local[0] = 0.0
    y = float(y0)
    L = 0.0
    cap = env.action_cap
    for k in range(K):
        scale = 1.0 + y
        a = scale * (mean_coef + cov_chol @ normals[k, :d])
        norm = float(np.linalg.norm(a))
        if norm > cap:
            a *= cap / norm
            env.clamp_events += 1
        dw = normals[k, d + 1 :] * sqdt
        dw_kappa = params.kappa * normals[k, d] * sqdt + ck * float(eta_hat @ dw)
        proposal = (
            y
            - params.sigma_z * scale * dw_kappa
            + float(a @ params.mu) * dt
            + float((a @ params.sigma) @ dw)
        )
        if not math.isfinite(proposal):
            raise sde.NonFinite(f"step {k}: non-finite state proposal")
        if proposal >= 0.0:
            y = proposal
        else:
            L -= proposal
            y = 0.0
        actions[k] = a
        states[k + 1] = y
        local[k + 1] = L
    return states, actions, local


def simulate_linear_gaussian_batch_loop(
    params,
    mean_coef: np.ndarray,
    cov_chol: np.ndarray,
    n_paths: int,
    y0: float,
    T: float,
    dt: float,
    seed: int,
    action_cap: float = sde.DEFAULT_ACTION_CAP,
) -> sde.BatchPaths:
    """Step-by-step batch of a state-linear Gaussian policy, all paths per step.

    The reference for sde.simulate_linear_gaussian_batch: same streams.
    """
    if y0 < 0.0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    times = sde._grid(T, dt)
    K = len(times) - 1
    d = params.d
    mean_coef = np.asarray(mean_coef, dtype=float).reshape(d)
    cov_chol = np.asarray(cov_chol, dtype=float).reshape(d, d)

    rngs = [sde.episode_rng(seed, i) for i in range(n_paths)]
    # one block per episode, concatenated: (n, K, 2d+1) standard normals
    normals = np.stack([r.standard_normal((K, 2 * d + 1)) for r in rngs])
    z_act = normals[:, :, :d]
    g0 = normals[:, :, d]
    g = normals[:, :, d + 1 :]

    sqdt = math.sqrt(dt)
    eta_hat = _eta_unit(params)
    ck = math.sqrt(1.0 - params.kappa**2)

    states = np.empty((n_paths, K + 1))
    local = np.empty((n_paths, K + 1))
    actions = np.empty((n_paths, K, d))
    states[:, 0] = y0
    local[:, 0] = 0.0
    clamp_events = 0

    y = np.full(n_paths, float(y0))
    for k in range(K):
        scale = 1.0 + y
        a = scale[:, None] * (mean_coef[None, :] + z_act[:, k, :] @ cov_chol.T)
        norms = np.linalg.norm(a, axis=1)
        over = norms > action_cap
        if np.any(over):
            a[over] *= (action_cap / norms[over])[:, None]
            clamp_events += int(np.count_nonzero(over))
        dw = g[:, k, :] * sqdt
        dw_kappa = params.kappa * g0[:, k] * sqdt + ck * (dw @ eta_hat)
        proposal = (
            y
            - params.sigma_z * scale * dw_kappa
            + (a @ params.mu) * dt
            + np.einsum("ne,ne->n", a @ params.sigma, dw)
        )
        if not np.all(np.isfinite(proposal)):
            bad = int(np.flatnonzero(~np.isfinite(proposal))[0])
            raise sde.NonFinite(f"path {bad}, step {k}: non-finite state proposal")
        y = np.maximum(proposal, 0.0)
        dL = np.maximum(-proposal, 0.0)
        actions[:, k, :] = a
        states[:, k + 1] = y
        local[:, k + 1] = local[:, k] + dL
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
) -> sde.EpisodePath:
    """Step-by-step projection-Euler path of the aggregated dynamics.

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
    y = float(y0)
    sqdt = math.sqrt(dt)
    shocks = rng.standard_normal(K)
    for k in range(K):
        proposal = y + b * (1.0 + y) * dt + s * (1.0 + y) * sqdt * shocks[k]
        if proposal >= 0.0:
            y, dL = proposal, 0.0
        else:
            y, dL = 0.0, -proposal
        states[k + 1] = y
        local[k + 1] = local[k] + dL
    return sde.EpisodePath(times=times, states=states, actions=np.empty((K, 0)), local_time=local)


def simulate_aggregated_per_path(
    params,
    gamma: float,
    y0: float,
    T: float,
    dt: float,
    rng: np.random.Generator,
) -> sde.EpisodePath:
    """Projection-Euler path of the one-factor aggregated dynamics, c_k = b dt + s sqrt(dt) z_k."""
    if y0 < 0.0:
        raise ValueError(f"y0 must be >= 0, got {y0}")
    b, s = sde.aggregated_coefficients(params, gamma)
    times = sde._grid(T, dt)
    K = len(times) - 1
    c = b * dt + s * math.sqrt(dt) * rng.standard_normal(K)[None]
    states, dL = np.full((1, K + 1), float(y0)), np.empty((1, K))
    sde._reflect(c, states, dL, sde._workspace(1, K, 0))
    local = np.concatenate([[0.0], np.cumsum(dL[0])])
    return sde.EpisodePath(times=times, states=states[0], actions=np.empty((K, 0)), local_time=local)


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


def export_paths_csv_per_row(
    paths: sde.BatchPaths | list[sde.EpisodePath], csv_path, meta_path=None, metadata: dict | None = None
) -> None:
    """Write paths as (episode, k, t, y, action..., dL, L) rows plus a metadata JSON."""
    episodes = list(paths) if not isinstance(paths, list) else paths
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


def episode_statistics_loop(pp, rho: float, ep: sde.EpisodePath, chain_rule: bool = True) -> np.ndarray:
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
    stat_psi2 = -outer_sum @ pp.psi2
    if chain_rule:
        prec = pp.precision
        b = prec @ pp.psi1
        stat_psi1 = stat_psi1 - b * stat_xi
        stat_psi2 = stat_psi2 + (np.outer(b, b) + pp.gamma * prec) @ pp.psi2 * stat_xi
    return np.concatenate([[stat_xi], stat_psi1.ravel(), stat_psi2.ravel()])


def orthogonality_rows_loop(pp, paths, rho: float, chain_rule: bool = True) -> np.ndarray:
    """Per-path sums, one episode at a time: the reference rows of qlearn.orthogonality_stats."""
    return np.array([episode_statistics_loop(pp, rho, ep, chain_rule) for ep in paths])


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


# Reference model: d = 1, mu = 0.2, sigma = 1, sigma_z = 0.2, kappa = 0.5,
# eta = 1, rho = gamma = 0.2.  Frozen values below were produced with the
# bisection/arithmetic oracles in this file (see scripts in test modules).
REF = {
    "lambda": 0.910753193579918,
    "u0": -0.09799230686117888,
    "u1": -8.302639428110326e-05,
    "denorm_x1_z2": -0.003127744929931356,
    "theta0": 0.19105444204090413,
    "xi_star": 0.3624246577445103,
    "psi1_star": 0.37320508075688774,
    "psi2_star": 1.0,
    "psi3_star": -0.09248493154890206,
    "agg_drift": 0.07464101615137755,
    "agg_diff": 0.39955101820841044,
    "mu_hat": -0.005179491924311219,
}
