import math

import numpy as np
import pytest

from benchtrack import qlearn, sde
from benchtrack.model import DomainError, ModelParams, classical_solution, exploratory_constants
from oracles import EpisodePath


@pytest.fixture(scope="session")
def params_ref() -> ModelParams:
    """The d=1 reference parameter set used across the closed-form tests."""
    return ModelParams(mu=[0.2], sigma=[[1.0]], sigma_z=0.2, kappa=0.5, eta=[1.0], rho=0.2)


@pytest.fixture(scope="session")
def classical_ref(params_ref):
    return classical_solution(params_ref)


@pytest.fixture(scope="session")
def exploratory_ref(params_ref):
    return exploratory_constants(params_ref, 0.2)


@pytest.fixture(scope="session")
def pp_star(exploratory_ref) -> qlearn.PolicyParams:
    """The closed-form constants as learner parameters (gamma = 0.2)."""
    return qlearn.PolicyParams.from_constants(exploratory_ref)


def one_step_path(y: float, a, y_next: float, dL: float, dt: float) -> EpisodePath:
    """A single transition y -> y_next under action a, with local time dL."""
    return EpisodePath(
        times=np.array([0.0, dt]),
        states=np.array([y, y_next]),
        actions=np.atleast_2d(np.asarray(a, dtype=float)),
        local_time=np.array([0.0, dL]),
    )


def q_gradient(pp: qlearn.PolicyParams, rho: float, y: float, a):
    """The psi-gradient of q at (y, a), read off the production update sums.

    On a one-step path the discount is 1, so stat_xi is the residual G_0 and
    (stat_psi1, stat_psi2) = G_0 * grad q; the transition is chosen with G_0
    near 1 so that the ratio loses no precision.
    """
    dt = 0.01
    j = qlearn.j_value(pp, y)
    target = j + qlearn.q_value(pp, rho, y, a) * dt + rho * j * dt + 1.0
    path = one_step_path(y, a, math.expm1(target - pp.xi), 0.0, dt)
    row, _ = path_statistics(pp, path, rho)
    d = pp.d
    return row[1 : 1 + d] / row[0], row[1 + d :].reshape(d, d) / row[0]


def path_statistics(pp: qlearn.PolicyParams, path: EpisodePath, rho: float):
    """(row, d_row): one path's orthogonality sums [stat_xi, stat_psi1, stat_psi2] as a 1-row block, and xi-slopes."""
    theta, M = qlearn._statistics_map(pp, rho)
    batch = sde.BatchPaths(path.times, path.states[None], path.actions[None], path.local_time[None])
    rows, d_rows = _path_reductions(batch, lambda block, ws: qlearn._orthogonality_rows(theta, M, rho, block, ws))
    return rows[0], d_rows[0]


def path_sums(batch: sde.BatchPaths, rho: float):
    """(A_r, b_r): the normal-equation sums of every path of a batch, from the (u_k, X_k) read off its paths."""
    disc, dt = np.exp(-rho * batch.times[:-1]), float(batch.times[1] - batch.times[0])
    return _path_reductions(
        batch, lambda block, ws: qlearn._normal_sums(qlearn._features(block.u, ws), block.x, disc, dt, ws))


def _path_reductions(batch: sde.BatchPaths, reduce):
    """The two per-path arrays that reduce(block, workspace) gives for each block of a batch, concatenated."""
    n, K, d = batch.actions.shape
    ws = qlearn._feature_workspace(sde.BLOCK_ROWS, K, d)
    parts = [reduce(block, ws) for block in path_increments(batch)]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def path_increments(batch: sde.BatchPaths):
    """The (u_k, X_k) of a batch's stored paths as the sde.IncrementBlock stream that qlearn.orthogonality_stats reads.

    They are read off the states and local time, BLOCK_ROWS paths at a time:
    u_k = a_k / (1 + y_k) and X_k = ln(1 + y_{k+1}) - ln(1 + y_k) - dL_k.
    """
    for start in range(0, len(batch.states), sde.BLOCK_ROWS):
        rows = slice(start, start + sde.BLOCK_ROWS)
        states, local = batch.states[rows], batch.local_time[rows]
        if states.min() < 0.0:
            raise DomainError(f"state must be >= 0, got {states!r}")
        x = np.diff(np.log1p(states), axis=1) - np.diff(local, axis=1)
        u = np.moveaxis(batch.actions[rows], -1, 0) / (1.0 + states[:, :-1])
        yield sde.IncrementBlock(batch.times, u, x)


def random_params(rng: np.random.Generator, d: int | None = None) -> ModelParams:
    """A random well-conditioned parameter draw (kappa bounded away from 0)."""
    if d is None:
        d = int(rng.integers(1, 4))
    mu = rng.uniform(-1.0, 1.0, size=d)
    while np.allclose(mu, 0.0):
        mu = rng.uniform(-1.0, 1.0, size=d)
    sigma = np.eye(d) + 0.3 * rng.uniform(-1.0, 1.0, size=(d, d))
    while np.linalg.cond(sigma) > 1e3:
        sigma = np.eye(d) + 0.3 * rng.uniform(-1.0, 1.0, size=(d, d))
    kappa = float(rng.uniform(0.05, 1.0) * rng.choice([-1.0, 1.0]))
    return ModelParams(
        mu=mu,
        sigma=sigma,
        sigma_z=float(rng.uniform(0.05, 1.0)),
        kappa=kappa,
        eta=rng.uniform(-1.0, 1.0, size=d),
        rho=float(rng.uniform(0.05, 1.0)),
    )
