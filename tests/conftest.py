import math

import numpy as np
import pytest

from benchtrack import qlearn, sde
from benchtrack.model import ModelParams, classical_solution, exploratory_constants


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


def one_step_path(y: float, a, y_next: float, dL: float, dt: float) -> sde.EpisodePath:
    """A single transition y -> y_next under action a, with local time dL."""
    return sde.EpisodePath(
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


def path_statistics(pp: qlearn.PolicyParams, path: sde.EpisodePath, rho: float):
    """(row, c): one path's orthogonality sums [stat_xi, stat_psi1, stat_psi2] as a 1-row block, and the xi slope."""
    K, d = path.actions.shape
    rows, _, c = qlearn._episode_statistics(
        pp, rho, path.times, path.states[None], path.actions[None], path.local_time[None],
        qlearn._statistics_workspace(1, K, d),
    )
    return rows[0], c


def update_on_path(pp: qlearn.PolicyParams, path: sde.EpisodePath, rates: qlearn.Rates, rho: float,
                   xi_weight: float):
    """qlearn.update from a path drawn at pp: its statistics row and the root pp.xi + stat_xi / c."""
    row, c = path_statistics(pp, path, rho)
    return qlearn.update(pp, pp.xi + row[0] / c, row, rates, xi_weight)


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
