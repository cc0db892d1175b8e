"""Estimation layer: GBM MLE and the classical comparison strategy."""

import math

import numpy as np
import pytest

from benchtrack.baseline import (
    DegenerateSeries,
    InsufficientData,
    MleEstimate,
    NonPositivePrice,
    classical_strategy,
    mle_estimate,
)
from benchtrack.model import ModelParams, classical_solution
from oracles import simulate_gbm


def test_rejects_bad_inputs():
    with pytest.raises(InsufficientData):
        mle_estimate([1.0, 1.1], [1.0, 1.0], 1.0)
    with pytest.raises(NonPositivePrice):
        mle_estimate([1.0, -1.0, 1.1], [1.0, 1.0, 1.0], 1.0)
    with pytest.raises(DegenerateSeries):
        mle_estimate([2.0, 2.0, 2.0, 2.0], [1.0, 1.1, 0.9, 1.0], 1.0)
    with pytest.raises(InsufficientData):
        mle_estimate([1.0, 1.1, 1.2], [1.0, 1.0], 1.0)
    with pytest.raises(ValueError):
        mle_estimate([1.0, 1.1, 1.2], [1.0, 1.1, 1.2], 0.0)


def test_recovers_known_gbm_within_asymptotic_error():
    mu, sigma, sigma_z, dt, n = 0.15, 0.3, 0.2, 1e-3, 100_000
    rng = np.random.default_rng(123)
    s = simulate_gbm(mu, sigma, 1.0, dt, n, rng)
    z = simulate_gbm(0.0, sigma_z, 10.0, dt, n, rng)
    est = mle_estimate(s, z, dt)
    # asymptotic std errors: sigma: sigma/sqrt(2n); mu: sigma/sqrt(n dt)
    se_sigma = sigma / math.sqrt(2 * n)
    se_mu = sigma / math.sqrt(n * dt)
    assert abs(est.sigma_hat[0, 0] - sigma) < 3 * se_sigma
    assert abs(est.mu_hat[0] - mu) < 3 * se_mu
    assert abs(est.sigma_z_hat - sigma_z) < 3 * sigma_z / math.sqrt(2 * n)


def test_estimator_error_shrinks_like_root_n():
    mu, sigma, dt = 0.1, 0.25, 1e-2
    ns = [1_000, 10_000, 100_000]
    reps = 40
    rng = np.random.default_rng(7)
    rmse = []
    for n in ns:
        errs = []
        for _ in range(reps):
            s = simulate_gbm(mu, sigma, 1.0, dt, n, rng)
            z = simulate_gbm(0.0, 0.2, 1.0, dt, n, rng)
            est = mle_estimate(s, z, dt)
            errs.append((est.sigma_hat[0, 0] - sigma) ** 2)
        rmse.append(math.sqrt(np.mean(errs)))
    slope = np.polyfit(np.log(ns), np.log(rmse), 1)[0]
    assert abs(slope + 0.5) < 0.15


def test_multi_asset_covariance_recovery():
    rng = np.random.default_rng(11)
    n, dt = 200_000, 1e-3
    chol = np.array([[0.3, 0.0], [0.1, 0.2]])
    zshock = rng.standard_normal((n, 2)) @ chol.T * math.sqrt(dt)
    logp = np.cumsum(zshock, axis=0)
    prices = np.exp(np.vstack([np.zeros(2), logp]))
    bench = simulate_gbm(0.0, 0.15, 5.0, dt, n, rng)
    est = mle_estimate(prices, bench, dt)
    assert np.allclose(est.sigma_hat @ est.sigma_hat.T, chol @ chol.T, atol=5e-3)


def test_classical_strategy_structure():
    est = MleEstimate(
        mu_hat=np.array([0.0012]),
        sigma_hat=np.array([[0.0324]]),
        sigma_z_hat=0.0126,
        dt=1.0,
    )
    strat = classical_strategy(est, rho=0.1)
    a0 = strat(0.0)
    a1 = strat(1.0)
    # linear in (1 + y), no eta dependence at kappa = 1
    assert np.allclose(a1, 2.0 * a0)
    # frozen via the independent bisection oracle on the root polynomial
    assert a0[0] == pytest.approx(0.031652350237884104, abs=1e-9)
    # allocation scale strictly increasing in the surplus
    ys = np.linspace(0.0, 5.0, 11)
    norms = [abs(strat(float(y))[0]) for y in ys]
    assert all(b > a for a, b in zip(norms, norms[1:]))


def test_classical_strategy_uses_a_unit_eta():
    # the hedge term sqrt(1 - kappa^2) sigma_z (sigma sigma')^-1 sigma eta is live
    # only when kappa < 1; the closed forms assume |eta| = 1
    est = MleEstimate(
        mu_hat=np.array([0.08, 0.05]),
        sigma_hat=np.array([[0.2, 0.0], [0.05, 0.15]]),
        sigma_z_hat=0.1,
        dt=1.0,
    )
    eta = np.ones(2) / math.sqrt(2.0)
    sol = classical_solution(ModelParams(mu=est.mu_hat, sigma=est.sigma_hat, sigma_z=0.1,
                                         kappa=0.5, eta=eta, rho=0.1))
    strat = classical_strategy(est, rho=0.1, kappa_assumption=0.5)
    for y in (0.0, 1.5):
        assert np.allclose(strat(y), sol.policy(y), rtol=1e-12, atol=0.0)
