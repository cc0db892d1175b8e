"""Closed-form layer: root solve, value functions, policies, HJB residuals."""

import math

import numpy as np
import pytest

from benchtrack.model import (
    DomainError,
    InvalidGamma,
    ModelParams,
    NoBracket,
    classical_solution,
    derived_constants,
    exploratory_constants,
    lambda_polynomial,
    psi3_consistency,
    solve_lambda,
)
from benchtrack.qlearn import PolicyParams, policy_from_q, q_value
from conftest import random_params
from oracles import REF, bisect_root, central_diff, gaussian_entropy, gaussian_expect_quadratic, rel_err

GAMMA = 0.2
RHO = 0.2


# ---------------------------------------------------------------- validation

def test_params_validation_rejects_bad_inputs():
    good = dict(mu=[0.2], sigma=[[1.0]], sigma_z=0.2, kappa=0.5, eta=[1.0], rho=0.2)
    ModelParams(**good)
    with pytest.raises(ValueError):
        ModelParams(**{**good, "sigma_z": 0.0})
    with pytest.raises(ValueError):
        ModelParams(**{**good, "rho": -0.1})
    with pytest.raises(ValueError):
        ModelParams(**{**good, "kappa": 1.5})
    with pytest.raises(ValueError):
        ModelParams(**{**good, "eta": [2.0]})
    with pytest.raises(ValueError):
        ModelParams(**{**good, "mu": [0.0]})
    with pytest.raises(ValueError, match="sigma is singular"):
        ModelParams(mu=[0.1, 0.1], sigma=[[1.0, 1.0], [1.0, 1.0]], sigma_z=0.2,
                    kappa=0.5, eta=[math.sqrt(0.5)] * 2, rho=0.2)


@pytest.mark.parametrize("eta", [[0.5], [0.0], [1.0, 1.0]])
def test_params_refuse_a_non_unit_eta(eta):
    # the benchmark driver kappa W0 + sqrt(1 - kappa^2) eta'W is a standard Brownian motion only at |eta| = 1
    d = len(eta)
    with pytest.raises(ValueError, match=r"eta must have norm 1, got \["):
        ModelParams(mu=[0.2] * d, sigma=np.eye(d), sigma_z=0.2, kappa=0.5, eta=eta, rho=0.2)


def test_derived_constants_reference(params_ref):
    c = derived_constants(params_ref)
    assert c.alpha == pytest.approx(0.02, abs=1e-15)
    assert c.zeta == pytest.approx(0.04, abs=1e-15)
    assert c.alpha > 0.0


# ---------------------------------------------------------------- root solve

def test_polynomial_endpoints(params_ref):
    assert lambda_polynomial(params_ref, 0.0) == pytest.approx(params_ref.rho, abs=1e-15)
    expected = -0.5 * params_ref.kappa**2 * params_ref.sigma_z**2
    assert lambda_polynomial(params_ref, 1.0) == pytest.approx(expected, abs=1e-15)


def test_solve_lambda_matches_bisection_oracle(params_ref):
    lam = solve_lambda(params_ref)
    assert lam == pytest.approx(REF["lambda"], abs=1e-12)
    oracle = bisect_root(lambda x: lambda_polynomial(params_ref, x), 0.0, 1.0)
    assert abs(lam - oracle) < 1e-10
    assert abs(lambda_polynomial(params_ref, lam)) < 1e-12


def test_solve_lambda_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(100):
        params = random_params(rng)
        lam = solve_lambda(params)
        assert 0.0 < lam < 1.0
        assert abs(lambda_polynomial(params, lam)) < 1e-12


def test_solve_lambda_rejects_kappa_zero():
    params = ModelParams(mu=[0.2], sigma=[[1.0]], sigma_z=0.2, kappa=0.0, eta=[1.0], rho=0.2)
    with pytest.raises(NoBracket):
        solve_lambda(params)


# ---------------------------------------------------------- classical value

def test_classical_value_reference_points(classical_ref):
    lam = classical_ref.lam
    assert classical_ref.value(0.0) == pytest.approx((lam - 1.0) / lam, abs=1e-15)
    assert classical_ref.value(1.0) == pytest.approx(REF["u1"], rel=1e-12)
    assert classical_ref.value_d1(0.0) == pytest.approx(1.0, abs=1e-12)


def test_classical_value_rejects_negative_state(classical_ref):
    with pytest.raises(DomainError):
        classical_ref.value(-0.5)
    with pytest.raises(DomainError):
        classical_ref.value_d1(np.array([0.5, -0.1]))


def test_classical_concavity_and_neumann(classical_ref):
    ys = np.arange(0.0, 10.0 + 1e-9, 0.01)
    assert np.all(classical_ref.value_d2(ys) < 0.0)
    assert abs(classical_ref.value_d1(0.0) - 1.0) < 1e-12


def test_classical_derivatives_match_finite_differences(classical_ref):
    rng = np.random.default_rng(3)
    for y in rng.uniform(0.01, 10.0, size=100):
        d1 = central_diff(classical_ref.value, y)
        d2 = central_diff(classical_ref.value_d1, y)
        assert rel_err(d1, classical_ref.value_d1(y)) < 1e-6
        assert rel_err(d2, classical_ref.value_d2(y)) < 1e-6


def test_classical_hjb_residual_small_on_grid(classical_ref):
    ys = np.arange(0.0, 10.0 + 1e-9, 0.01)
    assert np.max(np.abs(classical_ref.hjb_residual(ys))) < 1e-8


def test_classical_hjb_residual_detects_wrong_root(classical_ref):
    bad = type(classical_ref)(lam=classical_ref.lam + 0.05, params=classical_ref.params)
    # at y = 0 the residual equals -ell(lam)/(lam (lam-1)), far from zero
    assert abs(bad.hjb_residual(0.0)) > 1e-2


def test_classical_policy_linear_and_kappa_one(params_ref, classical_ref):
    p0 = classical_ref.policy(0.0)
    p1 = classical_ref.policy(1.0)
    assert np.allclose(p1, 2.0 * p0, rtol=0, atol=1e-15)
    assert p0[0] == pytest.approx(REF["theta0"], abs=1e-12)

    full_hedge = ModelParams(mu=[0.2], sigma=[[1.0]], sigma_z=0.2, kappa=1.0, eta=[1.0], rho=0.2)
    sol = classical_solution(full_hedge)
    expected = (1.0 - sol.lam) * 0.2  # eta term vanishes at kappa = 1
    assert sol.policy(0.0)[0] == pytest.approx(expected, abs=1e-14)


# ------------------------------------------------------------- exploratory

def test_exploratory_constants_reference_values(exploratory_ref):
    assert exploratory_ref.xi_star == pytest.approx(REF["xi_star"], abs=1e-12)
    assert exploratory_ref.psi1_star[0] == pytest.approx(REF["psi1_star"], abs=1e-12)
    assert exploratory_ref.psi2_star[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert exploratory_ref.psi3_star == pytest.approx(REF["psi3_star"], abs=1e-12)


def test_exploratory_constants_reject_bad_gamma(params_ref):
    with pytest.raises(InvalidGamma):
        exploratory_constants(params_ref, 0.0)
    with pytest.warns(UserWarning):
        exploratory_constants(params_ref, 0.4)


def test_exploratory_value_points(exploratory_ref):
    assert exploratory_ref.value(0.0) == pytest.approx(exploratory_ref.xi_star, abs=1e-15)
    assert exploratory_ref.value(math.e - 1.0) == pytest.approx(1.0 + exploratory_ref.xi_star, abs=1e-12)
    assert exploratory_ref.value_d1(0.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DomainError):
        exploratory_ref.value(-1e-9)


def test_exploratory_concavity(exploratory_ref):
    ys = np.arange(0.0, 10.0 + 1e-9, 0.01)
    assert np.all(exploratory_ref.value_d2(ys) < 0.0)


def test_exploratory_hjb_residual(exploratory_ref, params_ref):
    ys = np.arange(0.0, 10.0 + 1e-9, 0.01)
    assert np.max(np.abs(exploratory_ref.hjb_residual(ys))) < 1e-8
    # residual stays controlled far out on the half-line
    assert abs(exploratory_ref.hjb_residual(1e6)) < 1e-6
    # off the special temperature the same ansatz fails
    with pytest.warns(UserWarning):
        off = exploratory_constants(params_ref, 2.0 * RHO)
    assert abs(off.hjb_residual(1.0)) > 1e-2


# The exact q-function and its Gibbs policy are qlearn's, at the closed-form
# constants (the pp_star fixture is PolicyParams.from_constants(exploratory_ref)).

def test_policy_spec_reference(pp_star):
    spec = policy_from_q(pp_star, 0.0)
    assert spec.mean[0] == pytest.approx(REF["psi1_star"], abs=1e-12)
    assert spec.cov[0, 0] == pytest.approx(GAMMA, abs=1e-15)
    spec1 = policy_from_q(pp_star, 1.0)
    assert np.allclose(spec1.cov, 4.0 * spec.cov)
    # covariance stays symmetric positive definite
    assert np.all(np.linalg.eigvalsh(spec1.cov) > 0.0)


def test_policy_mean_drops_eta_at_kappa_one():
    params = ModelParams(mu=[0.2], sigma=[[1.0]], sigma_z=0.2, kappa=1.0, eta=[1.0], rho=0.2)
    spec = policy_from_q(PolicyParams.from_constants(exploratory_constants(params, 0.2)), 2.0)
    assert spec.mean[0] == pytest.approx(0.2 * 3.0, abs=1e-14)


def test_q_argmax_equals_policy_mean(exploratory_ref, pp_star):
    rng = np.random.default_rng(11)
    ppT = exploratory_ref.psi2_star @ exploratory_ref.psi2_star.T
    for y in rng.uniform(0.0, 10.0, size=100):
        # quadratic maximiser solved independently of the policy code
        astar = np.linalg.solve(ppT, exploratory_ref.psi1_star) * (1.0 + y)
        assert np.allclose(astar, policy_from_q(pp_star, y).mean, atol=1e-10)
        # and q is strictly smaller off the maximiser
        assert q_value(pp_star, RHO, y, astar) > q_value(pp_star, RHO, y, astar + 0.1)


def test_q_reference_points(exploratory_ref, pp_star):
    assert q_value(pp_star, RHO, 0.0, [0.0]) == pytest.approx(exploratory_ref.psi3_star, abs=1e-15)


def test_q_entropy_consistency(exploratory_ref, pp_star):
    # E_pi[q - gamma ln pi] via closed-form Gaussian moments
    for y in (0.0, 0.7, 3.0, 9.5):
        spec = policy_from_q(pp_star, y)
        ppT = exploratory_ref.psi2_star @ exploratory_ref.psi2_star.T
        eq = (
            gaussian_expect_quadratic(exploratory_ref.psi1_star, ppT, spec.mean, spec.cov, y)
            - RHO * math.log1p(y)
            + exploratory_ref.psi3_star
        )
        expected = -GAMMA * gaussian_entropy(spec.cov)
        assert abs(eq - expected) < 1e-8


def test_q_derivative_in_action_matches_fd(exploratory_ref, pp_star):
    rng = np.random.default_rng(5)
    for _ in range(100):
        y = float(rng.uniform(0.0, 5.0))
        a = float(rng.normal(0.0, 1.0))
        ppT = float(exploratory_ref.psi2_star[0, 0] ** 2)
        grad = exploratory_ref.psi1_star[0] / (1.0 + y) - ppT * a / (1.0 + y) ** 2
        fd = central_diff(lambda x: q_value(pp_star, RHO, y, [x]), a)
        assert rel_err(fd, grad, floor=1e-4) < 1e-6


def test_psi3_consistency_reference():
    val = psi3_consistency([REF["psi1_star"]], [[1.0]], GAMMA)
    assert val == pytest.approx(REF["psi3_star"], abs=1e-12)
