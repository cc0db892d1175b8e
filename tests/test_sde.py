"""Simulator layer: increments, reflection accounting, path laws, oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from benchtrack import qlearn, sde
from benchtrack.model import ModelParams
from conftest import random_params
from oracles import (
    REF,
    rollout_linear_gaussian_loop,
    simulate_aggregated_loop,
    simulate_linear_gaussian_batch_loop,
)

GAMMA = 0.2


@pytest.fixture(scope="module")
def pp_star(exploratory_ref):
    return qlearn.PolicyParams(
        xi=exploratory_ref.xi_star,
        psi1=exploratory_ref.psi1_star,
        psi2=exploratory_ref.psi2_star,
        gamma=GAMMA,
    )


# ------------------------------------------------------------- increments

def test_increments_zero_dt(params_ref):
    rng = sde.episode_rng(0, 0)
    inc = sde.draw_increments(params_ref, 0.0, rng)
    assert inc.dw_kappa == 0.0
    assert np.all(inc.dw == 0.0)


def test_increments_kappa_one_independent_of_assets():
    params = ModelParams(mu=[0.2], sigma=[[1.0]], sigma_z=0.2, kappa=1.0, eta=[1.0], rho=0.2)
    rng = sde.episode_rng(1, 0)
    cov_samples = []
    for _ in range(20000):
        inc = sde.draw_increments(params, 0.01, rng)
        cov_samples.append(inc.dw_kappa * inc.dw[0])
    # weight on the asset channel is zero, so the sample covariance is pure noise
    m = np.mean(cov_samples)
    se = np.std(cov_samples, ddof=1) / math.sqrt(len(cov_samples))
    assert abs(m) < 3.0 * se


def test_increments_covariance_monte_carlo(params_ref):
    # Cov(dw_kappa, dw_1) should be sqrt(1-kappa^2) * dt for d=1, eta=1
    dt = 0.5
    rng = sde.episode_rng(2, 0)
    n = 1_000_000
    g = rng.standard_normal((n, 2)) * math.sqrt(dt)
    dk = params_ref.kappa * g[:, 0] + math.sqrt(1 - params_ref.kappa**2) * g[:, 1]
    prod = dk * g[:, 1]
    target = math.sqrt(1 - params_ref.kappa**2) * dt
    se = np.std(prod, ddof=1) / math.sqrt(n)
    assert abs(np.mean(prod) - target) < 3.0 * se
    # and the same covariance comes out of draw_increments itself
    rng2 = sde.episode_rng(3, 0)
    prods = []
    for _ in range(200_000):
        inc = sde.draw_increments(params_ref, dt, rng2)
        prods.append(inc.dw_kappa * inc.dw[0])
    se2 = np.std(prods, ddof=1) / math.sqrt(len(prods))
    assert abs(np.mean(prods) - target) < 3.0 * se2


def test_increment_variances(params_ref):
    rng = sde.episode_rng(4, 0)
    dt = 0.25
    ks = [sde.draw_increments(params_ref, dt, rng).dw_kappa for _ in range(200_000)]
    assert np.var(ks) == pytest.approx(dt, rel=0.02)


# ---------------------------------------------------------------- stepping

def test_step_zero_noise_zero_action_is_noop(params_ref):
    inc = sde.NoiseIncrements(dw_kappa=0.0, dw=np.zeros(1))
    y_next, dL = sde.step_reflected(1.0, np.zeros(1), params_ref, 0.01, inc)
    assert y_next == 1.0 and dL == 0.0
    y_next, dL = sde.step_reflected(0.0, np.zeros(1), params_ref, 0.01, inc)
    assert y_next == 0.0 and dL == 0.0


def test_step_negative_drift_credits_local_time():
    # sigma_z -> 0 surrogate: zero noise, action drift pushes below zero
    params = ModelParams(mu=[-1.0], sigma=[[1.0]], sigma_z=1e-12, kappa=0.5, eta=[1.0], rho=0.2)
    inc = sde.NoiseIncrements(dw_kappa=0.0, dw=np.zeros(1))
    y_next, dL = sde.step_reflected(0.0, np.array([0.01]), params, 1.0, inc)
    assert y_next == 0.0
    assert dL == pytest.approx(0.01, abs=1e-12)


def test_step_no_local_time_when_positive(params_ref):
    inc = sde.NoiseIncrements(dw_kappa=-0.1, dw=np.array([0.05]))
    y_next, dL = sde.step_reflected(0.5, np.array([0.3]), params_ref, 0.01, inc)
    assert y_next > 0.0
    assert dL == 0.0


def test_step_rejects_non_finite(params_ref):
    inc = sde.NoiseIncrements(dw_kappa=math.nan, dw=np.zeros(1))
    with pytest.raises(sde.NonFinite):
        sde.step_reflected(0.5, np.zeros(1), params_ref, 0.01, inc)


# ---------------------------------------------------------------- episodes

def test_episode_constant_when_dynamics_off():
    params = ModelParams(mu=[0.2], sigma=[[1.0]], sigma_z=1e-300, kappa=0.5, eta=[1.0], rho=0.2)
    rng = sde.episode_rng(5, 0)
    path = sde.simulate_episode(lambda y, r: np.zeros(1), 0.7, 1.0, 0.01, params, rng)
    assert np.allclose(path.states, 0.7, atol=1e-12)
    assert np.all(path.local_time == 0.0)


def test_episode_invariants_random_policies(params_ref):
    rng_master = np.random.default_rng(6)
    for i in range(1000):
        scale = float(rng_master.uniform(0.1, 2.0))
        rng = sde.episode_rng(7, i)
        path = sde.simulate_episode(
            lambda y, r, s=scale: s * r.standard_normal(1), 0.2, 1.0, 0.02, params_ref, rng
        )
        assert np.all(path.states >= 0.0)
        dL = np.diff(path.local_time)
        assert np.all(dL >= 0.0)
        # local time increments only push at the boundary
        assert np.all(path.states[1:][dL > 0.0] == 0.0)


def test_episode_determinism(params_ref):
    def policy(y, r):
        return r.standard_normal(1)

    p1 = sde.simulate_episode(policy, 1.0, 2.0, 0.01, params_ref, sde.episode_rng(42, 3))
    p2 = sde.simulate_episode(policy, 1.0, 2.0, 0.01, params_ref, sde.episode_rng(42, 3))
    assert np.array_equal(p1.states, p2.states)
    assert np.array_equal(p1.local_time, p2.local_time)


def test_environment_clamps_huge_actions(params_ref):
    env = sde.Environment(params=params_ref, dt=0.01, action_cap=1.0)
    rng = sde.episode_rng(8, 0)
    env.step(0.5, np.array([50.0]), rng)
    assert env.clamp_events == 1


def test_batch_matches_sequential_rollout(params_ref, pp_star):
    mean_coef, cov_chol = pp_star.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(
        params_ref, mean_coef, cov_chol, 5, 1.0, 1.0, 0.01, seed=99
    )
    for i in (0, 3):
        env = sde.Environment(params=params_ref, dt=0.01)
        states, actions, local = sde.rollout_linear_gaussian(
            env, mean_coef, cov_chol, 1.0, 100, sde.episode_rng(99, i)
        )
        assert np.array_equal(states, batch.states[i])
        assert np.array_equal(actions, batch.actions[i])
        assert np.array_equal(local, batch.local_time[i])


# The kernel against the step-by-step loops it replaced: the reference policy;
# a small cap that clamps about a third of the steps; and a large step with a
# large mean action, where 1 + c_k <= 0 reflects whatever the state.
KERNEL_CASES = {
    "reference": (None, 0.01, sde.DEFAULT_ACTION_CAP),
    "clamped": (None, 0.01, 1.5),
    "certain_reflection": (([2.0], [[1.0]]), 0.25, sde.DEFAULT_ACTION_CAP),
}


def _assert_close(kernel, loop):
    for x, y in zip(kernel, loop):
        assert np.allclose(x, y, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_kernel_matches_loop_oracles(params_ref, pp_star, case):
    coefs, dt, cap = KERNEL_CASES[case]
    mean_coef, cov_chol = coefs or pp_star.policy_coefficients()
    n_steps = 200
    clamps, certain = 0, 0
    for i in range(10):
        env, env_loop = (sde.Environment(params=params_ref, dt=dt, action_cap=cap) for _ in range(2))
        kernel = sde.rollout_linear_gaussian(env, mean_coef, cov_chol, 1.0, n_steps, sde.episode_rng(31, i))
        loop = rollout_linear_gaussian_loop(env_loop, mean_coef, cov_chol, 1.0, n_steps, sde.episode_rng(31, i))
        _assert_close(kernel, loop)
        assert np.array_equal(np.diff(kernel[2]) > 0.0, np.diff(loop[2]) > 0.0)
        assert env.clamp_events == env_loop.clamp_events
        clamps += env.clamp_events
        # dL = 1 - (1+y)(1+c) >= 1 exactly when 1 + c <= 0
        certain += int(np.count_nonzero(np.diff(loop[2]) >= 1.0))
    assert (clamps > 0) == (case == "clamped")
    assert (certain > 0) == (case == "certain_reflection")

    args = (params_ref, mean_coef, cov_chol, 20, 1.0, n_steps * dt, dt, 32, cap)
    batch, batch_loop = sde.simulate_linear_gaussian_batch(*args), simulate_linear_gaussian_batch_loop(*args)
    _assert_close(
        (batch.states, batch.actions, batch.local_time),
        (batch_loop.states, batch_loop.actions, batch_loop.local_time),
    )
    assert np.array_equal(np.diff(batch.local_time) > 0.0, np.diff(batch_loop.local_time) > 0.0)
    assert batch.clamp_events == batch_loop.clamp_events


def test_kernel_names_non_finite_path_and_step(params_ref):
    # with no cap, a mean action of 1e200 overflows y within a few steps
    args = (params_ref, [1e200], [[1.0]], 20, 1.0, 0.1, 0.01, 5, math.inf)
    messages = []
    for simulate in (sde.simulate_linear_gaussian_batch, simulate_linear_gaussian_batch_loop):
        with pytest.raises(sde.NonFinite) as err, np.errstate(over="ignore", invalid="ignore"):
            simulate(*args)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("path ")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    y0=st.floats(0.0, 5.0),
    log10_cap=st.floats(-1.0, 6.0),
)
def test_kernel_path_invariants(seed, d, y0, log10_cap):
    rng = np.random.default_rng(seed)
    params = random_params(rng, d)   # eta is not a unit vector
    mean_coef = rng.uniform(-2.0, 2.0, d)
    cov_chol = np.eye(d) + np.tril(rng.uniform(-1.0, 1.0, (d, d)))
    cap, dt, n_steps, n_paths = 10.0**log10_cap, 0.05, 60, 20
    batch = sde.simulate_linear_gaussian_batch(
        params, mean_coef, cov_chol, n_paths, y0, n_steps * dt, dt, seed, cap
    )
    dL = np.diff(batch.local_time, axis=1)
    assert np.all(batch.states >= 0.0)
    assert np.all(batch.states[:, 1:][dL > 0.0] == 0.0)
    assert np.all(dL >= 0.0)
    # rows from a full block and from the short last block both equal lone rollouts
    env = sde.Environment(params=params, dt=dt, action_cap=cap)
    for i in range(n_paths):
        states, actions, local = sde.rollout_linear_gaussian(
            env, mean_coef, cov_chol, y0, n_steps, sde.episode_rng(seed, i)
        )
        assert np.array_equal(states, batch.states[i])
        assert np.array_equal(actions, batch.actions[i])
        assert np.array_equal(local, batch.local_time[i])
    assert env.clamp_events == batch.clamp_events


def test_discounted_local_time_matches_value_decomposition(params_ref, exploratory_ref, pp_star):
    # E[int e^{-rho t} dL] + E[int e^{-rho t} q dt] + e^{-rho T} E[v(Y_T)] = v(y0)
    rho, T, dt, n = 0.2, 8.0, 0.01, 4000
    mean_coef, cov_chol = pp_star.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(
        params_ref, mean_coef, cov_chol, n, 1.0, T, dt, seed=17
    )
    times = batch.times
    disc_mid = np.exp(-rho * times[:-1])
    ys = batch.states[:, :-1]
    s = 1.0 + ys
    ppT = float(pp_star.psi2_sq[0, 0])
    a = batch.actions[:, :, 0]
    qvals = (
        pp_star.psi1[0] * a / s
        - ppT * a * a / (2.0 * s * s)
        - rho * np.log1p(ys)
        + pp_star.psi3
    )
    per_path = (
        math.exp(-rho * T) * (np.log1p(batch.states[:, -1]) + exploratory_ref.xi_star)
        - np.sum(disc_mid * qvals * dt, axis=1)
        - np.sum(disc_mid * np.diff(batch.local_time, axis=1), axis=1)
    )
    mean = per_path.mean()
    se = per_path.std(ddof=1) / math.sqrt(n)
    v0 = exploratory_ref.value(1.0)
    assert abs(mean - v0) < 3.0 * se + 0.01  # 0.01 covers the O(dt) scheme bias


# ------------------------------------------------------------- aggregated

def test_aggregated_coefficients_reference(params_ref):
    b, s = sde.aggregated_coefficients(params_ref, GAMMA)
    assert b == pytest.approx(REF["agg_drift"], abs=1e-12)
    assert s == pytest.approx(REF["agg_diff"], abs=1e-12)


def test_aggregated_rejects_negative_variance():
    # strongly negative correlation channel makes the root argument negative
    params = ModelParams(mu=[0.05], sigma=[[1.0]], sigma_z=1.0, kappa=0.1, eta=[-1.0], rho=0.2)
    with pytest.raises(sde.InvalidVariance):
        sde.aggregated_coefficients(params, 0.001)


def test_aggregated_path_invariants(params_ref):
    # dt = 2 makes 1 + c_k <= 0 on about 2% of the steps
    for dt in (0.01, 2.0):
        path = sde.simulate_aggregated(params_ref, GAMMA, 0.0, 500 * dt, dt, sde.episode_rng(9, 0))
        assert np.all(path.states >= 0.0)
        dL = np.diff(path.local_time)
        assert np.all(dL >= 0.0)
        assert np.all(path.states[1:][dL > 0.0] == 0.0)
        assert path.actions is None
        loop = simulate_aggregated_loop(params_ref, GAMMA, 0.0, 500 * dt, dt, sde.episode_rng(9, 0))
        _assert_close((path.states, path.local_time), (loop.states, loop.local_time))
        assert np.array_equal(dL > 0.0, np.diff(loop.local_time) > 0.0)
    assert np.any(dL >= 1.0)


def test_aggregated_terminal_matches_path_version(params_ref):
    # same stream, same scheme: the vectorized terminal sampler is consistent
    y_term = sde.aggregated_terminal_sample(params_ref, GAMMA, 1.0, 1.0, 0.01, 3, seed=11)
    assert y_term.shape == (3,)
    assert np.all(y_term >= 0.0)


# -------------------------------------------------------------- skorokhod

def test_skorokhod_no_push_when_started_high(params_ref):
    lp = sde.skorokhod_log_path(params_ref, GAMMA, 50.0, 1.0, 0.01, sde.episode_rng(12, 0))
    assert np.all(lp.k == 0.0)
    # plain drifted Brownian motion then
    b, s = sde.aggregated_coefficients(params_ref, GAMMA)
    mu_hat = b - 0.5 * s * s
    expected = 50.0 + mu_hat * lp.times + s * lp.b
    assert np.allclose(lp.h, expected, atol=1e-12)


def test_skorokhod_pathwise_bound(params_ref):
    b, s = sde.aggregated_coefficients(params_ref, GAMMA)
    mu_hat = b - 0.5 * s * s
    h0 = 0.3
    for i in range(50):
        lp = sde.skorokhod_log_path(params_ref, GAMMA, h0, 2.0, 0.01, sde.episode_rng(13, i))
        run_max_minus_b = np.maximum.accumulate(np.maximum(-lp.b, 0.0))
        bound = h0 + abs(mu_hat) * lp.times + s * run_max_minus_b
        assert np.all(lp.k <= bound + 1e-12)
        assert np.all(lp.h >= -1e-12)


def test_skorokhod_terminal_sampler_matches_path(params_ref):
    h = sde.skorokhod_terminal_sample(params_ref, GAMMA, 0.5, 1.0, 0.01, 4, seed=14)
    assert h.shape == (4,)
    assert np.all(h >= 0.0)


def test_scheme_consistency_ks_smoke(params_ref):
    # small-n version of the oracle-equivalence gate
    n, T, dt = 2000, 1.0, 1e-3
    y_euler = sde.aggregated_terminal_sample(params_ref, GAMMA, 1.0, T, dt, n, seed=21)
    h_orc = sde.skorokhod_terminal_sample(params_ref, GAMMA, math.log1p(1.0), T, dt, n, seed=1021)
    res = ks_2samp(y_euler, np.expm1(h_orc))
    assert res.pvalue > 0.01


def test_export_paths_csv(tmp_path, params_ref, pp_star):
    mean_coef, cov_chol = pp_star.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(
        params_ref, mean_coef, cov_chol, 2, 0.5, 0.1, 0.01, seed=30
    )
    csv_file = tmp_path / "paths.csv"
    meta_file = tmp_path / "paths.meta.json"
    sde.export_paths_csv(batch, csv_file, meta_file, {"seed": 30})
    lines = csv_file.read_text().strip().splitlines()
    assert lines[0] == "episode,k,t,y,action_1,dL,L"
    assert len(lines) == 1 + 2 * 11
    assert meta_file.exists()
