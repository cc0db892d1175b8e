"""Simulator layer: increments, reflection accounting, path laws, oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from benchtrack import qlearn, sde
from benchtrack.model import ModelParams, exploratory_constants
from conftest import random_params
from oracles import (
    REF,
    export_paths_csv_per_row,
    rollout_linear_gaussian_loop,
    simulate_aggregated_loop,
    simulate_aggregated_per_path,
    simulate_linear_gaussian_batch_loop,
    skorokhod_log_path,
)

GAMMA = 0.2


# ------------------------------------------------------------- increments
# With cov_chol = 0 the action is (1 + y) m, so one step from far above the
# boundary gives (y1 - y0) / (1 + y0) = c_0 = m' mu dt - sigma_z dWk + m' sigma dW
# with mean m' mu dt and variance
# dt (sigma_z^2 + |sigma' m|^2 - 2 sigma_z sqrt(1 - kappa^2) eta_hat' sigma' m),
# eta_hat = eta / |eta|: the law of the Brownian increments, seen through the batch simulator.

# d = 2 with a non-unit eta, so a benchmark noise built from the raw eta shows
PARAMS_D2 = ModelParams(mu=[0.3, -0.2], sigma=[[0.8, 0.0], [0.3, 0.6]], sigma_z=0.5,
                        kappa=0.4, eta=[0.6, -0.3], rho=0.2)


def _one_step_increments(params, m, seed, n=60_000, dt=0.01, y0=50.0):
    d = params.d
    batch = sde.simulate_linear_gaussian_batch(params, m, np.zeros((d, d)), n, y0, dt, dt, seed)
    assert np.all(batch.local_time == 0.0)  # no reflection this far from 0
    return (batch.states[:, 1] - y0) / (1.0 + y0)


def _assert_law(x, params, m, dt=0.01):
    m = np.asarray(m, dtype=float)
    eta_hat = params.eta / np.linalg.norm(params.eta)
    sm = params.sigma.T @ m
    mean = float(m @ params.mu) * dt
    var = dt * (params.sigma_z**2 + float(sm @ sm)
                - 2.0 * params.sigma_z * math.sqrt(1.0 - params.kappa**2) * float(eta_hat @ sm))
    n = len(x)
    assert abs(x.mean() - mean) < 3.0 * math.sqrt(var / n)
    # standard error of the sample variance, from the sample fourth moment
    se_var = math.sqrt((np.mean((x - x.mean()) ** 4) - x.var() ** 2) / n)
    assert abs(x.var(ddof=1) - var) < 3.0 * se_var


def test_increment_variances():
    # no action: the benchmark's own noise, with variance sigma_z^2 dt whatever |eta|
    _assert_law(_one_step_increments(PARAMS_D2, [0.0, 0.0], seed=1), PARAMS_D2, [0.0, 0.0])


def test_increments_covariance_monte_carlo():
    # the action loads the asset noise, which correlates with the benchmark's
    m = [0.7, 0.4]
    _assert_law(_one_step_increments(PARAMS_D2, m, seed=2), PARAMS_D2, m)


def test_increments_kappa_one_independent_of_assets():
    # at kappa = 1 the cross term vanishes: the variances simply add
    params = ModelParams(mu=PARAMS_D2.mu, sigma=PARAMS_D2.sigma, sigma_z=0.5, kappa=1.0,
                         eta=PARAMS_D2.eta, rho=0.2)
    m = [0.7, 0.4]
    _assert_law(_one_step_increments(params, m, seed=3), params, m)


# ---------------------------------------------------------------- stepping

class _ZeroNoise:
    """Stands in for a Generator whose every normal draw is exactly 0."""

    def standard_normal(self, out):
        out[...] = 0.0
        return out


def test_step_zero_noise_zero_action_is_noop(params_ref):
    env = sde.Environment(params=params_ref, dt=0.01)
    for y0 in (1.0, 0.0):
        states, actions, local = sde.rollout_linear_gaussian(env, [0.0], [[0.0]], y0, 1, _ZeroNoise())
        assert states[1] == y0 and local[1] == 0.0
        assert actions[0, 0] == 0.0


def test_step_negative_drift_credits_local_time():
    # near-zero noise: the action's drift pushes the state from 0 below zero
    params = ModelParams(mu=[-1.0], sigma=[[1e-15]], sigma_z=1e-15, kappa=0.5, eta=[1.0], rho=0.2)
    env = sde.Environment(params=params, dt=1.0)
    states, _, local = sde.rollout_linear_gaussian(env, [0.01], [[0.0]], 0.0, 1, sde.episode_rng(0, 0))
    assert states[1] == 0.0
    assert local[1] == pytest.approx(0.01, abs=1e-12)


def test_step_no_local_time_when_positive(params_ref, pp_star):
    env = sde.Environment(params=params_ref, dt=0.01)
    mean_coef, cov_chol = pp_star.policy_coefficients()
    states, _, local = sde.rollout_linear_gaussian(env, mean_coef, cov_chol, 50.0, 100, sde.episode_rng(1, 0))
    assert np.all(states > 0.0)
    assert np.all(local == 0.0)


def test_step_rejects_non_finite(params_ref):
    # with no cap, a mean action of 1e200 overflows y within a few steps
    env = sde.Environment(params=params_ref, dt=0.01, action_cap=math.inf)
    with pytest.raises(sde.NonFinite, match="path 0, step"), np.errstate(over="ignore", invalid="ignore"):
        sde.rollout_linear_gaussian(env, [1e200], [[1.0]], 0.5, 10, sde.episode_rng(2, 0))


# ---------------------------------------------------------------- episodes

def test_episode_constant_when_dynamics_off():
    params = ModelParams(mu=[0.2], sigma=[[1.0]], sigma_z=1e-300, kappa=0.5, eta=[1.0], rho=0.2)
    env = sde.Environment(params=params, dt=0.01)
    states, _, local = sde.rollout_linear_gaussian(env, [0.0], [[0.0]], 0.7, 100, sde.episode_rng(5, 0))
    assert np.allclose(states, 0.7, atol=1e-12)
    assert np.all(local == 0.0)


def test_episode_invariants_random_policies(params_ref):
    rng_master = np.random.default_rng(6)
    env = sde.Environment(params=params_ref, dt=0.02)
    for i in range(1000):
        scale = float(rng_master.uniform(0.1, 2.0))
        states, _, local = sde.rollout_linear_gaussian(
            env, [0.0], [[scale]], 0.2, 50, sde.episode_rng(7, i)
        )
        assert np.all(states >= 0.0)
        dL = np.diff(local)
        assert np.all(dL >= 0.0)
        # local time increments only push at the boundary
        assert np.all(states[1:][dL > 0.0] == 0.0)


def test_episode_determinism(params_ref, pp_star):
    mean_coef, cov_chol = pp_star.policy_coefficients()
    env = sde.Environment(params=params_ref, dt=0.01)
    p1, p2 = (sde.rollout_linear_gaussian(env, mean_coef, cov_chol, 1.0, 200, sde.episode_rng(42, 3))
              for _ in range(2))
    for x, y in zip(p1, p2):
        assert np.array_equal(x, y)


def test_environment_clamps_huge_actions(params_ref):
    env = sde.Environment(params=params_ref, dt=0.01, action_cap=1.0)
    _, actions, _ = sde.rollout_linear_gaussian(env, [50.0], [[0.0]], 0.5, 1, sde.episode_rng(8, 0))
    assert env.clamp_events == 1
    assert abs(actions[0, 0]) == pytest.approx(1.0, abs=1e-15)


def test_episode_streams_draw_what_episode_rng_draws():
    stream = sde.episode_streams()
    rng = stream(5, 5)
    for seed in (0, 1, -1, 2**63 + 5, 2**64 - 1):
        for i in (0, 1, 37, 2**40):
            # leave the previous key part-way through its buffer and with a cached 32-bit word
            rng.standard_normal(3)
            rng.integers(0, 2**32, dtype=np.uint32)
            rng = stream(seed, i)
            assert np.array_equal(rng.standard_normal(101), sde.episode_rng(seed, i).standard_normal(101))


def test_episode_rng_keys_every_seed_apart():
    # the key is (seed mod 2^64, index) exactly, so no two seeds mod 2^64 share a stream
    def draws(seed):
        return sde.episode_rng(seed, 0).standard_normal(4).tobytes()

    assert draws(-1) == draws(2**64 - 1)
    assert len({draws(s) for s in (0, -1, 2**63, 2**63 + 5)}) == 4
    assert sde.episode_rng(2**63 + 5, 7).bit_generator.state["state"]["key"].tolist() == [2**63 + 5, 7]


def test_rollout_workspace_reuse_leaves_earlier_results_alone(params_ref, pp_star):
    mean_coef, cov_chol = pp_star.policy_coefficients()
    env = sde.Environment(params=params_ref, dt=0.01)
    ws = sde.rollout_workspace(env, 100)
    first = sde.rollout_linear_gaussian(env, mean_coef, cov_chol, 1.0, 100, sde.episode_rng(3, 1), workspace=ws)
    kept = [a.copy() for a in first]
    second = sde.rollout_linear_gaussian(env, mean_coef, cov_chol, 0.5, 100, sde.episode_rng(3, 2), workspace=ws)
    for a, b in zip(first, kept):
        assert np.array_equal(a, b)
    assert not np.array_equal(first[0], second[0])
    for got, y0, i in ((first, 1.0, 1), (second, 0.5, 2)):
        fresh = sde.rollout_linear_gaussian(env, mean_coef, cov_chol, y0, 100, sde.episode_rng(3, i))
        for a, b in zip(got, fresh):
            assert np.array_equal(a, b)


def test_rollout_refuses_a_workspace_of_another_run(params_ref):
    env = sde.Environment(params=params_ref, dt=0.01)
    ws = sde.rollout_workspace(env, 100)
    for other, n_steps in ((sde.Environment(params=params_ref, dt=0.02), 100), (env, 50)):
        with pytest.raises(ValueError, match="workspace"):
            sde.rollout_linear_gaussian(other, [0.1], [[0.1]], 1.0, n_steps, sde.episode_rng(0, 0), workspace=ws)

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
# a small cap that clamps about a third of the steps; a large step with a
# large mean action, where 1 + c_k <= 0 reflects whatever the state; and no
# action with a vanishing benchmark volatility, where nothing moves.
KERNEL_CASES = {
    "reference": (None, 0.01, sde.DEFAULT_ACTION_CAP, 0.2),
    "clamped": (None, 0.01, 1.5, 0.2),
    "certain_reflection": (([2.0], [[1.0]]), 0.25, sde.DEFAULT_ACTION_CAP, 0.2),
    "zero_dynamics": (([0.0], [[0.0]]), 0.01, sde.DEFAULT_ACTION_CAP, 1e-300),
}


def _assert_close(kernel, loop):
    for x, y in zip(kernel, loop):
        assert np.allclose(x, y, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_kernel_matches_loop_oracles(params_ref, pp_star, case):
    coefs, dt, cap, sigma_z = KERNEL_CASES[case]
    params = dataclasses.replace(params_ref, sigma_z=sigma_z)
    mean_coef, cov_chol = coefs or pp_star.policy_coefficients()
    n_steps = 200
    clamps, certain = 0, 0
    for i in range(10):
        env, env_loop = (sde.Environment(params=params, dt=dt, action_cap=cap) for _ in range(2))
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

    args = (params, mean_coef, cov_chol, 20, 1.0, n_steps * dt, dt, 32, cap)
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


def test_linear_gaussian_blocks_stream_the_batch_rows(params_ref):
    # 37 paths: two full blocks and a short one, all views of one set of buffers
    args = (params_ref, [0.3], [[0.5]], 37, 0.0, 0.5, 0.01, 8)
    batch = sde.simulate_linear_gaussian_batch(*args)
    blocks = sde.linear_gaussian_blocks(*args)
    first = next(blocks)
    rows = [(first.states.copy(), first.actions.copy(), first.local_time.copy())]
    for block in blocks:
        assert np.shares_memory(block.states, first.states)
        assert np.array_equal(block.times, batch.times)
        rows.append((block.states.copy(), block.actions.copy(), block.local_time.copy()))
    assert [len(r[0]) for r in rows] == [16, 16, 5]
    for streamed, stored in zip(zip(*rows), (batch.states, batch.actions, batch.local_time)):
        assert np.array_equal(np.concatenate(streamed), stored)
    assert np.any(np.diff(batch.local_time, axis=1) > 0.0)


def test_streamed_block_names_the_global_non_finite_path(params_ref):
    # action scale 1e60 with no cap: a path overflows after five rising steps;
    # on this stream the first to do so is path 36, in the short third block
    args = (params_ref, [0.0], [[1e60]], 40, 1.0, 0.06, 0.01, 3, math.inf)
    with pytest.raises(sde.NonFinite) as loop_err, np.errstate(over="ignore", invalid="ignore"):
        simulate_linear_gaussian_batch_loop(*args)
    with pytest.raises(sde.NonFinite) as err, np.errstate(over="ignore", invalid="ignore"):
        for _ in sde.linear_gaussian_blocks(*args):
            pass
    assert str(err.value) == str(loop_err.value) == "path 36, step 5: non-finite state proposal"


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
    qvals = qlearn.q_value(pp_star, rho, batch.states[:, :-1], batch.actions)
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
        paths = sde.simulate_aggregated(params_ref, GAMMA, 0.0, 500 * dt, dt, 1, seed=9)
        path = next(iter(paths))
        assert np.all(path.states >= 0.0)
        dL = np.diff(path.local_time)
        assert np.all(dL >= 0.0)
        assert np.all(path.states[1:][dL > 0.0] == 0.0)
        assert paths.actions.shape == (1, 500, 0)
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

# A BatchPaths row holds Y = expm1(H) and the push K; the driving Brownian
# path B of row i is the oracle's on the same stream (seed, i).

def test_skorokhod_no_push_when_started_high(params_ref):
    paths = sde.skorokhod_paths(params_ref, GAMMA, 50.0, 1.0, 0.01, 1, seed=12)
    bpath = skorokhod_log_path(params_ref, GAMMA, 50.0, 1.0, 0.01, sde.episode_rng(12, 0)).b
    assert np.all(paths.local_time == 0.0)
    # plain drifted Brownian motion then
    b, s = sde.aggregated_coefficients(params_ref, GAMMA)
    mu_hat = b - 0.5 * s * s
    expected = 50.0 + mu_hat * paths.times + s * bpath
    assert np.allclose(np.log1p(paths.states[0]), expected, atol=1e-12)


def test_skorokhod_pathwise_bound(params_ref):
    b, s = sde.aggregated_coefficients(params_ref, GAMMA)
    mu_hat = b - 0.5 * s * s
    h0 = 0.3
    paths = sde.skorokhod_paths(params_ref, GAMMA, h0, 2.0, 0.01, 50, seed=13)
    for i, path in enumerate(paths):
        bpath = skorokhod_log_path(params_ref, GAMMA, h0, 2.0, 0.01, sde.episode_rng(13, i)).b
        run_max_minus_b = np.maximum.accumulate(np.maximum(-bpath, 0.0))
        bound = h0 + abs(mu_hat) * path.times + s * run_max_minus_b
        assert np.all(path.local_time <= bound + 1e-12)
        assert np.all(np.log1p(path.states) >= -1e-12)


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


@pytest.mark.parametrize("n_paths", [1, 37])   # 37 = two full blocks and a short one
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("scheme", ["episode", "aggregated", "skorokhod"])
def test_batched_schemes_match_per_path_oracles(tmp_path, params_ref, scheme, d, n_paths):
    params = params_ref if d == 1 else PARAMS_D2
    gamma = params.rho / d   # where the explicit policy holds
    y0, T, dt, seed = 0.0, 2.0, 0.02, 17
    h0 = math.log1p(y0)
    K = round(T / dt)
    if scheme == "episode":
        mean_coef, cov_chol = qlearn.PolicyParams.from_constants(
            exploratory_constants(params, gamma)).policy_coefficients()
        batch = sde.simulate_linear_gaussian_batch(params, mean_coef, cov_chol, n_paths, y0, T, dt, seed)
        env = sde.Environment(params, dt)

        def one(rng):
            states, actions, local = sde.rollout_linear_gaussian(env, mean_coef, cov_chol, y0, K, rng)
            return sde.EpisodePath(times=batch.times, states=states, actions=actions, local_time=local)
    elif scheme == "aggregated":
        batch = sde.simulate_aggregated(params, gamma, y0, T, dt, n_paths, seed)

        def one(rng):
            return simulate_aggregated_per_path(params, gamma, y0, T, dt, rng)
    else:
        batch = sde.skorokhod_paths(params, gamma, h0, T, dt, n_paths, seed)

        def one(rng):
            lp = skorokhod_log_path(params, gamma, h0, T, dt, rng)
            return sde.EpisodePath(times=lp.times, states=np.expm1(lp.h), actions=np.empty((K, 0)), local_time=lp.k)

    oracle = [one(sde.episode_rng(seed, i)) for i in range(n_paths)]
    assert batch.actions.shape == (n_paths, K, d if scheme == "episode" else 0)
    assert np.any(np.diff(batch.local_time) > 0.0)   # the boundary is exercised
    for row, path in zip(batch, oracle, strict=True):
        for field in ("times", "states", "actions", "local_time"):
            assert np.array_equal(getattr(row, field), getattr(path, field)), field
    meta = {"scheme": scheme, "n_paths": n_paths}
    sde.export_paths_csv(batch, tmp_path / "bulk.csv", tmp_path / "bulk.json", meta)
    export_paths_csv_per_row(oracle, tmp_path / "rows.csv", tmp_path / "rows.json", meta)
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert (tmp_path / "bulk.json").read_bytes() == (tmp_path / "rows.json").read_bytes()
