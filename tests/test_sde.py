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
    EpisodePath,
    episode_paths,
    exact_increment_two_factor,
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


def test_step_zero_noise_zero_action_falls_by_half_the_variance(params_ref):
    # with every normal 0 and no action, ln(1+y) falls by Ito's sigma_z^2 dt / 2;
    # from y0 = 0 the push takes that drop back and credits it as dL
    dt = 0.01
    drop = 0.5 * params_ref.sigma_z**2 * dt
    for y0 in (1.0, 0.0):
        states, actions, local = sde.rollout_linear_gaussian(params_ref, [0.0], [[0.0]], y0, 1, dt, _ZeroNoise())
        if y0 > 0.0:
            assert math.log1p(states[1]) - math.log1p(y0) == pytest.approx(-drop, rel=1e-11)
            assert local[1] == 0.0
        else:
            assert states[1] == 0.0
            assert local[1] == pytest.approx(drop, rel=1e-12)
        assert actions[0, 0] == 0.0


def test_step_negative_drift_credits_local_time():
    # near-zero noise: the action's drift pushes the state from 0 below zero
    params = ModelParams(mu=[-1.0], sigma=[[1e-15]], sigma_z=1e-15, kappa=0.5, eta=[1.0], rho=0.2)
    states, _, local = sde.rollout_linear_gaussian(params, [0.01], [[0.0]], 0.0, 1, 1.0, sde.episode_rng(0, 0))
    assert states[1] == 0.0
    assert local[1] == pytest.approx(0.01, abs=1e-12)


def test_step_no_local_time_when_positive(params_ref, pp_star):
    mean_coef, cov_chol = pp_star.policy_coefficients()
    states, _, local = sde.rollout_linear_gaussian(params_ref, mean_coef, cov_chol, 50.0, 100, 0.01,
                                                   sde.episode_rng(1, 0))
    assert np.all(states > 0.0)
    assert np.all(local == 0.0)


def test_step_rejects_non_finite(params_ref):
    # with no cap, a mean action of 1e200 overflows y within a few steps
    with pytest.raises(sde.NonFinite, match="path 0, step"), np.errstate(over="ignore", invalid="ignore"):
        sde.rollout_linear_gaussian(params_ref, [1e200], [[1.0]], 0.5, 10, 0.01, sde.episode_rng(2, 0), math.inf)


# ---------------------------------------------------------------- episodes

def test_episode_constant_when_dynamics_off():
    params = ModelParams(mu=[0.2], sigma=[[1.0]], sigma_z=1e-300, kappa=0.5, eta=[1.0], rho=0.2)
    states, _, local = sde.rollout_linear_gaussian(params, [0.0], [[0.0]], 0.7, 100, 0.01, sde.episode_rng(5, 0))
    assert np.allclose(states, 0.7, atol=1e-12)
    assert np.all(local == 0.0)


def test_episode_invariants_random_policies(params_ref):
    rng_master = np.random.default_rng(6)
    for i in range(1000):
        scale = float(rng_master.uniform(0.1, 2.0))
        states, _, local = sde.rollout_linear_gaussian(
            params_ref, [0.0], [[scale]], 0.2, 50, 0.02, sde.episode_rng(7, i)
        )
        assert np.all(states >= 0.0)
        dL = np.diff(local)
        assert np.all(dL >= 0.0)
        # local time increments only push at the boundary
        assert np.all(states[1:][dL > 0.0] == 0.0)


def test_episode_determinism(params_ref, pp_star):
    mean_coef, cov_chol = pp_star.policy_coefficients()
    p1, p2 = (sde.rollout_linear_gaussian(params_ref, mean_coef, cov_chol, 1.0, 200, 0.01, sde.episode_rng(42, 3))
              for _ in range(2))
    for x, y in zip(p1, p2):
        assert np.array_equal(x, y)


def test_environment_clamps_huge_actions(params_ref):
    # a one-row batch on stream (8, 0) counts the clamp, and the rollout on that stream is its row
    batch = sde.simulate_linear_gaussian_batch(params_ref, [50.0], [[0.0]], 1, 0.5, 0.01, 0.01, 8, 1.0)
    rollout = sde.rollout_linear_gaussian(params_ref, [50.0], [[0.0]], 0.5, 1, 0.01, sde.episode_rng(8, 0), 1.0)
    assert batch.clamp_events == 1
    assert abs(batch.actions[0, 0, 0]) == pytest.approx(1.0, abs=1e-15)
    for got, row in zip(rollout, (batch.states[0], batch.actions[0], batch.local_time[0])):
        assert np.array_equal(got, row)


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



def test_batch_matches_sequential_rollout(params_ref, pp_star):
    mean_coef, cov_chol = pp_star.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(
        params_ref, mean_coef, cov_chol, 5, 1.0, 1.0, 0.01, seed=99
    )
    for i in (0, 3):
        states, actions, local = sde.rollout_linear_gaussian(
            params_ref, mean_coef, cov_chol, 1.0, 100, 0.01, sde.episode_rng(99, i)
        )
        assert np.array_equal(states, batch.states[i])
        assert np.array_equal(actions, batch.actions[i])
        assert np.array_equal(local, batch.local_time[i])


# The kernel against the step-by-step loops: the reference policy; a small
# cap that clamps about a third of the steps; a large step with a large mean
# action, whose variance drags ln(1+y) to 0 on most steps; and no action
# with a vanishing benchmark volatility, where nothing moves.
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
    # the rollouts are the rows of a 10-row batch on the same streams, which counts their clamps
    rows = sde.simulate_linear_gaussian_batch(params, mean_coef, cov_chol, 10, 1.0, n_steps * dt, dt, 31, cap)
    clamps = 0
    for i in range(10):
        kernel = sde.rollout_linear_gaussian(params, mean_coef, cov_chol, 1.0, n_steps, dt, sde.episode_rng(31, i), cap)
        *loop, loop_clamps = rollout_linear_gaussian_loop(params, mean_coef, cov_chol, 1.0, n_steps, dt,
                                                          sde.episode_rng(31, i), cap)
        _assert_close(kernel, loop)
        assert np.array_equal(np.diff(kernel[2]) > 0.0, np.diff(loop[2]) > 0.0)
        for got, row in zip(kernel, (rows.states[i], rows.actions[i], rows.local_time[i])):
            assert np.array_equal(got, row)
        clamps += loop_clamps
    assert rows.clamp_events == clamps
    assert (clamps > 0) == (case == "clamped")

    args = (params, mean_coef, cov_chol, 20, 1.0, n_steps * dt, dt, 32, cap)
    batch, batch_loop = sde.simulate_linear_gaussian_batch(*args), simulate_linear_gaussian_batch_loop(*args)
    _assert_close(
        (batch.states, batch.actions, batch.local_time),
        (batch_loop.states, batch_loop.actions, batch_loop.local_time),
    )
    assert np.array_equal(np.diff(batch.local_time) > 0.0, np.diff(batch_loop.local_time) > 0.0)
    assert batch.clamp_events == batch_loop.clamp_events


@pytest.mark.parametrize("cap", [sde.DEFAULT_ACTION_CAP, 1.5])
def test_local_time_is_the_push(params_ref, pp_star, cap):
    # L is the push of the Lindley recursion from L_0 = +0.0, and a replay after a clamp
    # adds its push to L_k, so L stays continuous and non-decreasing across the replay
    mean_coef, cov_chol = pp_star.policy_coefficients()
    args = (params_ref, mean_coef, cov_chol, 20, 0.0, 4.0, 0.01, 33, cap)
    batch, loop = sde.simulate_linear_gaussian_batch(*args), simulate_linear_gaussian_batch_loop(*args)
    L = batch.local_time
    _assert_close((L,), (loop.local_time,))
    dL = np.diff(L, axis=1)
    assert np.array_equal(dL > 0.0, np.diff(loop.local_time, axis=1) > 0.0)
    assert not np.signbit(L).any()   # zeros are 0.0, never -0.0
    assert np.all(dL >= 0.0)
    assert np.all(batch.states[:, 1:][dL > 0.0] == 0.0)
    clamped = np.linalg.norm(batch.actions, axis=2) >= cap * (1.0 - 1e-12)
    assert (batch.clamp_events > 0) == (cap < 10.0) == clamped.any()
    if cap < 10.0:   # replays start after some local time has built up
        assert batch.clamp_events == np.count_nonzero(clamped)
        assert np.count_nonzero(L[:, :-1][clamped] > 0.0) > 10


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


def test_streamed_block_names_the_global_non_finite_path(params_ref):
    # action scale 5e153 with no cap: the variance rate v_k overflows where |z| > 2.68;
    # on these streams only the short third block of the batch draws one, at path 37, step 5
    args = (params_ref, [0.0], [[5e153]], 40, 1.0, 0.06, 0.01, 2328, math.inf)
    with pytest.raises(sde.NonFinite) as loop_err, np.errstate(over="ignore", invalid="ignore"):
        simulate_linear_gaussian_batch_loop(*args)
    with pytest.raises(sde.NonFinite) as err, np.errstate(over="ignore", invalid="ignore"):
        sde.simulate_linear_gaussian_batch(*args)
    assert str(err.value) == str(loop_err.value) == "path 37, step 5: non-finite state proposal"


def _copied(blocks):
    """The (u, x, clamp_events) of every block, copied before the next block overwrites them."""
    return [(block.u.copy(), block.x.copy(), block.clamp_events) for block in blocks]


@pytest.mark.parametrize("cap", [sde.DEFAULT_ACTION_CAP, 1.5])
@pytest.mark.parametrize("y0", [0.0, 1.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_increment_blocks_are_the_sampled_paths_increments(d, y0, cap):
    # the kernel's (u_k, X_k), with the map run only where a clamp can bind, are what the path
    # sampler's states, actions and local time give on the same streams; 20 paths are two blocks
    rng = np.random.default_rng(80 + d)
    params = random_params(rng, d)
    mean_coef, cov_chol = rng.uniform(-1.0, 1.0, d), 0.5 * np.eye(d)
    args = (params, mean_coef, cov_chol, 20, y0, 3.0, 0.05, 7 + d, cap)
    blocks = _copied(sde.increment_blocks(*args))
    batch = sde.simulate_linear_gaussian_batch(*args)
    u = np.concatenate([b[0] for b in blocks], axis=1)
    x = np.concatenate([b[1] for b in blocks])
    assert np.allclose(x, np.diff(np.log1p(batch.states), axis=1) - np.diff(batch.local_time, axis=1),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(np.moveaxis(u, 0, -1), batch.actions / (1.0 + batch.states[:, :-1, None]),
                       rtol=1e-12, atol=1e-12)
    assert sum(b[2] for b in blocks) == batch.clamp_events
    assert (batch.clamp_events > 0) == (cap < 10.0)
    dL = np.diff(batch.local_time, axis=1)
    assert np.all(batch.states >= 0.0) and np.all(dL >= 0.0)
    assert np.all(batch.states[:, 1:][dL > 0.0] == 0.0)
    assert np.any(dL > 0.0)
    for i in (0, 17):   # a row of the full block and one of the short block
        rollout = sde.rollout_linear_gaussian(params, mean_coef, cov_chol, y0, 60, 0.05, sde.episode_rng(7 + d, i), cap)
        for got, row in zip(rollout, (batch.states[i], batch.actions[i], batch.local_time[i])):
            assert np.array_equal(got, row)


@pytest.mark.parametrize("d", [1, 2])
def test_increment_law_at_a_fixed_action(d):
    # with cov_chol = 0 every u_k is mean_coef, so X_k ~ N((u'mu - v/2) dt, v dt) exactly;
    # its sample moments over 2000 paths x 50 steps sit within 5 standard errors
    params = PARAMS_D2 if d == 2 else ModelParams(mu=[0.2], sigma=[[1.0]], sigma_z=0.2, kappa=0.5, eta=[1.0],
                                                     rho=0.2)
    u, dt = np.array([0.7, -0.4][:d]), 0.01
    x = np.concatenate([b[1].ravel() for b in _copied(sde.increment_blocks(
        params, u, np.zeros((d, d)), 2000, 1.0, 50 * dt, dt, seed=3))])
    loading = u @ params.sigma - params.sigma_z * math.sqrt(1.0 - params.kappa**2) * params.eta / np.linalg.norm(
        params.eta)
    v = float(loading @ loading) + (params.sigma_z * params.kappa) ** 2
    mean, var, n = (float(u @ params.mu) - 0.5 * v) * dt, v * dt, len(x)
    assert abs(x.mean() - mean) < 5.0 * math.sqrt(var / n)
    assert abs(x.var(ddof=1) - var) < 5.0 * math.sqrt((np.mean((x - x.mean()) ** 4) - x.var() ** 2) / n)
    # the same law as the increment built from the d asset normals and the benchmark's own normal
    normals = np.random.default_rng(4).standard_normal((20_000, 2 * d + 1))
    assert ks_2samp(x[:20_000], exact_increment_two_factor(params, dt, u, normals)).pvalue > 1e-3


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
    for i in range(n_paths):
        states, actions, local = sde.rollout_linear_gaussian(
            params, mean_coef, cov_chol, y0, n_steps, dt, sde.episode_rng(seed, i), cap
        )
        assert np.array_equal(states, batch.states[i])
        assert np.array_equal(actions, batch.actions[i])
        assert np.array_equal(local, batch.local_time[i])
    # a clamp scales its action to the cap, and no other action reaches it
    clamped = np.linalg.norm(batch.actions, axis=2) >= cap * (1.0 - 1e-12)
    assert batch.clamp_events == np.count_nonzero(clamped)


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
    # from y0 = 0 both grids reflect; at dt = 2 a step of ln(1+y) has standard deviation 0.57
    for dt in (0.01, 2.0):
        paths = sde.simulate_aggregated(params_ref, GAMMA, 0.0, 500 * dt, dt, 1, seed=9)
        path = episode_paths(paths)[0]
        assert np.all(path.states >= 0.0)
        dL = np.diff(path.local_time)
        assert np.all(dL >= 0.0)
        assert np.all(path.states[1:][dL > 0.0] == 0.0)
        assert paths.actions.shape == (1, 500, 0)
        loop = simulate_aggregated_loop(params_ref, GAMMA, 0.0, 500 * dt, dt, sde.episode_rng(9, 0))
        _assert_close((path.states, path.local_time), (loop.states, loop.local_time))
        assert np.array_equal(dL > 0.0, np.diff(loop.local_time) > 0.0)
        assert np.any(dL > 0.0)


def test_aggregated_terminal_matches_path_version(params_ref):
    # same stream, same scheme: the vectorized terminal sampler is consistent
    y_term = sde.aggregated_terminal_sample(params_ref, GAMMA, 1.0, 1.0, 0.01, 3, seed=11)
    assert y_term.shape == (3,)
    assert np.all(y_term >= 0.0)


# -------------------------------------------------------------- skorokhod

# simulate_aggregated's rows hold Y = expm1(H) and the push K of the
# Skorokhod map on the grid; the driving Brownian path B of row i is the
# oracle's on the same stream (seed, i).

def test_skorokhod_no_push_when_started_high(params_ref):
    paths = sde.simulate_aggregated(params_ref, GAMMA, math.expm1(50.0), 1.0, 0.01, 1, seed=12)
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
    paths = sde.simulate_aggregated(params_ref, GAMMA, math.expm1(h0), 2.0, 0.01, 50, seed=13)
    for i, path in enumerate(episode_paths(paths)):
        bpath = skorokhod_log_path(params_ref, GAMMA, h0, 2.0, 0.01, sde.episode_rng(13, i)).b
        run_max_minus_b = np.maximum.accumulate(np.maximum(-bpath, 0.0))
        bound = h0 + abs(mu_hat) * path.times + s * run_max_minus_b
        assert np.all(path.local_time <= bound + 1e-12)
        assert np.all(np.log1p(path.states) >= -1e-12)


@pytest.mark.parametrize("y0", [0.0, 0.3, 1.0])
def test_aggregated_rows_are_the_skorokhod_map(params_ref, y0):
    # the reflection map on the exact increments is the closed map on the grid, to rounding,
    # with the same reflecting steps, on grids as coarse as dt = 2
    h0 = math.log1p(y0)
    for dt in (0.01, 0.5, 2.0):
        paths = sde.simulate_aggregated(params_ref, GAMMA, y0, 100 * dt, dt, 10, seed=15)
        for i, path in enumerate(episode_paths(paths)):
            lp = skorokhod_log_path(params_ref, GAMMA, h0, 100 * dt, dt, sde.episode_rng(15, i))
            assert np.allclose(path.states, np.expm1(lp.h), rtol=3e-13, atol=3e-13)
            assert np.allclose(path.local_time, lp.k, rtol=3e-13, atol=3e-13)
            assert np.array_equal(np.diff(path.local_time) > 0.0, np.diff(lp.k) > 0.0)
        assert np.any(np.diff(paths.local_time) > 0.0)


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

        def one(rng):
            states, actions, local = sde.rollout_linear_gaussian(params, mean_coef, cov_chol, y0, K, dt, rng)
            return EpisodePath(times=batch.times, states=states, actions=actions, local_time=local)
    elif scheme == "aggregated":
        batch = sde.simulate_aggregated(params, gamma, y0, T, dt, n_paths, seed)

        def one(rng):
            return simulate_aggregated_per_path(params, gamma, y0, T, dt, rng)
    else:
        batch = sde.simulate_aggregated(params, gamma, y0, T, dt, n_paths, seed)

        def one(rng):
            lp = skorokhod_log_path(params, gamma, h0, T, dt, rng)
            return EpisodePath(times=lp.times, states=np.expm1(lp.h), actions=np.empty((K, 0)), local_time=lp.k)

    oracle = [one(sde.episode_rng(seed, i)) for i in range(n_paths)]
    exact = scheme != "skorokhod"   # the closed Skorokhod map sums the same increments in another order
    assert batch.actions.shape == (n_paths, K, d if scheme == "episode" else 0)
    assert np.any(np.diff(batch.local_time) > 0.0)   # the boundary is exercised
    for row, path in zip(episode_paths(batch), oracle, strict=True):
        assert np.array_equal(np.diff(row.local_time) > 0.0, np.diff(path.local_time) > 0.0)
        for field in ("times", "states", "actions", "local_time"):
            got, want = getattr(row, field), getattr(path, field)
            assert np.array_equal(got, want) if exact else np.allclose(got, want, 3e-13, 3e-13), field
    meta = {"scheme": scheme, "n_paths": n_paths}
    sde.export_paths_csv(batch, tmp_path / "bulk.csv", tmp_path / "bulk.json", meta)
    export_paths_csv_per_row(oracle if exact else batch, tmp_path / "rows.csv", tmp_path / "rows.json", meta)
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert (tmp_path / "bulk.json").read_bytes() == (tmp_path / "rows.json").read_bytes()
