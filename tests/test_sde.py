"""Simulator layer: increments, reflection accounting, path laws, oracle."""

import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from benchtrack import qlearn, sde
from benchtrack.model import ModelParams, exploratory_constants
from conftest import MAP_LAYOUTS, random_params
from oracles import (
    REF,
    EpisodePath,
    aggregated_terminal_loop,
    aggregated_walk_loop,
    episode_paths,
    exact_increment_two_factor,
    export_paths_csv_per_row,
    rollout_linear_gaussian_loop,
    simulate_aggregated_loop,
    simulate_aggregated_per_path,
    simulate_linear_gaussian_batch_loop,
    skorokhod_log_path,
    skorokhod_terminal_loop,
    skorokhod_walk_loop,
)

GAMMA = 0.2


# ------------------------------------------------------------- increments
# With cov_chol = 0 the action is (1 + y) m, so one step from far above the
# boundary gives (y1 - y0) / (1 + y0) = c_0 = m' mu dt - sigma_z dWk + m' sigma dW
# with mean m' mu dt and variance
# dt (sigma_z^2 + |sigma' m|^2 - 2 sigma_z sqrt(1 - kappa^2) eta_hat' sigma' m),
# eta_hat = eta / |eta|: the law of the Brownian increments, seen through the batch simulator.

# d = 2 with an eta off the axes, so the benchmark loads on both asset noises
PARAMS_D2 = ModelParams(mu=[0.3, -0.2], sigma=[[0.8, 0.0], [0.3, 0.6]], sigma_z=0.5,
                        kappa=0.4, eta=np.array([0.6, -0.3]) / math.sqrt(0.45), rho=0.2)


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


def test_step_rejects_non_finite(params_ref, monkeypatch):
    # with no cap, a mean action of 1e200 overflows y within a few steps
    monkeypatch.setattr(sde, "ACTION_CAP", math.inf)
    with pytest.raises(sde.NonFinite, match="path 0, step"), np.errstate(over="ignore", invalid="ignore"):
        sde.rollout_linear_gaussian(params_ref, [1e200], [[1.0]], 0.5, 10, 0.01, sde.episode_rng(2, 0))


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


def test_environment_clamps_huge_actions(params_ref, monkeypatch):
    # a one-row batch on stream (8, 0) counts the clamp, and the rollout on that stream is its row;
    # the cap bounds the relative action u = a / (1 + y), so the action is (1 + y0) cap
    monkeypatch.setattr(sde, "ACTION_CAP", 1.0)
    batch = sde.simulate_linear_gaussian_batch(params_ref, [50.0], [[0.0]], 1, 0.5, 0.01, 0.01, 8)
    rollout = sde.rollout_linear_gaussian(params_ref, [50.0], [[0.0]], 0.5, 1, 0.01, sde.episode_rng(8, 0))
    assert batch.clamp_events == 1
    assert abs(batch.actions[0, 0, 0]) == pytest.approx(1.5, abs=1e-15)
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


# The kernel against the step-by-step loops: the reference policy; a cap on
# |u_k| that clamps about one step in 150; a large step with a large mean
# action, whose variance drags ln(1+y) to 0 on most steps; and no action
# with a vanishing benchmark volatility, where nothing moves.
KERNEL_CASES = {
    "reference": (None, 0.01, sde.ACTION_CAP, 0.2),
    "clamped": (None, 0.01, 1.5, 0.2),
    "certain_reflection": (([2.0], [[1.0]]), 0.25, sde.ACTION_CAP, 0.2),
    "zero_dynamics": (([0.0], [[0.0]]), 0.01, sde.ACTION_CAP, 1e-300),
}


def _assert_close(kernel, loop):
    for x, y in zip(kernel, loop):
        assert np.allclose(x, y, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_kernel_matches_loop_oracles(params_ref, pp_star, monkeypatch, case):
    coefs, dt, cap, sigma_z = KERNEL_CASES[case]
    monkeypatch.setattr(sde, "ACTION_CAP", cap)
    params = dataclasses.replace(params_ref, sigma_z=sigma_z)
    mean_coef, cov_chol = coefs or pp_star.policy_coefficients()
    n_steps = 200
    # the rollouts are the rows of a 10-row batch on the same streams, which counts their clamps
    rows = sde.simulate_linear_gaussian_batch(params, mean_coef, cov_chol, 10, 1.0, n_steps * dt, dt, 31)
    clamps = 0
    for i in range(10):
        kernel = sde.rollout_linear_gaussian(params, mean_coef, cov_chol, 1.0, n_steps, dt, sde.episode_rng(31, i))
        *loop, loop_clamps = rollout_linear_gaussian_loop(params, mean_coef, cov_chol, 1.0, n_steps, dt,
                                                          sde.episode_rng(31, i))
        _assert_close(kernel, loop)
        assert np.array_equal(np.diff(kernel[2]) > 0.0, np.diff(loop[2]) > 0.0)
        for got, row in zip(kernel, (rows.states[i], rows.actions[i], rows.local_time[i])):
            assert np.array_equal(got, row)
        clamps += loop_clamps
    assert rows.clamp_events == clamps
    assert (clamps > 0) == (case == "clamped")

    args = (params, mean_coef, cov_chol, 20, 1.0, n_steps * dt, dt, 32)
    batch, batch_loop = sde.simulate_linear_gaussian_batch(*args), simulate_linear_gaussian_batch_loop(*args)
    _assert_close(
        (batch.states, batch.actions, batch.local_time),
        (batch_loop.states, batch_loop.actions, batch_loop.local_time),
    )
    assert np.array_equal(np.diff(batch.local_time) > 0.0, np.diff(batch_loop.local_time) > 0.0)
    assert batch.clamp_events == batch_loop.clamp_events


def _relative_norms(batch):
    """|u_k| = |a_k| / (1 + y_k) of every step of a batch, (n, K)."""
    return np.linalg.norm(batch.actions, axis=2) / (1.0 + batch.states[:, :-1])


@pytest.mark.parametrize("cap", [sde.ACTION_CAP, 1.5])
def test_local_time_is_the_push(params_ref, pp_star, monkeypatch, cap):
    # L is the push of the Lindley recursion from L_0 = +0.0, clamped steps or not; a clamp
    # scales u_k onto the cap before X_k is drawn, and no other |u_k| reaches it
    monkeypatch.setattr(sde, "ACTION_CAP", cap)
    mean_coef, cov_chol = pp_star.policy_coefficients()
    args = (params_ref, mean_coef, cov_chol, 20, 0.0, 4.0, 0.01, 33)
    batch, loop = sde.simulate_linear_gaussian_batch(*args), simulate_linear_gaussian_batch_loop(*args)
    L = batch.local_time
    _assert_close((L,), (loop.local_time,))
    dL = np.diff(L, axis=1)
    assert np.array_equal(dL > 0.0, np.diff(loop.local_time, axis=1) > 0.0)
    assert not np.signbit(L).any()   # zeros are 0.0, never -0.0
    assert np.all(dL >= 0.0)
    assert np.all(batch.states[:, 1:][dL > 0.0] == 0.0)
    unorm = _relative_norms(batch)
    clamped = unorm >= cap * (1.0 - 1e-12)
    assert (batch.clamp_events > 0) == (cap < 10.0) == clamped.any()
    assert batch.clamp_events == loop.clamp_events == np.count_nonzero(clamped)
    assert np.all(np.abs(unorm[clamped] - cap) <= 1e-12 * cap)
    if cap < 10.0:   # clamps fall on reflecting steps too
        assert np.count_nonzero(dL[clamped] > 0.0) > 0


def test_kernel_names_non_finite_path_and_step(params_ref, monkeypatch):
    # with no cap, a mean action of 1e200 overflows y within a few steps
    monkeypatch.setattr(sde, "ACTION_CAP", math.inf)
    args = (params_ref, [1e200], [[1.0]], 20, 1.0, 0.1, 0.01, 5)
    messages = []
    for simulate in (sde.simulate_linear_gaussian_batch, simulate_linear_gaussian_batch_loop):
        with pytest.raises(sde.NonFinite) as err, np.errstate(over="ignore", invalid="ignore"):
            simulate(*args)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("path ")


def test_streamed_block_names_the_global_non_finite_path(params_ref, monkeypatch):
    # action scale 5e153 with no cap: the variance rate v_k overflows where |z| > 2.68;
    # on these streams only the short third block of the batch draws one, at path 37, step 5
    monkeypatch.setattr(sde, "ACTION_CAP", math.inf)
    args = (params_ref, [0.0], [[5e153]], 40, 1.0, 0.06, 0.01, 2328)
    with pytest.raises(sde.NonFinite) as loop_err, np.errstate(over="ignore", invalid="ignore"):
        simulate_linear_gaussian_batch_loop(*args)
    with pytest.raises(sde.NonFinite) as err, np.errstate(over="ignore", invalid="ignore"):
        sde.simulate_linear_gaussian_batch(*args)
    assert str(err.value) == str(loop_err.value) == "path 37, step 5: non-finite state proposal"


@pytest.mark.parametrize("workers, rows", MAP_LAYOUTS)
def test_non_finite_message_names_the_first_bad_path_in_any_layout(params_ref, map_layout, monkeypatch, workers, rows):
    # action scale 5e153 with no cap: on these streams paths 7, 15 and 26 overflow first at steps 3, 1
    # and 2; paths 7 and 15 share a block in every layout, and the message names path 7 (path 15 has
    # the earliest bad step), whichever block or worker fails first
    map_layout(workers, rows)
    monkeypatch.setattr(sde, "ACTION_CAP", math.inf)
    args = (params_ref, [0.0], [[5e153]], 40, 1.0, 0.06, 0.01, 42)
    messages = []
    with np.errstate(over="ignore", invalid="ignore"):
        for run in (lambda: sde.simulate_linear_gaussian_batch(*args),
                    lambda: sde.increment_blocks(*args[:4], *args[5:])(lambda block, _: None),
                    lambda: simulate_linear_gaussian_batch_loop(*args)):
            with pytest.raises(sde.NonFinite) as err:
                run()
            messages.append(str(err.value))
    assert messages == ["path 7, step 3: non-finite state proposal"] * 3


def _on_both_workers(fill):
    """fill for a two-worker block map, whose first block on each worker waits for the other's, so both run it."""
    barrier, workers = threading.Barrier(2, timeout=30), set()

    def first_waits(ws, n, first_path):
        if threading.get_ident() not in workers:
            workers.add(threading.get_ident())
            barrier.wait()
        return fill(ws, n, first_path)

    first_waits.workers = workers
    return first_waits


def test_block_map_returns_blocks_in_path_order_from_their_streams(map_layout):
    # 70 paths are four full blocks and a short one, drawn by both workers
    map_layout(2, 16)
    fill = _on_both_workers(lambda ws, n, first_path: (first_path, ws.normals[:n].copy()))
    blocks = sde._block_map(70, 4, lambda rows: sde._workspace(rows, 3, 1), fill)
    assert [first for first, _ in blocks] == [0, 16, 32, 48, 64] and len(fill.workers) == 2
    normals = np.concatenate([block for _, block in blocks])
    for i, row in enumerate(normals):
        assert np.array_equal(row, sde.episode_rng(4, i).standard_normal((3, 2)))


def test_block_map_raises_the_earliest_blocks_error_and_joins_its_workers(map_layout):
    # the block at path 48 fails after a pause, so the other worker's block at path 80 may fail first
    map_layout(2, 16)
    before = threading.active_count()

    def fill(ws, n, first_path):
        if first_path == 48:
            time.sleep(0.05)
        if first_path in (48, 80):
            raise ValueError(f"block at path {first_path}")
        return first_path

    with pytest.raises(ValueError, match="block at path 48"):
        sde._block_map(200, 1, lambda rows: sde._workspace(rows, 2, 1), fill)
    assert threading.active_count() == before


def test_block_map_draws_each_block_once_with_more_workers_than_cpus(map_layout):
    # four workers hand one-path blocks back and forth every microsecond; each block is drawn once,
    # from its own stream, and the results come back in path order
    map_layout(4, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        drawn = sde._block_map(400, 9, lambda rows: sde._workspace(rows, 1, 0),
                               lambda ws, n, first_path: (first_path, float(ws.normals[0, 0, 0])))
    finally:
        sys.setswitchinterval(interval)
    assert drawn == [(i, float(sde.episode_rng(9, i).standard_normal())) for i in range(400)]


def test_block_map_workers_compute_under_the_callers_errstate(map_layout):
    # numpy's errstate does not pass to a new thread, so each worker enters the caller's: an overflow
    # that the caller ignores raises no RuntimeWarning on either worker
    map_layout(2, 16)
    fill = _on_both_workers(lambda ws, n, first_path: float(np.full(1, 1e308)[0] * 10.0))
    with np.errstate(over="ignore"):
        assert sde._block_map(64, 1, lambda rows: sde._workspace(rows, 2, 1), fill) == [math.inf] * 4
    assert len(fill.workers) == 2


def test_batch_paths_do_not_depend_on_workers_or_block_rows(params_ref, map_layout, monkeypatch):
    # 75 paths are two or four full blocks and a short one; a cap of 1.5 binds on some steps
    monkeypatch.setattr(sde, "ACTION_CAP", 1.5)
    d2_coef, d2_chol = [0.4, -0.2], [[0.5, 0.0], [0.2, 0.4]]
    runs = []
    for layout in MAP_LAYOUTS:
        map_layout(*layout)
        runs.append((sde.simulate_linear_gaussian_batch(PARAMS_D2, d2_coef, d2_chol, 75, 0.5, 0.3, 0.01, 6),
                     sde.simulate_aggregated(params_ref, GAMMA, 0.2, 0.3, 0.01, 75, 6)))
    assert runs[0][0].clamp_events > 0
    for run in runs[1:]:
        for got, first in zip(run, runs[0]):
            assert got.clamp_events == first.clamp_events
            for a, b in ((got.states, first.states), (got.actions, first.actions),
                         (got.local_time, first.local_time)):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("d", [1, 2])
def test_cap_scales_a_huge_relative_action_onto_it(params_ref, d):
    # |u_k| near 1e200 squares to inf; the norm is taken after scaling by max_i |u_i|, so every
    # step is clamped onto the default cap, not to 0, and ln(1 + y) reflects at 0 on every step
    params = params_ref if d == 1 else PARAMS_D2
    mean_coef = np.array([1e200, -3e200][:d])
    args = (params, mean_coef, np.eye(d), 2, 1.0, 0.05, 0.01, 5)
    batch = sde.simulate_linear_gaussian_batch(*args)
    assert batch.clamp_events == 10
    assert np.all(np.abs(_relative_norms(batch) - sde.ACTION_CAP) <= 1e-12 * sde.ACTION_CAP)
    assert np.all(batch.states[:, 1:] == 0.0)
    u, x, clamp_events = _copied(sde.increment_blocks(*args[:4], *args[5:]))[0]
    assert clamp_events == 10 and np.all(np.isfinite(x))
    assert np.allclose(np.sqrt((u**2).sum(axis=0)), sde.ACTION_CAP, rtol=1e-12, atol=0.0)


def _copied(blocks):
    """The (u, x, clamp_events) of every block of an increment_blocks map, copied before the worker's next block
    overwrites them."""
    return blocks(lambda block, _: (block.u.copy(), block.x.copy(), block.clamp_events))


@pytest.mark.parametrize("cap", [sde.ACTION_CAP, 1.5])
@pytest.mark.parametrize("y0", [0.0, 1.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_increment_blocks_are_the_sampled_paths_increments(monkeypatch, d, y0, cap):
    # the kernel's (u_k, X_k), with no reflection map run, are what the path sampler's states,
    # actions and local time give on the same streams; 40 paths are two blocks
    rng = np.random.default_rng(80 + d)
    params = random_params(rng, d)
    mean_coef, cov_chol = rng.uniform(-1.0, 1.0, d), 0.5 * np.eye(d)
    monkeypatch.setattr(sde, "ACTION_CAP", cap)
    args = (params, mean_coef, cov_chol, 40, y0, 3.0, 0.05, 7 + d)
    blocks = _copied(sde.increment_blocks(*args[:4], *args[5:]))
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
    for i in (0, 35):   # a row of the full block and one of the short block
        rollout = sde.rollout_linear_gaussian(params, mean_coef, cov_chol, y0, 60, 0.05, sde.episode_rng(7 + d, i))
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
        params, u, np.zeros((d, d)), 2000, 50 * dt, dt, seed=3))])
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
    params = random_params(rng, d)
    mean_coef = rng.uniform(-2.0, 2.0, d)
    cov_chol = np.eye(d) + np.tril(rng.uniform(-1.0, 1.0, (d, d)))
    cap, dt, n_steps, n_paths = 10.0**log10_cap, 0.05, 60, 20
    with pytest.MonkeyPatch.context() as mp:   # hypothesis runs many examples in one test, so no fixture
        mp.setattr(sde, "ACTION_CAP", cap)
        batch = sde.simulate_linear_gaussian_batch(params, mean_coef, cov_chol, n_paths, y0, n_steps * dt, dt, seed)
        # rows from a full block and from the short last block both equal lone rollouts
        rollouts = [sde.rollout_linear_gaussian(params, mean_coef, cov_chol, y0, n_steps, dt, sde.episode_rng(seed, i))
                    for i in range(n_paths)]
    dL = np.diff(batch.local_time, axis=1)
    assert np.all(batch.states >= 0.0)
    assert np.all(batch.states[:, 1:][dL > 0.0] == 0.0)
    assert np.all(dL >= 0.0)
    for i, (states, actions, local) in enumerate(rollouts):
        assert np.array_equal(states, batch.states[i])
        assert np.array_equal(actions, batch.actions[i])
        assert np.array_equal(local, batch.local_time[i])
    # a clamp scales its relative action onto the cap, and no other relative action reaches it
    unorm = _relative_norms(batch)
    clamped = unorm >= cap * (1.0 - 1e-12)
    assert batch.clamp_events == np.count_nonzero(clamped)
    assert np.all(np.abs(unorm[clamped] - cap) <= 1e-12 * cap)


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


# -------------------------------------------------------- terminal samplers
# Both samplers are one projected walk.  Block b of _terminal_layout(n)
# draws the stream (seed, b), so each block is the one-stream walk loop on
# that stream bit for bit, whatever the workers.  The loops from before the
# walk (the Euler step on y, the running-maximum formula) agree with it to
# rounding: on these samples by at most 5.3e-15 (Euler) and 8.9e-16 (Skorokhod).

TERMINAL_SIZES = [1, 7, 2 * sde.TERMINAL_ROWS - 1, 2 * sde.TERMINAL_ROWS, 5 * sde.TERMINAL_ROWS + 3]


def _blockwise_loop(loop, params, start: float, T: float, dt: float, n: int, seed: int) -> np.ndarray:
    """The one-stream loop run on each block of _terminal_layout(n), on the block's stream (seed, b)."""
    bounds = sde._terminal_layout(n)
    return np.concatenate([loop(params, GAMMA, start, T, dt, hi - lo, sde.episode_rng(seed, b))
                           for b, (lo, hi) in enumerate(zip(bounds, bounds[1:]))])


def test_terminal_layout_depends_on_the_path_count_alone():
    for n in (0, 1, 2 * sde.TERMINAL_ROWS - 1):
        assert sde._terminal_layout(n) == [0, n]
    for n in (2 * sde.TERMINAL_ROWS, 3 * sde.TERMINAL_ROWS + 1, 10_000, 10**7 + 3):
        bounds = sde._terminal_layout(n)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == n
        assert 2 <= len(sizes) <= sde.TERMINAL_BLOCKS
        assert sizes.min() >= sde.TERMINAL_ROWS and sizes.max() - sizes.min() <= 1
    assert sde._terminal_layout(10_000) == [0, 5000, 10_000]


def test_aggregated_terminal_matches_path_version(params_ref, map_layout):
    T, dt, seed = 0.3, 0.01, 11
    for n in TERMINAL_SIZES:
        for y0 in (1.0, 0.0):
            want = _blockwise_loop(aggregated_walk_loop, params_ref, y0, T, dt, n, seed)
            for workers in (1, 2, 4):   # 4: more workers than CPUs
                map_layout(workers, sde.MAP_ROWS)
                assert np.array_equal(sde.aggregated_terminal_sample(params_ref, GAMMA, y0, T, dt, n, seed), want)
            assert want.min() >= 0.0
            # the step on y, to rounding, projecting the same paths
            ref = _blockwise_loop(aggregated_terminal_loop, params_ref, y0, T, dt, n, seed)
            assert np.allclose(want, ref, rtol=1e-14, atol=1e-14)
            assert np.array_equal(want == 0.0, ref == 0.0)
    assert np.any(want == 0.0)   # the projection binds on the widest sample from y0 = 0


@pytest.mark.parametrize("y0", [-0.5, -3.0])
def test_aggregated_terminal_refuses_a_negative_start(params_ref, y0):
    with pytest.raises(ValueError, match="y0 must be >= 0"):
        sde.aggregated_terminal_sample(params_ref, GAMMA, y0, 0.1, 0.01, 3, seed=11)


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


def test_skorokhod_terminal_sampler_matches_path(params_ref, map_layout):
    T, dt, seed = 0.3, 0.01, 14
    for n in TERMINAL_SIZES:
        for h0 in (0.0, 0.5):
            want = _blockwise_loop(skorokhod_walk_loop, params_ref, h0, T, dt, n, seed)
            for workers in (1, 2, 4):   # 4: more workers than CPUs
                map_layout(workers, sde.MAP_ROWS)
                assert np.array_equal(sde.skorokhod_terminal_sample(params_ref, GAMMA, h0, T, dt, n, seed), want)
            assert want.min() >= 0.0
            # the running-maximum formula, to rounding
            ref = _blockwise_loop(skorokhod_terminal_loop, params_ref, h0, T, dt, n, seed)
            assert np.allclose(want, ref, rtol=1e-14, atol=1e-14)
    # one terminal value is the closed map at the end of the path that draws the same stream
    lp = skorokhod_log_path(params_ref, GAMMA, 0.5, T, dt, sde.episode_rng(seed, 0))
    assert math.isclose(sde.skorokhod_terminal_sample(params_ref, GAMMA, 0.5, T, dt, 1, seed)[0], lp.h[-1],
                        rel_tol=1e-12, abs_tol=1e-12)


def test_skorokhod_terminal_sample_never_lands_below_zero(params_ref):
    # the running-maximum formula sums four terms, so where H_T is 0 it may land an ulp below it:
    # on this sample it gives 43 values of -4.4e-16, whose expm1 is a y < 0
    h0, T, dt, n, seed = math.log(2.0), 20.0, 0.01, 10_000, 3
    h = sde.skorokhod_terminal_sample(params_ref, GAMMA, h0, T, dt, n, seed)
    assert h.min() >= 0.0 and np.expm1(h).min() >= 0.0
    ref = _blockwise_loop(skorokhod_terminal_loop, params_ref, h0, T, dt, n, seed)
    assert np.any(ref < 0.0)
    assert np.allclose(h, ref, rtol=0.0, atol=1e-13)   # 3.3e-14 at most


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
