"""Learner layer: parameterizations, gradients, updates, trainer, diagnostics."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from benchtrack import qlearn, sde
from benchtrack.model import DomainError, ModelParams, exploratory_constants
from conftest import MAP_LAYOUTS, one_step_path, path_increments, path_statistics, path_sums, q_gradient, random_params
from oracles import (
    REF,
    EpisodePath,
    central_diff,
    episode_paths,
    exact_increment,
    gaussian_entropy,
    gaussian_expect_quadratic,
    gaussian_pdf,
    history_csv_per_row,
    increment_statistics,
    orthogonality_rows_loop,
    psi3_policy_steps,
    rel_err,
    train_loop,
)

GAMMA = 0.2
RHO = 0.2


def random_pp(rng: np.random.Generator, d: int = 1) -> qlearn.PolicyParams:
    psi2 = np.eye(d) + 0.2 * rng.uniform(-1.0, 1.0, size=(d, d))
    return qlearn.PolicyParams(
        xi=float(rng.normal()),
        psi1=rng.normal(size=d),
        psi2=psi2,
        gamma=GAMMA,
    )


# ------------------------------------------------- exact parameterization

def test_j_value_and_gradient(pp_star, exploratory_ref):
    assert qlearn.j_value(pp_star, 0.0) == pytest.approx(pp_star.xi, abs=1e-15)
    rng = np.random.default_rng(0)
    for y in rng.uniform(0.0, 10.0, size=20):
        assert qlearn.j_value(pp_star, y) == pytest.approx(exploratory_ref.value(y), abs=1e-12)
        fd = (qlearn.j_value(qlearn.PolicyParams(pp_star.xi + 1e-5, pp_star.psi1, pp_star.psi2, GAMMA), y)
              - qlearn.j_value(qlearn.PolicyParams(pp_star.xi - 1e-5, pp_star.psi1, pp_star.psi2, GAMMA), y)) / 2e-5
        assert abs(fd - 1.0) < 1e-10
    with pytest.raises(DomainError):
        qlearn.j_value(pp_star, -0.1)


def test_q_value_matches_exact_q(pp_star):
    # the exact q of the reference solution, transcribed with plain floats
    def exact_q(y, a):
        s = 1.0 + y
        return REF["psi1_star"] * a / s - a * a / (2.0 * s * s) - RHO * math.log1p(y) + REF["psi3_star"]

    rng = np.random.default_rng(1)
    ys = rng.uniform(0.0, 10.0, size=50)
    acts = rng.normal(size=(50, 1))
    for y, a in zip(ys, acts):
        assert qlearn.q_value(pp_star, RHO, float(y), a) == pytest.approx(exact_q(y, a[0]), abs=1e-12)
    # along a path, one call gives the same values as the per-state calls
    along = qlearn.q_value(pp_star, RHO, ys, acts)
    assert along.shape == (50,)
    assert np.allclose(along, [qlearn.q_value(pp_star, RHO, float(y), a) for y, a in zip(ys, acts)],
                       rtol=0.0, atol=1e-14)
    with pytest.raises(DomainError):
        qlearn.q_value(pp_star, RHO, [0.5, -0.1], [[0.0], [0.0]])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_q_value_equals_the_states_form(d):
    # q_value evaluates q at u = a / (1+y); the states form divides a by 1+y and a'Pa by (1+y)^2
    rng = np.random.default_rng(60 + d)
    pp = random_pp(rng, d)
    ys = rng.exponential(2.0, size=40)
    acts = rng.normal(size=(40, d)) * (1.0 + ys[:, None])
    for y, a in zip(ys, acts):
        s = 1.0 + y
        terms = [pp.psi1 @ a / s, -(a @ pp.psi2_sq @ a) / (2.0 * s * s), -RHO * math.log1p(y), pp.psi3]
        # relative to the size of the terms, since they may cancel
        assert abs(qlearn.q_value(pp, RHO, float(y), a) - sum(terms)) <= 1e-13 * sum(map(abs, terms))
    along = qlearn.q_value(pp, RHO, ys, acts)
    assert np.array_equal(along, [qlearn.q_value(pp, RHO, float(y), a) for y, a in zip(ys, acts)])


def test_q_gradients_match_finite_differences():
    # the gradient in the production update sums, read off one-step paths
    rng = np.random.default_rng(2)
    for _ in range(100):
        pp = random_pp(rng)
        y = float(rng.uniform(0.0, 5.0))
        a = rng.normal(size=1)
        g1, g2 = q_gradient(pp, RHO, y, a)

        def q_of(psi1x, psi2x):
            return qlearn.q_value(qlearn.PolicyParams(pp.xi, [psi1x], [[psi2x]], GAMMA), RHO, y, a)

        fd1 = central_diff(lambda x: q_of(x, pp.psi2[0, 0]), pp.psi1[0])
        fd2 = central_diff(lambda x: q_of(pp.psi1[0], x), pp.psi2[0, 0])
        # floor keeps the relative criterion meaningful near zero crossings
        assert rel_err(fd1, g1[0], floor=1e-4) < 1e-6
        assert rel_err(fd2, g2[0, 0], floor=1e-4) < 1e-6


def test_q_gradients_multidim_match_finite_differences():
    rng = np.random.default_rng(3)
    d = 2
    for _ in range(20):
        pp = random_pp(rng, d=d)
        y = float(rng.uniform(0.0, 3.0))
        a = rng.normal(size=d)
        g1, g2 = q_gradient(pp, RHO, y, a)
        for i in range(d):
            def f1(x, i=i):
                p1 = pp.psi1.copy(); p1[i] = x
                return qlearn.q_value(qlearn.PolicyParams(pp.xi, p1, pp.psi2, GAMMA), RHO, y, a)
            assert rel_err(central_diff(f1, pp.psi1[i]), g1[i], floor=1e-4) < 1e-6
        for i in range(d):
            for j in range(d):
                def f2(x, i=i, j=j):
                    p2 = pp.psi2.copy(); p2[i, j] = x
                    return qlearn.q_value(qlearn.PolicyParams(pp.xi, pp.psi1, p2, GAMMA), RHO, y, a)
                assert rel_err(central_diff(f2, pp.psi2[i, j]), g2[i, j]) < 1e-6


def test_policy_from_q_matches_optimal_policy(pp_star):
    # the reference optimal policy: N((1+y) psi1* / psi2*^2, gamma (1+y)^2 / psi2*^2), psi2* = 1
    for y in (0.0, 1.0, 4.2):
        spec_q = qlearn.policy_from_q(pp_star, y)
        assert np.allclose(spec_q.mean, [(1.0 + y) * REF["psi1_star"]], rtol=0.0, atol=1e-14)
        assert np.allclose(spec_q.cov, [[GAMMA * (1.0 + y) ** 2]], rtol=0.0, atol=1e-14)
    c0 = qlearn.policy_from_q(pp_star, 0.0).cov
    c1 = qlearn.policy_from_q(pp_star, 1.0).cov
    assert np.allclose(c1, 4.0 * c0)


def test_policy_from_q_rejects_singular_psi2(pp_star):
    bad = qlearn.PolicyParams(0.0, [1.0], [[1e-30]], GAMMA)
    with pytest.raises(qlearn.SingularPsi2):
        qlearn.policy_from_q(bad, 1.0)


def test_gibbs_normalization_matches_gaussian_pdf():
    # quadrature of exp(q/gamma), d=1, against the Gaussian density
    rng = np.random.default_rng(4)
    pp = random_pp(rng)
    y = 0.8
    spec = qlearn.policy_from_q(pp, y)
    z, _ = quad(lambda a: math.exp(qlearn.q_value(pp, RHO, y, [a]) / GAMMA),
                -np.inf, np.inf)
    for a in np.linspace(spec.mean[0] - 2.0, spec.mean[0] + 2.0, 9):
        lhs = math.exp(qlearn.q_value(pp, RHO, y, [a]) / GAMMA) / z
        rhs = gaussian_pdf([a], spec.mean, spec.cov)
        assert abs(lhs - rhs) < 1e-6


def test_entropy_consistency_random_params():
    # E_pi[q - gamma ln pi] = 0 at gamma = rho/d for any valid (psi1, psi2)
    rng = np.random.default_rng(5)
    for _ in range(20):
        pp = random_pp(rng)
        y = float(rng.uniform(0.0, 6.0))
        spec = qlearn.policy_from_q(pp, y)
        eq = (
            gaussian_expect_quadratic(pp.psi1, pp.psi2_sq, spec.mean, spec.cov, y)
            - RHO * math.log1p(y)
            + pp.psi3
        )
        assert abs(eq + GAMMA * gaussian_entropy(spec.cov)) < 1e-8


def test_psi3_invariant_after_update(pp_star, params_ref):
    # the fit derives psi3 from its (psi1, psi2), and xi from the solved c0 = psi3 + rho xi
    mean_coef, cov_chol = pp_star.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(
        params_ref, mean_coef, cov_chol, 16, 1.0, 2.0, 0.01, seed=77
    )
    A, b = (rows.sum(axis=0) for rows in path_sums(batch, RHO))
    new, held = qlearn.update(pp_star, A, b, RHO)
    from benchtrack.model import psi3_consistency

    assert not held
    assert new.psi3 == pytest.approx(psi3_consistency(new.psi1, new.psi2, GAMMA), abs=1e-15)
    assert new.psi3 + RHO * new.xi == pytest.approx(np.linalg.solve(A, b)[0], abs=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_psi3_rows_equal_policy_psi3(d):
    # PolicyParams.psi3 takes the policy's own steps, written out in psi3_policy_steps, bit for bit
    rng = np.random.default_rng(70 + d)
    psi1 = rng.normal(size=(40, d))
    psi2 = np.eye(d) + 0.5 * rng.normal(size=(40, d, d))
    psi2[3] *= 1e-7   # under PSI2_FLOOR: no Gibbs policy, and psi3 falls back on the normalization formula
    psi2[5] = np.diag([1e3] + [1e-4] * (d - 1))   # for d > 1, over precision's 1e12 condition number
    got = [qlearn.PolicyParams(0.0, a, b, GAMMA).psi3 for a, b in zip(psi1, psi2)]
    assert np.array_equal(got, [psi3_policy_steps(a, b, GAMMA) for a, b in zip(psi1, psi2)])


# ------------------------------------------------------------ td residual
# On a one-step path the discount is 1, so the xi statistic is the residual G_0.

def test_td_residual_algebra(pp_star):
    y, a = 1.3, [0.4]
    q = qlearn.q_value(pp_star, RHO, y, a)
    j = qlearn.j_value(pp_star, y)
    # stationary fake transition: only the -(q + rho J) dt term remains
    g = path_statistics(pp_star, one_step_path(y, a, y, 0.0, 0.05), RHO)[0][0]
    assert g == pytest.approx(-(q + RHO * j) * 0.05, abs=1e-14)
    # local time enters with coefficient exactly -1
    g_dl = path_statistics(pp_star, one_step_path(y, a, y, 0.1, 0.05), RHO)[0][0]
    assert g - g_dl == pytest.approx(0.1, abs=1e-14)


def test_td_residual_zero_at_compensating_q(pp_star):
    # pick the state where q(y, a*) = -rho J(y): G vanishes for y' = y, dL = 0
    y = 1.3
    a = qlearn.policy_from_q(pp_star, y).mean
    q = qlearn.q_value(pp_star, RHO, y, a)
    j = qlearn.j_value(pp_star, y)
    shift = qlearn.PolicyParams(pp_star.xi - (q + RHO * j) / RHO, pp_star.psi1, pp_star.psi2, GAMMA)
    g = path_statistics(shift, one_step_path(y, a, y, 0.0, 0.05), RHO)[0][0]
    assert abs(g) < 1e-12


# ---------------------------------------------------------------- updates

FIXTURE_PATH = dict(
    times=np.array([0.0, 0.5, 1.0, 1.5]),
    states=np.array([1.0, 0.5, 0.0, 2.0]),
    actions=np.array([[0.2], [-0.1], [0.3]]),
    local_time=np.array([0.0, 0.0, 0.4, 0.4]),
)
FIXTURE_PP = dict(xi=0.1, psi1=[0.5], psi2=[[1.2]], gamma=0.2)
# hand-computed sums for the fixture (plain-float transcription of the
# formulas, frozen; see the arithmetic in the repo history)
FIXTURE_EXPECT = {
    "psi3": -0.07318515959428913,
    "stat_xi": -0.08435223740348197,
    "stat_psi1": 0.3128302347614101,
    "stat_psi2": -0.11492912405609965,
}


def test_update_statistics_hand_computed_fixture():
    pp = qlearn.PolicyParams(**FIXTURE_PP)
    path = EpisodePath(**FIXTURE_PATH)
    assert pp.psi3 == pytest.approx(FIXTURE_EXPECT["psi3"], abs=1e-14)
    (sx, s1, s2), _ = path_statistics(pp, path, RHO)
    assert sx == pytest.approx(FIXTURE_EXPECT["stat_xi"], abs=1e-13)
    assert s1 == pytest.approx(FIXTURE_EXPECT["stat_psi1"], abs=1e-13)
    assert s2 == pytest.approx(FIXTURE_EXPECT["stat_psi2"], abs=1e-13)


def test_update_statistics_results_outlive_the_next_episode():
    # every block of a training run reuses one workspace, but the returned rows are the caller's
    pp = qlearn.PolicyParams(**FIXTURE_PP)
    ws = qlearn._feature_workspace(1, 3, 1)

    def rows(path):
        batch = sde.BatchPaths(path["times"], path["states"][None], path["actions"][None], path["local_time"][None])
        block = path_increments(batch)(lambda block, _: block)[0]
        return qlearn._orthogonality_rows(*qlearn._statistics_map(pp, RHO), RHO, block, ws)[0]

    first = rows(FIXTURE_PATH)
    kept = np.copy(first)
    other = dict(FIXTURE_PATH, states=np.array([0.3, 0.0, 1.0, 0.2]), actions=np.array([[1.0], [2.0], [-1.0]]))
    second = rows(other)
    assert not np.array_equal(second, kept)
    assert np.array_equal(first, kept)


def test_update_rejects_non_finite(params_ref):
    # a fit without a finite solution or a Gibbs policy keeps the parameters that drew the block
    pp = qlearn.PolicyParams(**FIXTURE_PP)
    batch = sde.simulate_linear_gaussian_batch(params_ref, *pp.policy_coefficients(), 16, 1.0, 2.0, 0.01, seed=5)
    A, b = (rows.sum(axis=0) for rows in path_sums(batch, RHO))
    fit, held = qlearn.update(pp, A, b, RHO)
    assert not held and fit.psi2[0, 0] > 0.0
    for sums in (
        (np.zeros((3, 3)), np.zeros(3)),       # no episode summed: A is singular
        (A, np.array([b[0], math.nan, b[2]])),  # a non-finite fit
        (A, A @ [0.1, 0.3, -1.0]),              # P = -1 has no Cholesky factor
    ):
        kept, held = qlearn.update(pp, *sums, RHO)
        assert kept is pp and held


def test_update_derives_each_fit_once(params_ref, pp_star, monkeypatch):
    # the fit's psi3 (one gibbs_psi3 call) and precision serve its policy and its history rows
    mean_coef, cov_chol = pp_star.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(params_ref, mean_coef, cov_chol, 16, 1.0, 2.0, 0.01, seed=77)
    A, b = (rows.sum(axis=0) for rows in path_sums(batch, RHO))
    real, calls = qlearn.gibbs_psi3, []
    monkeypatch.setattr(qlearn, "gibbs_psi3", lambda *args: calls.append(args) or real(*args))
    fit, held = qlearn.update(pp_star, A, b, RHO)
    fit.policy_coefficients(), fit.psi3   # what train reads of a fit
    assert not held and len(calls) == 1
    fresh = qlearn.PolicyParams(fit.xi, fit.psi1, fit.psi2, GAMMA)
    assert fresh.psi3 == fit.psi3 and np.array_equal(fresh.precision, fit.precision)
    assert fit.xi == (np.linalg.solve(A, b)[0] - fit.psi3) / RHO


# ------------------------------------------------------------------ train

def test_train_single_episode_applies_one_update(params_ref):
    cfg = qlearn.LearnConfig(T=1.0, dt=0.05, n_episodes=1, gamma=GAMMA, seed=5)
    hist = qlearn.train(cfg, params_ref)
    assert len(hist.episodes) == 1
    assert hist.final.xi != 0.0  # one update moved the neutral start


def test_train_reproducible(params_ref):
    def run():
        cfg = qlearn.LearnConfig(T=2.0, dt=0.05, n_episodes=20, gamma=GAMMA, seed=9)
        return qlearn.train(cfg, params_ref)

    h1, h2 = run(), run()
    assert np.array_equal(h1.xi, h2.xi)
    assert np.array_equal(h1.psi1, h2.psi1)
    assert np.array_equal(h1.psi2, h2.psi2)


PARAMS_D2 = ModelParams(mu=[0.2, 0.1], sigma=[[1.0, 0.3], [0.0, 0.8]], sigma_z=0.2, kappa=0.5, eta=[0.6, 0.8],
                        rho=0.2)


def _same_params(a: qlearn.PolicyParams, b: qlearn.PolicyParams) -> bool:
    return a.xi == b.xi and np.array_equal(a.psi1, b.psi1) and np.array_equal(a.psi2, b.psi2)


def test_train_resume_equals_single_run(params_ref):
    # 5 of 10 episodes stops inside the first block; the rest of it is drawn by the block's policy
    def run(n_episodes, start_episode=1, **resume):
        cfg = qlearn.LearnConfig(T=2.0, dt=0.05, n_episodes=n_episodes, gamma=GAMMA, seed=2,
                                 start_episode=start_episode)
        return qlearn.train(cfg, params_ref, **resume)

    full, first = run(10), run(5)
    resumed = run(5, 6, policy=first.policy, sums=(first.A, first.b))
    assert _same_params(resumed.final, full.final) and _same_params(resumed.policy, full.policy)
    assert np.array_equal(resumed.A, full.A) and np.array_equal(resumed.b, full.b)
    for field in ("xi", "psi1", "psi2", "psi3", "clipped"):
        assert np.array_equal(getattr(resumed, field), getattr(full, field)[5:]), field
    assert list(resumed.episodes) == list(range(6, 11))
    # the stop refits its 5 episodes, but the block's policy is still the start
    assert first.policy.xi == 0.0 and first.final.xi != 0.0
    # the sums carry the learning: without them the fit forgets the first 5 episodes
    forgetful = run(5, 6, policy=first.policy)
    assert not np.array_equal(forgetful.psi1[-1], resumed.psi1[-1])


def test_train_resumed_at_a_binding_cap_repeats_one_run(params_ref, monkeypatch):
    # at a cap on |u_k| that binds, 21 and then 9 episodes give the 30-episode run's fits, sums and clamps
    monkeypatch.setattr(sde, "ACTION_CAP", 1.5)
    kwargs = dict(T=2.0, dt=0.01, gamma=GAMMA, seed=11)
    full = qlearn.train(qlearn.LearnConfig(n_episodes=30, **kwargs), params_ref)
    first = qlearn.train(qlearn.LearnConfig(n_episodes=21, **kwargs), params_ref)
    rest = qlearn.train(qlearn.LearnConfig(n_episodes=9, start_episode=22, **kwargs), params_ref,
                        policy=first.policy, sums=(first.A, first.b))
    assert first.clamp_events > 0 and rest.clamp_events > 0
    assert first.clamp_events + rest.clamp_events == full.clamp_events
    assert _same_params(rest.final, full.final) and _same_params(rest.policy, full.policy)
    assert np.array_equal(rest.A, full.A) and np.array_equal(rest.b, full.b)
    for field in ("xi", "psi1", "psi2", "psi3", "clipped"):
        assert np.array_equal(getattr(rest, field), getattr(full, field)[21:]), field


def test_train_counts_only_its_own_clamps(params_ref, monkeypatch):
    # each history reports its own run: the clamps of its episodes' streams (4, 1) ... (4, 5), which
    # the start policy draws, are a 6-row batch's less the one-row batch's on stream (4, 0)
    monkeypatch.setattr(sde, "ACTION_CAP", 0.5)
    cfg = qlearn.LearnConfig(T=2.0, dt=0.05, n_episodes=5, gamma=GAMMA, seed=4)
    first, second = qlearn.train(cfg, params_ref), qlearn.train(cfg, params_ref)
    assert first.clamp_events > 0
    assert second.clamp_events == first.clamp_events
    batch_args = (params_ref, *cfg.initial_params(1).policy_coefficients())
    batch_clamps = [sde.simulate_linear_gaussian_batch(*batch_args, n, 1.0, 2.0, 0.05, 4).clamp_events
                    for n in (6, 1)]
    assert first.clamp_events == batch_clamps[0] - batch_clamps[1]


def test_train_near_fixed_point_stays_close(params_ref, exploratory_ref):
    # initialized at the known solution, the fit stays near it
    cfg = qlearn.LearnConfig(
        T=6.0, dt=0.02, n_episodes=2000, gamma=GAMMA, seed=11,
        psi1_0=exploratory_ref.psi1_star,
        psi2_0=exploratory_ref.psi2_star,
    )
    hist = qlearn.train(cfg, params_ref)
    assert abs(hist.final.xi - exploratory_ref.xi_star) < 0.05
    assert abs(hist.final.psi1[0] - exploratory_ref.psi1_star[0]) < 0.05
    assert abs(hist.final.psi2[0, 0] - exploratory_ref.psi2_star[0, 0]) < 0.05


@pytest.mark.parametrize("d", [1, 2])
def test_train_fit_is_the_root_of_the_orthogonality_conditions(params_ref, d):
    # 16 episodes are one block drawn at the start policy; at the fit, the orthogonality
    # statistics of those 16 paths sum to zero in every component
    params = params_ref if d == 1 else PARAMS_D2
    cfg = qlearn.LearnConfig(T=2.0, dt=0.01, n_episodes=16, gamma=GAMMA, seed=24)
    hist = qlearn.train(cfg, params)
    mean_coef, cov_chol = cfg.initial_params(d).policy_coefficients()
    blocks = sde.increment_blocks(params, mean_coef, cov_chol, 17, 2.0, 0.01, seed=24)
    rows = qlearn.orthogonality_stats(hist.final, blocks, RHO).rows[1:]   # episode i draws the stream (seed, i)
    assert not hist.clipped.any() and not np.allclose(hist.final.psi1, 0.0)
    assert np.all(np.abs(rows.sum(axis=0)) < 1e-12 * np.abs(rows).sum(axis=0))


def test_train_and_diagnose_never_run_the_reflection_map(params_ref, pp_star, monkeypatch):
    # train and the diagnostics read (u_k, X_k) off the kernel, whose cap bounds |u_k| before X_k is
    # drawn, so neither runs the map, at the default cap or at one that binds; they clamp what the
    # path sampler clamps
    real, calls = sde._reflect, []
    monkeypatch.setattr(sde, "_reflect", lambda *args: calls.append(1) or real(*args))
    mean_coef, cov_chol = pp_star.policy_coefficients()

    def run(cap):   # the clamps of a 16-episode train and of a 40-path diagnosis
        monkeypatch.setattr(sde, "ACTION_CAP", cap)
        cfg = qlearn.LearnConfig(T=2.0, dt=0.01, n_episodes=16, gamma=GAMMA, seed=3)
        hist = qlearn.train(cfg, params_ref)
        blocks = sde.increment_blocks(params_ref, mean_coef, cov_chol, 40, 2.0, 0.01, 4)
        assert qlearn.orthogonality_stats(pp_star, blocks, RHO).n_paths == 40
        return hist.clamp_events, sum(blocks(lambda block, _: block.clamp_events))

    assert run(sde.ACTION_CAP) == (0, 0)
    train_clamps, diagnose_clamps = run(1.5)
    assert calls == [] and train_clamps > 0 and diagnose_clamps > 0
    monkeypatch.setattr(sde, "_reflect", real)
    # the sampler route on the same streams: train's episodes 1 ... 16 are a 17-row batch's rows but stream (3, 0)
    start = qlearn.LearnConfig(T=2.0, dt=0.01, n_episodes=16, gamma=GAMMA, seed=3).initial_params(1)
    rows = [sde.simulate_linear_gaussian_batch(params_ref, *start.policy_coefficients(), n, 1.0, 2.0, 0.01, 3)
            for n in (17, 1)]
    assert rows[0].clamp_events - rows[1].clamp_events == train_clamps
    batch = sde.simulate_linear_gaussian_batch(params_ref, mean_coef, cov_chol, 40, 0.0, 2.0, 0.01, 4)
    assert batch.clamp_events == diagnose_clamps


@pytest.mark.parametrize("psi2_0, seed", [(0.6, 1), (0.6, 2), (0.6, 3), (1.5, 1), (1.5, 2), (1.5, 3), (3.0, 1)])
def test_train_lands_in_criterion_6_bands_from_other_starts(params_ref, psi2_0, seed):
    # criterion 6's setup, bands and tail check from starts away from psi2* = 1
    cfg = qlearn.LearnConfig(T=12.0, dt=0.01, n_episodes=4000, gamma=GAMMA, seed=seed,
                             psi2_0=[[psi2_0]])
    hist = qlearn.train(cfg, params_ref)
    assert 0.26 <= hist.final.xi <= 0.46
    assert 0.17 <= hist.final.psi1[0] <= 0.57
    assert 0.8 <= hist.final.psi2[0, 0] <= 1.45
    tail = slice(3600, 4000)
    assert max(hist.xi[tail].std(), hist.psi1[tail, 0].std(), hist.psi2[tail, 0, 0].std()) < 0.02


def nan_sums_row(monkeypatch, episode: int) -> None:
    """Make b's constant entry of the episode-th row that _normal_sums returns NaN.

    train asks for a block's rows in one call and train_loop for one row per
    call, so counting rows reaches the same episode in both.
    """
    real = qlearn._normal_sums
    seen = [0]

    def sums(*args, **kwargs):
        A, b = real(*args, **kwargs)
        if seen[0] < episode <= seen[0] + len(b):
            b[episode - 1 - seen[0], 0] = math.nan
        seen[0] += len(b)
        return A, b

    monkeypatch.setattr(qlearn, "_normal_sums", sums)


def test_train_counts_non_finite_xi_root_as_rejected(params_ref, monkeypatch):
    # a NaN in the xi (constant) equation of episode 3 keeps all of its sums out of the fit
    def run():
        cfg = qlearn.LearnConfig(T=1.0, dt=0.05, n_episodes=5, gamma=GAMMA, seed=6)
        return qlearn.train(cfg, params_ref)

    clean = run()
    nan_sums_row(monkeypatch, 3)
    monkeypatch.setattr(qlearn, "REJECT_FRACTION", 0.5)
    hist = run()
    assert hist.rejected_episodes == [3]
    assert np.all(np.isfinite(hist.xi)) and np.all(np.isfinite(hist.A))
    assert hist.A[0, 0] == pytest.approx(0.8 * clean.A[0, 0], rel=1e-14)   # every path adds the same sum_k disc dt


class _NanAt:
    """A generator whose next standard_normal(out=...) fill has a NaN action normal at one step."""

    def __init__(self, gen, step: int):
        self.gen, self.step = gen, step

    def standard_normal(self, *, out):
        self.gen.standard_normal(out=out)
        out[self.step, 0] = math.nan
        return out


def test_train_rejects_only_the_non_finite_row(params_ref, monkeypatch):
    # episode 5's path turns NaN at step 7 inside the first 16-episode block
    streams, episode_rng = sde.episode_streams, sde.episode_rng

    def poisoned_streams():
        stream = streams()
        return lambda seed, i: _NanAt(stream(seed, i), 7) if i == 5 else stream(seed, i)

    monkeypatch.setattr(sde, "episode_streams", poisoned_streams)
    monkeypatch.setattr(sde, "episode_rng", lambda seed, i: _NanAt(episode_rng(seed, i), 7) if i == 5
                        else episode_rng(seed, i))
    cfg = qlearn.LearnConfig(T=1.0, dt=0.05, n_episodes=20, gamma=GAMMA, seed=6)
    with np.errstate(invalid="ignore"):
        hist = qlearn.train(cfg, params_ref)
        # the per-episode loop's rollout raises NonFinite on the same episode
        loop = train_loop(cfg, params_ref)
    assert hist.rejected_episodes == loop.rejected_episodes == [5]
    # the other 19 rows are summed, each adding sum_k e^{-rho t_k} dt to A[0, 0], and the fits are finite
    assert hist.A[0, 0] == pytest.approx(19 * 0.05 * np.exp(-RHO * 0.05 * np.arange(20)).sum(), rel=1e-13)
    assert np.all(np.isfinite(hist.A)) and np.all(np.isfinite(hist.xi)) and not hist.clipped.any()
    for field in ("xi", "psi1", "psi2", "psi3", "clipped", "A", "b"):
        assert np.array_equal(getattr(hist, field), getattr(loop, field)), field


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_aborts_on_too_many_rejections():
    # the variance rate overflows at the capped mean action |u_k| = 1e6, so every step's X_k is non-finite
    params = ModelParams(mu=[0.2], sigma=[[1e150]], sigma_z=0.2, kappa=0.5, eta=[1.0], rho=0.2)
    cfg = qlearn.LearnConfig(T=0.5, dt=0.05, n_episodes=50, gamma=GAMMA, seed=1, psi1_0=[1e10])
    with pytest.raises(qlearn.TooManyRejectedEpisodes):
        qlearn.train(cfg, params)


def test_history_export(tmp_path, params_ref):
    cfg = qlearn.LearnConfig(T=1.0, dt=0.05, n_episodes=3, gamma=GAMMA, seed=2)
    hist = qlearn.train(cfg, params_ref)
    out = tmp_path / "history.csv"
    hist.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "episode,xi,psi1_1,psi2_11,psi3,clipped"
    assert len(lines) == 4
    s = hist.summary()
    assert s["episodes"] == 3 and "psi3" in s
    assert s["gamma"] == GAMMA
    assert np.array_equal(s["A"], hist.A) and np.array_equal(s["b"], hist.b)


@pytest.mark.parametrize("d", [1, 2])
def test_history_csv_bytes_equal_the_row_writer(tmp_path, params_ref, monkeypatch, d):
    real, calls = qlearn.update, [0]

    def every_other_held(pp, A, b, rho):   # so that some refits are held and some not
        calls[0] += 1
        return (pp, True) if calls[0] % 2 else real(pp, A, b, rho)

    monkeypatch.setattr(qlearn, "update", every_other_held)
    cfg = qlearn.LearnConfig(T=1.0, dt=0.05, n_episodes=50, gamma=GAMMA, seed=2)
    hist = qlearn.train(cfg, params_ref if d == 1 else PARAMS_D2)
    assert hist.clipped.sum() == 2 and not hist.clipped.all()
    hist.to_csv(tmp_path / "bulk.csv")
    history_csv_per_row(hist, tmp_path / "rows.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("case", ["d1", "d2", "action_cap", "resumed", "rejected"])
def test_train_equals_the_per_episode_loop(params_ref, monkeypatch, case):
    # one kernel call and one sums call per 16-episode block give the histories of a per-episode
    # loop that holds the policy for a block and refits at its end, fresh generators and all
    params = PARAMS_D2 if case == "d2" else params_ref
    if case == "action_cap":
        monkeypatch.setattr(sde, "ACTION_CAP", 0.5)
    kwargs = dict(T=2.0, dt=0.01, n_episodes=30, gamma=GAMMA, seed=11)
    resume = {}
    if case == "resumed":   # 21 episodes stop inside the second block
        first = qlearn.train(qlearn.LearnConfig(**dict(kwargs, n_episodes=21)), params)
        kwargs.update(start_episode=22)
        resume = dict(policy=first.policy, sums=(first.A, first.b))

    def run(trainer):
        if case == "rejected":
            nan_sums_row(monkeypatch, 7)
        return trainer(qlearn.LearnConfig(**kwargs), params, **resume)

    fast, loop = run(qlearn.train), run(train_loop)
    for field in ("episodes", "xi", "psi1", "psi2", "psi3", "clipped", "A", "b"):
        assert np.array_equal(getattr(fast, field), getattr(loop, field)), field
    assert np.array_equal(fast.rejected_episodes, loop.rejected_episodes)
    assert np.array_equal(fast.clamp_events, loop.clamp_events)
    assert _same_params(fast.final, loop.final) and _same_params(fast.policy, loop.policy)
    assert fast.rejected_episodes == ([7] if case == "rejected" else [])
    assert (fast.clamp_events > 0) == (case == "action_cap")
    assert fast.episodes[0] == (22 if case == "resumed" else 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_normal_sums_match_the_per_path_formula(d):
    # A_r = sum_k e^{-rho t_k} phi_k phi_k' dt and b_r = sum_k e^{-rho t_k} phi_k X_k, with
    # phi_k = (1, u_k, -u_i u_j / 2 for i = j and -u_i u_j for i < j), path by path
    rng = np.random.default_rng(50 + d)
    params = random_params(rng, d)
    mean_coef, cov_chol = random_pp(rng, d).policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(params, mean_coef, cov_chol, 21, 0.0, 1.0, 0.02, seed=d)
    A, b = path_sums(batch, params.rho)
    disc = np.exp(-params.rho * batch.times[:-1])
    for r, path in enumerate(episode_paths(batch)):
        u = path.actions / (1.0 + path.states[:-1, None])
        x = np.diff(np.log1p(path.states)) - np.diff(path.local_time)
        quad = [-u[:, i] * u[:, j] * (0.5 if i == j else 1.0) for i in range(d) for j in range(i, d)]
        phi = np.column_stack([np.ones(len(x)), u, *quad])
        _assert_rows_close(A[r], (phi * disc[:, None]).T @ phi * 0.02)
        _assert_rows_close(b[r], phi.T @ (disc * x))
        # train folds 1-row blocks' sums in the oracle, which round like their row of a larger block
        one = path_sums(sde.BatchPaths(batch.times, batch.states[r : r + 1], batch.actions[r : r + 1],
                                       batch.local_time[r : r + 1]), params.rho)
        assert np.array_equal(one[0][0], A[r]) and np.array_equal(one[1][0], b[r])


# ------------------------------------------------------------- diagnostics

def test_orthogonality_stats_empty_batch_errors(params_ref, pp_star):
    blocks = sde.increment_blocks(params_ref, *pp_star.policy_coefficients(), 0, 0.5, 0.05, seed=2)
    with pytest.raises(ValueError):
        qlearn.orthogonality_stats(pp_star, blocks, RHO)


def test_orthogonality_stats_need_two_paths(params_ref, pp_star):
    mean_coef, cov_chol = pp_star.policy_coefficients()
    one = sde.simulate_linear_gaussian_batch(params_ref, mean_coef, cov_chol, 1, 1.0, 0.5, 0.05, seed=2)
    with pytest.raises(ValueError, match="two episode paths"):
        qlearn.orthogonality_stats(pp_star, path_increments(one), RHO)


def _assert_rows_close(rows, reference, rel=1e-12):
    """Every entry within rel of the largest |entry| of its component."""
    scale = np.max(np.abs(reference), axis=0)
    assert np.all(np.abs(rows - reference) <= rel * scale)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_block_statistics_match_the_per_episode_loop(d):
    rng = np.random.default_rng(40 + d)
    params = random_params(rng, d)
    pp = random_pp(rng, d)
    mean_coef, cov_chol = pp.policy_coefficients()
    # 37 paths: two full blocks of 16 and a short one; starting at 0 makes reflections
    batch = sde.simulate_linear_gaussian_batch(params, mean_coef, cov_chol, 37, 0.0, 1.0, 0.02, seed=d)
    assert np.any(np.diff(batch.local_time, axis=1) > 0.0)
    stats = qlearn.orthogonality_stats(pp, path_increments(batch), params.rho)
    assert stats.n_paths == 37 and stats.components == qlearn._component_names(d)
    # the states-form q of the per-episode loop, and the (u_k, X_k) form read off each path
    loop = orthogonality_rows_loop(pp, batch, params.rho)
    increments = np.array([
        increment_statistics(pp, params.rho, path.times, path.actions / (1.0 + path.states[:-1, None]),
                             np.diff(np.log1p(path.states)) - np.diff(path.local_time))
        for path in episode_paths(batch)
    ])
    for reference in (loop, increments):
        _assert_rows_close(stats.rows, reference)
        _assert_rows_close(stats.means, reference.mean(axis=0))
        assert np.allclose(stats.stderrs, reference.std(axis=0, ddof=1) / math.sqrt(37), rtol=1e-12, atol=0.0)
    # path_statistics reads a 1-row block, which rounds like its row of a 16-row or a 5-row block
    for path, row in zip(episode_paths(batch), stats.rows):
        assert np.array_equal(path_statistics(pp, path, params.rho)[0], row)


@pytest.mark.parametrize("d", [1, 2])
def test_xi_shift_control_matches_a_second_pass(d):
    rng = np.random.default_rng(50 + d)
    params = random_params(rng, d)
    pp = random_pp(rng, d)
    mean_coef, cov_chol = pp.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(params, mean_coef, cov_chol, 37, 1.0, 2.0, 0.02, seed=d)
    derived = qlearn.orthogonality_stats(pp, path_increments(batch), params.rho).shifted(0.5)
    shifted = qlearn.PolicyParams(pp.xi + 0.5, pp.psi1, pp.psi2, GAMMA)
    second = qlearn.orthogonality_stats(shifted, path_increments(batch), params.rho)
    _assert_rows_close(derived.rows, second.rows)
    assert np.allclose(derived.means, second.means, rtol=1e-12, atol=0.0)
    assert np.allclose(derived.stderrs, second.stderrs, rtol=1e-12, atol=0.0)


def test_streamed_statistics_equal_the_stored_batch(params_ref, pp_star):
    # 33 paths: the last block holds one path; the kernel's (u_k, X_k) and those read off
    # the stored paths agree to rounding
    mean_coef, cov_chol = pp_star.policy_coefficients()
    args = (params_ref, mean_coef, cov_chol, 33, 2.0, 0.02, 15)
    streamed = qlearn.orthogonality_stats(pp_star, sde.increment_blocks(*args), RHO)
    batch = sde.simulate_linear_gaussian_batch(*args[:4], 1.0, *args[4:])
    stored = qlearn.orthogonality_stats(pp_star, path_increments(batch), RHO)
    _assert_rows_close(streamed.rows, stored.rows)
    _assert_rows_close(streamed.d_rows, stored.d_rows)
    _assert_rows_close(streamed.rows, orthogonality_rows_loop(pp_star, batch, RHO))


def test_orthogonality_rows_do_not_depend_on_workers_or_block_rows(params_ref, pp_star, map_layout, monkeypatch):
    # each worker reduces the blocks it draws; 75 paths are two or four full blocks and a short one
    monkeypatch.setattr(sde, "ACTION_CAP", 1.5)
    stats = []
    for layout in MAP_LAYOUTS:
        map_layout(*layout)
        blocks = sde.increment_blocks(params_ref, *pp_star.policy_coefficients(), 75, 1.0, 0.01, 8)
        stats.append(qlearn.orthogonality_stats(pp_star, blocks, RHO))
    assert sum(blocks(lambda block, _: block.clamp_events)) > 0
    for s in stats[1:]:
        assert np.array_equal(s.rows, stats[0].rows) and np.array_equal(s.d_rows, stats[0].d_rows)


def test_an_overflow_inside_a_worker_raises_no_runtime_warning(pp_star, map_layout):
    # at u_k = 1e6 the variance rate is 1.6e308: every X_k is finite, but a block's sum of them, which
    # the finiteness check takes, overflows, and so do the rows; the workers compute under
    # orthogonality_stats' errstate as the caller does, so the run ends in NonFinite
    map_layout(2, 16)
    params = ModelParams(mu=[0.2], sigma=[[1.26e148]], sigma_z=0.2, kappa=0.5, eta=[1.0], rho=RHO)
    blocks = sde.increment_blocks(params, [1e6], [[0.0]], 320, 1.0, 0.01, 0)
    with pytest.raises(sde.NonFinite, match="path 0: non-finite orthogonality statistic"):
        qlearn.orthogonality_stats(pp_star, blocks, RHO)


@pytest.mark.parametrize("d, cap", [(1, sde.ACTION_CAP), (2, sde.ACTION_CAP), (1, 0.5)])
def test_statistics_come_from_the_relative_action_and_exact_increment(params_ref, monkeypatch, d, cap):
    # dJ - dL = X_k on every step, reflecting or clamped, so each residual depends on (u_k, X_k) alone
    params = params_ref if d == 1 else PARAMS_D2
    pp = qlearn.PolicyParams.from_constants(exploratory_constants(params, params.rho / d))
    mean_coef, cov_chol = pp.policy_coefficients()
    n, T, dt, seed = 20, 2.0, 0.02, 6
    monkeypatch.setattr(sde, "ACTION_CAP", cap)
    batch = sde.simulate_linear_gaussian_batch(params, mean_coef, cov_chol, n, 0.0, T, dt, seed)
    assert np.count_nonzero(np.diff(batch.local_time, axis=1) > 0.0) > 100
    assert (batch.clamp_events > 100) == (cap < 1.0)
    stats = qlearn.orthogonality_stats(pp, path_increments(batch), params.rho)
    K = round(T / dt)
    for i, row in enumerate(stats.rows):
        u = batch.actions[i] / (1.0 + batch.states[i, :-1, None])
        x = exact_increment(params, dt, u, sde.episode_rng(seed, i).standard_normal((K, d + 1))[:, d])
        assert np.allclose(row, increment_statistics(pp, params.rho, batch.times, u, x), rtol=1e-12, atol=1e-13)


def test_orthogonality_stats_centered_at_truth(params_ref, pp_star):
    mean_coef, cov_chol = pp_star.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(
        params_ref, mean_coef, cov_chol, 2000, 1.0, 6.0, 0.02, seed=41
    )
    stats = qlearn.orthogonality_stats(pp_star, path_increments(batch), RHO)
    assert stats.n_paths == 2000
    assert np.all(np.abs(stats.z_scores()) < 4.0)
    # the shifted control is rejected with overwhelming power
    shifted = qlearn.PolicyParams(pp_star.xi + 0.5, pp_star.psi1, pp_star.psi2, GAMMA)
    z_shift = qlearn.orthogonality_stats(shifted, path_increments(batch), RHO).as_dict()["xi"]["z"]
    assert z_shift < -5.0


def test_convergence_study_rows(params_ref, pp_star):
    rows = qlearn.convergence_study(
        pp_star, params_ref, dt_list=[0.02], T_list=[2.0, 4.0], n_paths=400, y0=1.0, seed=8
    )
    assert len(rows) == 2
    by_T = {r["T"]: r for r in rows}
    ratio = by_T[4.0]["tail_bound"] / by_T[2.0]["tail_bound"]
    # doubling the horizon shrinks the truncation envelope by about e^{-rho T}
    assert ratio == pytest.approx(math.exp(-RHO * 2.0), rel=0.6)
    with pytest.raises(ValueError):
        qlearn.convergence_study(pp_star, params_ref, [], [2.0], 10, 1.0, 0)


def test_convergence_study_dt_refinement(params_ref, pp_star):
    # halving dt must not worsen the discretization bias beyond noise
    rows = qlearn.convergence_study(
        pp_star, params_ref, dt_list=[0.04, 0.02], T_list=[6.0], n_paths=3000, y0=1.0, seed=23
    )
    by_dt = {r["dt"]: r["stats"]["xi"] for r in rows}
    coarse, fine = by_dt[0.04], by_dt[0.02]
    noise = 2.0 * (coarse["stderr"] + fine["stderr"])
    assert abs(fine["mean"]) <= abs(coarse["mean"]) + noise


def test_convergence_study_single_cell_matches_stats(params_ref, pp_star):
    rows = qlearn.convergence_study(
        pp_star, params_ref, dt_list=[0.02], T_list=[2.0], n_paths=300, y0=1.0, seed=15
    )
    mean_coef, cov_chol = pp_star.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(
        params_ref, mean_coef, cov_chol, 300, 1.0, 2.0, 0.02, seed=15
    )
    direct = qlearn.orthogonality_stats(pp_star, path_increments(batch), RHO)
    assert rows[0]["stats"]["xi"]["mean"] == pytest.approx(direct.means[0], abs=1e-15)
