"""Learner layer: parameterizations, gradients, updates, trainer, diagnostics."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from benchtrack import qlearn, sde
from benchtrack.model import DomainError, ModelParams, exploratory_constants
from conftest import one_step_path, path_statistics, q_gradient, random_params, update_on_path
from oracles import (
    REF,
    central_diff,
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
    mean_coef, cov_chol = pp_star.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(
        params_ref, mean_coef, cov_chol, 1, 1.0, 0.5, 0.01, seed=77
    )
    path = next(iter(batch))
    new, _ = update_on_path(pp_star, path, qlearn.Rates(0.1, 0.1), RHO, xi_weight=1.0)
    from benchtrack.model import psi3_consistency

    assert new.psi3 == pytest.approx(psi3_consistency(new.psi1, new.psi2, GAMMA), abs=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_psi3_rows_equal_policy_psi3(d):
    # train writes the history's psi3 a block at a time; each row equals PolicyParams.psi3 (a 1-row
    # stack) and the per-row steps the policy used before, bit for bit
    rng = np.random.default_rng(70 + d)
    psi1 = rng.normal(size=(40, d))
    psi2 = np.eye(d) + 0.5 * rng.normal(size=(40, d, d))
    psi2[3] *= 1e-7   # under PSI2_FLOOR: no Gibbs policy, and psi3 falls back on the normalization formula
    psi2[5] = np.diag([1e3] + [1e-4] * (d - 1))   # for d > 1, over precision's 1e12 condition number
    got = qlearn._psi3_rows(psi1, psi2, GAMMA)
    assert np.array_equal(got, [psi3_policy_steps(a, b, GAMMA) for a, b in zip(psi1, psi2)])
    assert np.array_equal(got, [qlearn.PolicyParams(0.0, a, b, GAMMA).psi3 for a, b in zip(psi1, psi2)])


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
# formulas, frozen; see the arithmetic in the repo history).  xi_next is the
# root step at weight 1/2: 0.1 + 0.5 stat_xi / c with
# c = 0.2 * 0.5 * (1 + e^-0.1 + e^-0.2) = 0.27235681711139414.
FIXTURE_EXPECT = {
    "psi3": -0.07318515959428913,
    "stat_xi": -0.08435223740348197,
    "stat_psi1": 0.3128302347614101,
    "stat_psi2": -0.11492912405609965,
    "xi_next": -0.054856115404267325,
    "psi1_next": 0.5062566046952282,
    "psi2_next": 1.196552126278317,
}


def test_update_statistics_hand_computed_fixture():
    pp = qlearn.PolicyParams(**FIXTURE_PP)
    path = sde.EpisodePath(**FIXTURE_PATH)
    assert pp.psi3 == pytest.approx(FIXTURE_EXPECT["psi3"], abs=1e-14)
    (sx, s1, s2), _ = path_statistics(pp, path, RHO)
    assert sx == pytest.approx(FIXTURE_EXPECT["stat_xi"], abs=1e-13)
    assert s1 == pytest.approx(FIXTURE_EXPECT["stat_psi1"], abs=1e-13)
    assert s2 == pytest.approx(FIXTURE_EXPECT["stat_psi2"], abs=1e-13)


def test_update_statistics_results_outlive_the_next_episode():
    # every block of a training run reuses one workspace, but the returned rows are the caller's
    pp = qlearn.PolicyParams(**FIXTURE_PP)
    ws = qlearn._statistics_workspace(1, 3, 1)

    def rows(path):
        return qlearn._episode_statistics(pp, RHO, path["times"], path["states"][None], path["actions"][None],
                                          path["local_time"][None], ws)[0]

    first = rows(FIXTURE_PATH)
    kept = np.copy(first)
    other = dict(FIXTURE_PATH, states=np.array([0.3, 0.0, 1.0, 0.2]), actions=np.array([[1.0], [2.0], [-1.0]]))
    second = rows(other)
    assert not np.array_equal(second, kept)
    assert np.array_equal(first, kept)


def test_update_applies_rates_exactly():
    pp = qlearn.PolicyParams(**FIXTURE_PP)
    path = sde.EpisodePath(**FIXTURE_PATH)
    new, info = update_on_path(pp, path, qlearn.Rates(0.02, 0.03), RHO, xi_weight=0.5)
    assert new.xi == pytest.approx(FIXTURE_EXPECT["xi_next"], abs=1e-13)
    assert new.psi1[0] == pytest.approx(FIXTURE_EXPECT["psi1_next"], abs=1e-13)
    assert new.psi2[0, 0] == pytest.approx(FIXTURE_EXPECT["psi2_next"], abs=1e-13)
    assert not info.clipped


def test_update_zero_rate_and_zero_residual_are_noops(pp_star):
    path = sde.EpisodePath(**FIXTURE_PATH)
    pp = qlearn.PolicyParams(**FIXTURE_PP)
    new, _ = update_on_path(pp, path, qlearn.Rates(0.0, 0.0), RHO, xi_weight=0.0)
    assert new.xi == pp.xi
    assert np.array_equal(new.psi1, pp.psi1)
    assert np.array_equal(new.psi2, pp.psi2)
    # a constant path with zero actions/local time has G identically ... not 0;
    # instead check the G == 0 construction directly: stationary fixture
    y = 0.9
    a = qlearn.policy_from_q(pp, y).mean
    q = qlearn.q_value(pp, RHO, y, a)
    j = qlearn.j_value(pp, y)
    ppz = qlearn.PolicyParams(pp.xi - (q + RHO * j) / RHO, pp.psi1, pp.psi2, GAMMA)
    path0 = sde.EpisodePath(
        times=np.array([0.0, 0.5, 1.0]),
        states=np.array([y, y, y]),
        actions=np.array([a, a]),
        local_time=np.zeros(3),
    )
    new0, info0 = update_on_path(ppz, path0, qlearn.Rates(0.5, 0.5), RHO, xi_weight=1.0)
    assert new0.xi == pytest.approx(ppz.xi, abs=1e-12)
    assert np.allclose(new0.psi1, ppz.psi1, atol=1e-12)
    assert info0.norm < 1e-12


def test_update_clips_and_projects():
    pp = qlearn.PolicyParams(**FIXTURE_PP)
    path = sde.EpisodePath(**FIXTURE_PATH)
    new, info = update_on_path(pp, path, qlearn.Rates(1e4, 1e4), RHO, xi_weight=1.0)
    assert info.clipped
    step = np.array([new.psi1[0] - pp.psi1[0], new.psi2[0, 0] - pp.psi2[0, 0]])
    assert np.linalg.norm(step) <= qlearn.UPDATE_CLIP + 1e-9
    # the xi root step is not clipped: 0.1 + stat_xi / c, c as in FIXTURE_EXPECT
    assert new.xi == pytest.approx(-0.20971223080853466, abs=1e-13)
    # psi2 projection floor
    tiny = qlearn.PolicyParams(0.0, [0.0], [[1e-9]], GAMMA)
    projected = qlearn._project_psi2(tiny.psi2)
    assert projected[0, 0] == qlearn.PSI2_FLOOR


def test_update_rejects_non_finite():
    pp = qlearn.PolicyParams(**FIXTURE_PP)
    bad = dict(FIXTURE_PATH)
    bad["states"] = np.array([1.0, 0.5, math.inf, 2.0])
    with pytest.raises(qlearn.NonFiniteUpdate), np.errstate(invalid="ignore"):
        update_on_path(pp, sde.EpisodePath(**bad), qlearn.Rates(0.1, 0.1), RHO, xi_weight=1.0)


def test_update_xi_weight_one_solves_xi_condition(params_ref):
    # stat_xi is linear in xi, so a full-weight step lands on its exact root
    rng = np.random.default_rng(12)
    for trial in range(5):
        pp = random_pp(rng)
        mean_coef, cov_chol = pp.policy_coefficients()
        batch = sde.simulate_linear_gaussian_batch(
            params_ref, mean_coef, cov_chol, 1, 1.0, 3.0, 0.02, seed=trial
        )
        path = next(iter(batch))
        new, info = update_on_path(pp, path, qlearn.Rates(0.1, 0.1), RHO, xi_weight=1.0)
        at_root = qlearn.PolicyParams(new.xi, pp.psi1, pp.psi2, GAMMA)
        assert abs(path_statistics(at_root, path, RHO)[0][0]) < 1e-12
        # the xi step stays out of the clipped norm
        (_, s1, s2), _ = path_statistics(pp, path, RHO)
        assert info.norm == pytest.approx(0.1 * math.hypot(s1, s2), rel=1e-12)


def test_update_xi_weight_rejects_non_finite_root():
    pp = qlearn.PolicyParams(**FIXTURE_PP)
    bad = dict(FIXTURE_PATH)
    bad["states"] = np.array([1.0, 0.5, math.inf, 2.0])
    with pytest.raises(qlearn.NonFiniteUpdate), np.errstate(invalid="ignore"):
        update_on_path(pp, sde.EpisodePath(**bad), qlearn.Rates(0.0, 0.0), RHO, xi_weight=1.0)


# ---------------------------------------------------------------- schedule

def test_schedule_reference_values():
    r1 = qlearn.schedule(1)
    assert r1.alpha_psi1 == pytest.approx(0.1)
    assert r1.alpha_psi2 == pytest.approx(0.01)
    r = qlearn.schedule(10_000)
    assert r.alpha_psi1 == pytest.approx(0.1 / 10_000**0.61)
    assert r.alpha_psi2 == pytest.approx(0.01 / 10_000**0.61)
    r2 = qlearn.schedule(10_001)
    assert r2.alpha_psi1 == pytest.approx(0.05 / 10_001**0.81)
    assert r2.alpha_psi2 == pytest.approx(0.005 / 10_001**0.81)
    assert r2.alpha_psi1 < r.alpha_psi1
    rates = [qlearn.schedule(i).alpha_psi1 for i in range(1, 200)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    with pytest.raises(ValueError):
        qlearn.schedule(0)


# ------------------------------------------------------------------ train

def test_train_single_episode_applies_one_update(params_ref):
    env = sde.Environment(params=params_ref, dt=0.05)
    cfg = qlearn.LearnConfig(y0=1.0, T=1.0, dt=0.05, n_episodes=1, gamma=GAMMA, rho=RHO, seed=5)
    hist = qlearn.train(cfg, env)
    assert len(hist.episodes) == 1
    assert hist.final.xi != 0.0  # one update moved the neutral start


def test_train_reproducible(params_ref):
    def run():
        env = sde.Environment(params=params_ref, dt=0.05)
        cfg = qlearn.LearnConfig(y0=1.0, T=2.0, dt=0.05, n_episodes=20, gamma=GAMMA, rho=RHO, seed=9)
        return qlearn.train(cfg, env)

    h1, h2 = run(), run()
    assert np.array_equal(h1.xi, h2.xi)
    assert np.array_equal(h1.psi1, h2.psi1)
    assert np.array_equal(h1.psi2, h2.psi2)


def test_train_resume_equals_single_run(params_ref):
    # 5 of 10 episodes stops inside the first block; the rest of it is drawn by the block-start policy
    env = sde.Environment(params=params_ref, dt=0.05)
    full = qlearn.train(
        qlearn.LearnConfig(y0=1.0, T=2.0, dt=0.05, n_episodes=10, gamma=GAMMA, rho=RHO, seed=3),
        env,
    )
    env2 = sde.Environment(params=params_ref, dt=0.05)
    first = qlearn.train(
        qlearn.LearnConfig(y0=1.0, T=2.0, dt=0.05, n_episodes=5, gamma=GAMMA, rho=RHO, seed=3),
        env2,
    )
    resumed = qlearn.train(
        qlearn.LearnConfig(
            y0=1.0, T=2.0, dt=0.05, n_episodes=5, gamma=GAMMA, rho=RHO, seed=3,
            xi0=first.final.xi, psi1_0=first.final.psi1, psi2_0=first.final.psi2,
            start_episode=6,
        ),
        env2,
        policy=first.policy,
    )
    assert resumed.final.xi == full.final.xi
    assert np.array_equal(resumed.final.psi1, full.final.psi1)
    assert np.array_equal(resumed.final.psi2, full.final.psi2)
    for field in ("xi", "psi1", "psi2", "psi3", "update_norms"):
        assert np.array_equal(getattr(resumed, field), getattr(full, field)[5:]), field
    assert list(resumed.episodes) == list(range(6, 11))
    # without the block-start policy the rest of the block is drawn at the resumed parameters
    assert first.policy.xi == 0.0 and first.final.xi != 0.0
    drifted = qlearn.train(
        qlearn.LearnConfig(
            y0=1.0, T=2.0, dt=0.05, n_episodes=5, gamma=GAMMA, rho=RHO, seed=3,
            xi0=first.final.xi, psi1_0=first.final.psi1, psi2_0=first.final.psi2,
            start_episode=6,
        ),
        sde.Environment(params=params_ref, dt=0.05),
    )
    assert not np.array_equal(drifted.psi1, resumed.psi1)


def test_train_counts_only_its_own_clamps(params_ref):
    # a reused environment keeps a running total; each history reports its own run
    env = sde.Environment(params=params_ref, dt=0.05, action_cap=0.5)
    cfg = qlearn.LearnConfig(y0=1.0, T=2.0, dt=0.05, n_episodes=5, gamma=GAMMA, rho=RHO, seed=4)
    first, second = qlearn.train(cfg, env), qlearn.train(cfg, env)
    assert first.clamp_events > 0
    assert second.clamp_events == first.clamp_events
    assert env.clamp_events == 2 * first.clamp_events


def test_train_near_fixed_point_stays_close(params_ref, exploratory_ref, monkeypatch):
    # a tenth of the first regime's rates, initialized at the known solution: parameters barely move
    monkeypatch.setattr(qlearn, "schedule", lambda i: qlearn.Rates(0.01 * i ** -0.61, 0.001 * i ** -0.61))
    env = sde.Environment(params=params_ref, dt=0.02)
    cfg = qlearn.LearnConfig(
        y0=1.0, T=6.0, dt=0.02, n_episodes=2000, gamma=GAMMA, rho=RHO, seed=11,
        xi0=exploratory_ref.xi_star,
        psi1_0=exploratory_ref.psi1_star,
        psi2_0=exploratory_ref.psi2_star,
    )
    hist = qlearn.train(cfg, env)
    assert abs(hist.final.xi - exploratory_ref.xi_star) < 0.05
    assert abs(hist.final.psi1[0] - exploratory_ref.psi1_star[0]) < 0.05
    assert abs(hist.final.psi2[0, 0] - exploratory_ref.psi2_star[0, 0]) < 0.05


def test_train_xi_is_mean_of_episode_roots(params_ref, monkeypatch):
    # with psi frozen every episode has the same policy, so the per-episode
    # roots xi + stat_xi / c can be replayed from the batch simulator
    monkeypatch.setattr(qlearn, "schedule", lambda i: qlearn.Rates(0.0, 0.0))
    n, T, dt = 30, 2.0, 0.05
    env = sde.Environment(params=params_ref, dt=dt)
    cfg = qlearn.LearnConfig(y0=1.0, T=T, dt=dt, n_episodes=n, gamma=GAMMA, rho=RHO, seed=4, xi0=0.7)
    hist = qlearn.train(cfg, env)
    assert not hist.rejected_episodes
    pp0 = cfg.initial_params(1)
    mean_coef, cov_chol = pp0.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(
        params_ref, mean_coef, cov_chol, n + 1, 1.0, T, dt, seed=4
    )
    paths = list(batch)[1:]  # train's episode i uses stream (seed, i), i >= 1
    c = RHO * dt * sum(math.exp(-RHO * k * dt) for k in range(round(T / dt)))
    roots = np.array([pp0.xi + path_statistics(pp0, p, RHO)[0][0] / c for p in paths])
    running = np.cumsum(roots) / np.arange(1, n + 1)
    assert np.allclose(hist.xi, running, rtol=0.0, atol=1e-12)
    assert abs(hist.final.xi - roots.mean()) < 1e-12
    assert np.array_equal(hist.psi1[:, 0], np.zeros(n))


def nan_xi_statistic(monkeypatch, episode: int) -> None:
    """Make the xi statistic of the episode-th row that _episode_statistics returns NaN.

    train asks for a block's rows in one call and train_loop for one row per
    call, so counting rows reaches the same episode in both.
    """
    real = qlearn._episode_statistics
    seen = [0]

    def stats(*args, **kwargs):
        rows, d_rows, c = real(*args, **kwargs)
        if seen[0] < episode <= seen[0] + len(rows):
            rows[episode - 1 - seen[0], 0] = math.nan
        seen[0] += len(rows)
        return rows, d_rows, c

    monkeypatch.setattr(qlearn, "_episode_statistics", stats)


def test_train_counts_non_finite_xi_root_as_rejected(params_ref, monkeypatch):
    nan_xi_statistic(monkeypatch, 3)
    monkeypatch.setattr(qlearn, "REJECT_FRACTION", 0.5)
    env = sde.Environment(params=params_ref, dt=0.05)
    cfg = qlearn.LearnConfig(y0=1.0, T=1.0, dt=0.05, n_episodes=5, gamma=GAMMA, rho=RHO, seed=6)
    hist = qlearn.train(cfg, env)
    assert hist.rejected_episodes == [3]
    assert hist.xi[2] == hist.xi[1]
    assert np.all(np.isfinite(hist.xi))


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
    cfg = qlearn.LearnConfig(y0=1.0, T=1.0, dt=0.05, n_episodes=20, gamma=GAMMA, rho=RHO, seed=6)
    with np.errstate(invalid="ignore"):
        hist = qlearn.train(cfg, sde.Environment(params=params_ref, dt=0.05))
        # the per-episode loop's rollout raises NonFinite on the same episode
        loop = train_loop(cfg, sde.Environment(params=params_ref, dt=0.05))
    assert hist.rejected_episodes == loop.rejected_episodes == [5]
    assert hist.xi[4] == hist.xi[3] and np.array_equal(hist.psi1[4], hist.psi1[3])
    # the other 15 rows of the block update
    assert np.count_nonzero(hist.update_norms[:16]) == 15 and np.all(np.diff(hist.xi[5:16]) != 0.0)
    for field in ("xi", "psi1", "psi2", "psi3", "update_norms"):
        assert np.array_equal(getattr(hist, field), getattr(loop, field)), field


def test_train_rejects_a_block_without_a_policy(params_ref):
    # a run resumed at episode 15 whose block-start policy cannot be inverted rejects episodes 15 and 16
    singular = qlearn.PolicyParams(0.3, [0.3], [[1e-7]], GAMMA)
    kwargs = dict(y0=1.0, T=1.0, dt=0.05, n_episodes=20, gamma=GAMMA, rho=RHO, seed=8, start_episode=15)
    hist = qlearn.train(qlearn.LearnConfig(**kwargs), sde.Environment(params=params_ref, dt=0.05), singular)
    loop = train_loop(qlearn.LearnConfig(**kwargs), sde.Environment(params=params_ref, dt=0.05), singular)
    assert hist.rejected_episodes == loop.rejected_episodes == [15, 16]
    assert np.all(hist.xi[:2] == 0.0) and np.count_nonzero(hist.update_norms) == 18
    for field in ("xi", "psi1", "psi2", "psi3", "update_norms"):
        assert np.array_equal(getattr(hist, field), getattr(loop, field)), field


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_aborts_on_too_many_rejections():
    # overflowing drift makes every episode non-finite within two steps
    params = ModelParams(mu=[1e308], sigma=[[1.0]], sigma_z=0.2, kappa=0.5, eta=[1.0], rho=0.2)
    env = sde.Environment(params=params, dt=0.05)
    cfg = qlearn.LearnConfig(y0=1.0, T=0.5, dt=0.05, n_episodes=50, gamma=GAMMA, rho=RHO, seed=1)
    with pytest.raises(qlearn.TooManyRejectedEpisodes):
        qlearn.train(cfg, env)


def test_history_export(tmp_path, params_ref):
    env = sde.Environment(params=params_ref, dt=0.05)
    cfg = qlearn.LearnConfig(y0=1.0, T=1.0, dt=0.05, n_episodes=3, gamma=GAMMA, rho=RHO, seed=2)
    hist = qlearn.train(cfg, env)
    out = tmp_path / "history.csv"
    hist.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "episode,xi,psi1_1,psi2_11,psi3,update_norm,clipped"
    assert len(lines) == 4
    s = hist.summary()
    assert s["episodes"] == 3 and "psi3" in s
    assert s["gamma"] == GAMMA


PARAMS_D2 = ModelParams(mu=[0.2, 0.1], sigma=[[1.0, 0.3], [0.0, 0.8]], sigma_z=0.2, kappa=0.5, eta=[0.6, 0.8],
                        rho=0.2)


@pytest.mark.parametrize("d", [1, 2])
def test_history_csv_bytes_equal_the_row_writer(tmp_path, params_ref, monkeypatch, d):
    monkeypatch.setattr(qlearn, "UPDATE_CLIP", 0.02)   # so that some episodes are clipped and some not
    env = sde.Environment(params=params_ref if d == 1 else PARAMS_D2, dt=0.05)
    cfg = qlearn.LearnConfig(y0=1.0, T=1.0, dt=0.05, n_episodes=25, gamma=GAMMA, rho=RHO, seed=2)
    hist = qlearn.train(cfg, env)
    assert hist.clipped.any() and not hist.clipped.all()
    hist.to_csv(tmp_path / "bulk.csv")
    history_csv_per_row(hist, tmp_path / "rows.csv")
    assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("case", ["d1", "d2", "action_cap", "resumed", "rejected"])
def test_train_equals_the_per_episode_loop(params_ref, monkeypatch, case):
    # one kernel call and one statistics call per 16-episode block give the histories of a
    # per-episode loop that holds the policy at its block-start value, fresh generators and all
    params = PARAMS_D2 if case == "d2" else params_ref
    cap = 0.5 if case == "action_cap" else sde.DEFAULT_ACTION_CAP
    kwargs = dict(y0=1.0, T=2.0, dt=0.01, n_episodes=30, gamma=GAMMA, rho=RHO, seed=11)
    policy = None
    if case == "resumed":   # 21 episodes stop inside the second block
        first = qlearn.train(qlearn.LearnConfig(**dict(kwargs, n_episodes=21)), sde.Environment(params=params, dt=0.01))
        kwargs.update(xi0=first.final.xi, psi1_0=first.final.psi1, psi2_0=first.final.psi2, start_episode=22)
        policy = first.policy

    def run(trainer):
        if case == "rejected":
            nan_xi_statistic(monkeypatch, 7)
        env = sde.Environment(params=params, dt=0.01, action_cap=cap)
        return trainer(qlearn.LearnConfig(**kwargs), env, policy)

    fast, loop = run(qlearn.train), run(train_loop)
    for field in ("episodes", "xi", "psi1", "psi2", "psi3", "update_norms", "clipped"):
        assert np.array_equal(getattr(fast, field), getattr(loop, field)), field
    assert np.array_equal(fast.rejected_episodes, loop.rejected_episodes)
    assert np.array_equal(fast.clamp_events, loop.clamp_events)
    for name in ("final", "policy"):
        a, b = getattr(fast, name), getattr(loop, name)
        assert a.xi == b.xi and np.array_equal(a.psi1, b.psi1) and np.array_equal(a.psi2, b.psi2), name
    assert fast.rejected_episodes == ([7] if case == "rejected" else [])
    assert (fast.clamp_events > 0) == (case == "action_cap")
    assert fast.episodes[0] == (22 if case == "resumed" else 1)


# ------------------------------------------------------------- diagnostics

def test_orthogonality_stats_empty_batch_errors(pp_star):
    with pytest.raises(ValueError):
        qlearn.orthogonality_stats(pp_star, [], RHO)


def test_orthogonality_stats_need_two_paths(params_ref, pp_star):
    mean_coef, cov_chol = pp_star.policy_coefficients()
    one = sde.simulate_linear_gaussian_batch(params_ref, mean_coef, cov_chol, 1, 1.0, 0.5, 0.05, seed=2)
    with pytest.raises(ValueError, match="two episode paths"):
        qlearn.orthogonality_stats(pp_star, one, RHO)


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
    stats = qlearn.orthogonality_stats(pp, batch, params.rho)
    assert stats.n_paths == 37 and stats.components == qlearn._component_names(d)
    # the states-form q of the per-episode loop, and the (u_k, X_k) form read off each path
    loop = orthogonality_rows_loop(pp, batch, params.rho)
    increments = np.array([
        increment_statistics(pp, params.rho, path.times, path.actions / (1.0 + path.states[:-1, None]),
                             np.diff(np.log1p(path.states)) - np.diff(path.local_time))
        for path in batch
    ])
    for reference in (loop, increments):
        _assert_rows_close(stats.rows, reference)
        _assert_rows_close(stats.means, reference.mean(axis=0))
        assert np.allclose(stats.stderrs, reference.std(axis=0, ddof=1) / math.sqrt(37), rtol=1e-12, atol=0.0)
    # update reads a 1-row block, which rounds like its row of a 16-row or a 5-row block
    for path, row in zip(batch, stats.rows):
        assert np.array_equal(path_statistics(pp, path, params.rho)[0], row)


@pytest.mark.parametrize("d", [1, 2])
def test_xi_shift_control_matches_a_second_pass(d):
    rng = np.random.default_rng(50 + d)
    params = random_params(rng, d)
    pp = random_pp(rng, d)
    mean_coef, cov_chol = pp.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(params, mean_coef, cov_chol, 37, 1.0, 2.0, 0.02, seed=d)
    derived = qlearn.orthogonality_stats(pp, batch, params.rho).shifted(0.5)
    shifted = qlearn.PolicyParams(pp.xi + 0.5, pp.psi1, pp.psi2, GAMMA)
    second = qlearn.orthogonality_stats(shifted, batch, params.rho)
    _assert_rows_close(derived.rows, second.rows)
    assert np.allclose(derived.means, second.means, rtol=1e-12, atol=0.0)
    assert np.allclose(derived.stderrs, second.stderrs, rtol=1e-12, atol=0.0)


def test_streamed_statistics_equal_the_stored_batch(params_ref, pp_star):
    # 33 paths: the last block holds one path
    mean_coef, cov_chol = pp_star.policy_coefficients()
    args = (params_ref, mean_coef, cov_chol, 33, 1.0, 2.0, 0.02, 15)
    streamed = qlearn.orthogonality_stats(pp_star, sde.linear_gaussian_blocks(*args), RHO)
    batch = sde.simulate_linear_gaussian_batch(*args)
    stored = qlearn.orthogonality_stats(pp_star, batch, RHO)
    assert np.array_equal(streamed.rows, stored.rows)
    assert np.array_equal(streamed.d_rows, stored.d_rows)
    _assert_rows_close(streamed.rows, orthogonality_rows_loop(pp_star, batch, RHO))


@pytest.mark.parametrize("d, cap", [(1, sde.DEFAULT_ACTION_CAP), (2, sde.DEFAULT_ACTION_CAP), (1, 0.5)])
def test_statistics_come_from_the_relative_action_and_exact_increment(params_ref, d, cap):
    # dJ - dL = X_k on every step, reflecting or clamped, so each residual depends on (u_k, X_k) alone
    params = params_ref if d == 1 else PARAMS_D2
    pp = qlearn.PolicyParams.from_constants(exploratory_constants(params, params.rho / d))
    mean_coef, cov_chol = pp.policy_coefficients()
    n, T, dt, seed = 20, 2.0, 0.02, 6
    batch = sde.simulate_linear_gaussian_batch(params, mean_coef, cov_chol, n, 0.0, T, dt, seed, cap)
    assert np.count_nonzero(np.diff(batch.local_time, axis=1) > 0.0) > 100
    assert (batch.clamp_events > 100) == (cap < 1.0)
    stats = qlearn.orthogonality_stats(pp, batch, params.rho)
    K = round(T / dt)
    for i, row in enumerate(stats.rows):
        u = batch.actions[i] / (1.0 + batch.states[i, :-1, None])
        x = exact_increment(params, dt, u, sde.episode_rng(seed, i).standard_normal((K, 2 * d + 1)))
        assert np.allclose(row, increment_statistics(pp, params.rho, batch.times, u, x), rtol=1e-12, atol=1e-13)


def test_orthogonality_stats_centered_at_truth(params_ref, pp_star):
    mean_coef, cov_chol = pp_star.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(
        params_ref, mean_coef, cov_chol, 2000, 1.0, 6.0, 0.02, seed=41
    )
    stats = qlearn.orthogonality_stats(pp_star, batch, RHO)
    assert stats.n_paths == 2000
    assert np.all(np.abs(stats.z_scores()) < 4.0)
    # the shifted control is rejected with overwhelming power
    shifted = qlearn.PolicyParams(pp_star.xi + 0.5, pp_star.psi1, pp_star.psi2, GAMMA)
    z_shift = qlearn.orthogonality_stats(shifted, batch, RHO).as_dict()["xi"]["z"]
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
    direct = qlearn.orthogonality_stats(pp_star, batch, RHO)
    assert rows[0]["stats"]["xi"]["mean"] == pytest.approx(direct.means[0], abs=1e-15)
