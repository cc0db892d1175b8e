"""Acceptance gate: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Budgets and tolerances are fixed here, not tuned at runtime.
"""

import json
import math
import time

import numpy as np
from scipy.stats import ks_2samp

from benchtrack import qlearn, sde
from benchtrack.cli import main
from benchtrack.model import (
    ModelParams,
    classical_solution,
    exploratory_constants,
    lambda_polynomial,
    solve_lambda,
)
from conftest import path_increments, q_gradient, random_params
from oracles import REF, bisect_root, central_diff, rel_err

GAMMA = 0.2
RHO = 0.2


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_1_closed_form_constants(tmp_path):
    """cmd_solve reproduces the reference constants within 5e-5 in under 1 s."""
    cfg = tmp_path / "solve.yaml"
    cfg.write_text(
        "model:\n  mu: [0.2]\n  sigma: [[1.0]]\n  sigma_z: 0.2\n  kappa: 0.5\n"
        "  eta: [1.0]\n  rho: 0.2\ngamma: 0.2\ngrid: {y_max: 1.0, step: 0.5}\n"
    )
    t0 = time.perf_counter()
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    elapsed = time.perf_counter() - t0
    payload = json.loads((tmp_path / "out" / "constants.json").read_text())
    errs = {
        "xi": abs(payload["xi_star"] - 0.3624),
        "psi1": abs(payload["psi1_star"][0] - 0.3732),
        "psi2": abs(payload["psi2_star"][0][0] - 1.0000),
    }
    psi3_ok = abs(payload["psi3_star"] - REF["psi3_star"]) < 1e-9
    ok = rc == 0 and all(e < 5e-5 for e in errs.values()) and psi3_ok and elapsed < 1.0
    report(1, ok, f"constants within 5e-5 (errs {errs}), psi3 from the "
                  f"normalization identity, {elapsed:.2f}s")
    assert rc == 0
    assert errs["xi"] < 5e-5 and errs["psi1"] < 5e-5 and errs["psi2"] < 5e-5
    assert psi3_ok
    assert elapsed < 1.0


def test_criterion_2_hjb_residual_suites(classical_ref, exploratory_ref):
    """Both HJB residuals stay below 1e-8 on y in [0, 10] step 0.01, under 1 s."""
    t0 = time.perf_counter()
    ys = np.arange(0.0, 10.0 + 1e-9, 0.01)
    r_classical = float(np.max(np.abs(classical_ref.hjb_residual(ys))))
    r_exploratory = float(np.max(np.abs(exploratory_ref.hjb_residual(ys))))
    elapsed = time.perf_counter() - t0
    ok = r_classical < 1e-8 and r_exploratory < 1e-8 and elapsed < 1.0
    report(2, ok, f"max residuals classical {r_classical:.2e}, "
                  f"exploratory {r_exploratory:.2e}, {elapsed:.2f}s")
    assert r_classical < 1e-8
    assert r_exploratory < 1e-8
    assert elapsed < 1.0


def test_criterion_3_root_solver_against_oracle():
    """1000 random draws: |ell(lam)| < 1e-12, lam in (0,1), bisection agrees 1e-10."""
    rng = np.random.default_rng(2024)
    worst_resid, worst_gap = 0.0, 0.0
    for _ in range(1000):
        params = random_params(rng)
        lam = solve_lambda(params)
        resid = abs(lambda_polynomial(params, lam))
        oracle = bisect_root(lambda x: lambda_polynomial(params, x), 0.0, 1.0)
        worst_resid = max(worst_resid, resid)
        worst_gap = max(worst_gap, abs(lam - oracle))
        assert 0.0 < lam < 1.0
    ok = worst_resid < 1e-12 and worst_gap < 1e-10
    report(3, ok, f"1000 draws: max |ell| {worst_resid:.2e}, max oracle gap {worst_gap:.2e}")
    assert worst_resid < 1e-12
    assert worst_gap < 1e-10


def test_criterion_4_simulator_oracle_equivalence(params_ref):
    """KS test between the Euler scheme and the Skorokhod oracle, 3 seeds."""
    t0 = time.perf_counter()
    n, T, dt, y0 = 10_000, 1.0, 1e-3, 1.0
    pvals = []
    for s in (1, 2, 3):
        y_euler = sde.aggregated_terminal_sample(params_ref, GAMMA, y0, T, dt, n, seed=s)
        h_oracle = sde.skorokhod_terminal_sample(
            params_ref, GAMMA, math.log1p(y0), T, dt, n, seed=s + 1000
        )
        pvals.append(float(ks_2samp(y_euler, np.expm1(h_oracle)).pvalue))
    elapsed = time.perf_counter() - t0
    ok = all(p > 0.01 for p in pvals) and elapsed < 120.0
    report(4, ok, f"KS p-values {['%.3f' % p for p in pvals]}, {elapsed:.1f}s")
    assert all(p > 0.01 for p in pvals)
    assert elapsed < 120.0


def test_criterion_5_martingale_z_test(params_ref, pp_star):
    """Every orthogonality statistic is within 3 sigma at the true constants
    (n=1e4 episodes, T=12, dt=0.01); the xi-shifted control fails > 5 sigma."""
    t0 = time.perf_counter()
    mean_coef, cov_chol = pp_star.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(
        params_ref, mean_coef, cov_chol, 10_000, 1.0, 12.0, 0.01, seed=1
    )
    stats = qlearn.orthogonality_stats(pp_star, path_increments(batch), RHO)
    zs = stats.z_scores()
    shifted = qlearn.PolicyParams(pp_star.xi + 0.5, pp_star.psi1, pp_star.psi2, GAMMA)
    z_shift = qlearn.orthogonality_stats(shifted, path_increments(batch), RHO).as_dict()["xi"]["z"]
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(np.abs(zs) < 3.0)) and abs(z_shift) > 5.0 and elapsed < 600.0
    report(5, ok, f"z-scores {['%.2f' % z for z in zs]}, shifted control z "
                  f"{z_shift:.1f}, {elapsed:.1f}s")
    assert np.all(np.abs(zs) < 3.0)
    assert abs(z_shift) > 5.0
    assert elapsed < 600.0


def test_criterion_6_desk_scale_training(params_ref):
    """Training at N=4000, dt=0.01, T=12 from the default start, 3 seeds.

    The learner solves the orthogonality conditions by least squares on
    running sums, refit once per 16-episode block.  Every residual is
    linear in (psi3 + rho xi, psi1, psi2 psi2'), so the fit has no learning
    rate; the xi band once failed under an SGD step at the rate
    0.015 i^-0.61, which capped xi near 0.21 (0.200, 0.211, 0.190 on these
    seeds), short of its own orthogonality condition.
    """
    t0 = time.perf_counter()
    finals, stds = [], []
    for seed in (1, 2, 3):
        cfg = qlearn.LearnConfig(
            y0=1.0, T=12.0, dt=0.01, n_episodes=4000, gamma=GAMMA, rho=RHO, seed=seed
        )
        hist = qlearn.train(cfg, params_ref)
        finals.append((hist.final.xi, float(hist.final.psi1[0]), float(hist.final.psi2[0, 0])))
        tail = slice(3600, 4000)
        stds.append(
            (float(hist.xi[tail].std()), float(hist.psi1[tail, 0].std()),
             float(hist.psi2[tail, 0, 0].std()))
        )
    elapsed = time.perf_counter() - t0
    xi_ok = all(0.26 <= f[0] <= 0.46 for f in finals)
    psi1_ok = all(0.17 <= f[1] <= 0.57 for f in finals)
    psi2_ok = all(0.8 <= f[2] <= 1.45 for f in finals)
    std_ok = all(max(s) < 0.02 for s in stds)
    ok = xi_ok and psi1_ok and psi2_ok and std_ok and elapsed < 1800.0
    detail = (
        f"xi {['%.3f' % f[0] for f in finals]} in [0.26,0.46]: {xi_ok}; "
        f"psi1 {['%.3f' % f[1] for f in finals]} in [0.17,0.57]: {psi1_ok}; "
        f"psi2 {['%.3f' % f[2] for f in finals]} in [0.8,1.45]: {psi2_ok}; "
        f"tail stds < 0.02: {std_ok}; {elapsed:.0f}s"
    )
    report(6, ok, detail)
    assert psi1_ok, detail
    assert psi2_ok, detail
    assert std_ok, detail
    assert elapsed < 1800.0, detail
    assert xi_ok, "xi band unattainable from the neutral start: " + detail


def test_criterion_7_transversality_bound(params_ref):
    """Discounted mean log-state stays under the explicit envelope for T=5,10,20."""
    t0 = time.perf_counter()
    b, s = sde.aggregated_coefficients(params_ref, GAMMA)
    mu_hat = b - 0.5 * s * s
    y0 = 1.0
    h0 = math.log1p(y0)
    n = 10_000
    all_ok = True
    details = []
    for T in (5.0, 10.0, 20.0):
        h_T = sde.skorokhod_terminal_sample(params_ref, GAMMA, h0, T, 0.01, n, seed=int(T))
        disc = math.exp(-RHO * T)
        est = disc * float(h_T.mean())
        se = disc * float(h_T.std(ddof=1)) / math.sqrt(n)
        bound = disc * (2.0 * h0 + 2.0 * abs(mu_hat) * T + s * math.sqrt(2.0 * T / math.pi))
        all_ok &= est <= bound + 3.0 * se
        details.append(f"T={T:.0f}: {est:.4f} <= {bound:.4f}")
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 120.0
    report(7, ok, "; ".join(details) + f", {elapsed:.1f}s")
    assert all_ok
    assert elapsed < 120.0


def test_criterion_8_backtest_properties(tmp_path):
    """Dominance, monotonicity, cash-scale equivariance and the exact fixture."""
    from benchtrack.backtest import PriceSeries, load_prices, run_tracking
    from oracles import running_sup_injection, simulate_gbm

    rng = np.random.default_rng(88)
    equivariance_worst = 0.0
    for trial in range(50):
        n = 80
        s = simulate_gbm(0.08, 0.3, 50.0, 1.0 / 252, n, rng)
        z = simulate_gbm(0.0, 0.15, 100.0, 1.0 / 252, n, rng)
        times = np.arange(n + 1, dtype=float)
        series = PriceSeries(times=times, benchmark=z, assets=s[:, None])

        def strat(y):
            return np.array([0.6 * (1.0 + y)])

        res = run_tracking(series, strat, v0=90.0, rho=0.1)
        assert np.all(res.wealth + res.injection >= res.benchmark - 1e-9)
        assert np.all(np.diff(res.injection) >= -1e-12)
        assert np.allclose(res.injection, running_sup_injection(z, res.wealth), atol=1e-9)
        c = 3.7
        scaled = run_tracking(
            PriceSeries(times=times, benchmark=c * z, assets=(c * s)[:, None]),
            strat, v0=c * 90.0, rho=0.1,
        )
        equivariance_worst = max(
            equivariance_worst,
            float(np.max(np.abs(scaled.injection - c * res.injection))) / c,
            float(np.max(np.abs(scaled.state - res.state))),
        )
    assert equivariance_worst < 1e-10

    # hand-computed five-row fixture must match exactly
    f = tmp_path / "fixture.csv"
    f.write_text(
        "timestamp,benchmark,asset_1\n0,100,100\n1,103,110\n2,101,99\n"
        "3,107,108.9\n4,104,108.9\n"
    )
    series = load_prices(f)
    res = run_tracking(series, lambda y: np.ones(1), v0=98.0, rho=0.2)
    fixture_ok = (
        np.allclose(res.wealth, [98.0, 108.0, 97.7, 107.8, 107.8], atol=1e-10)
        and np.allclose(res.injection, [2.0, 2.0, 3.3, 3.3, 3.3], atol=1e-10)
        and abs(res.discounted_cost - (2.0 + 1.3 * math.exp(-0.4))) < 1e-12
    )
    ok = equivariance_worst < 1e-10 and fixture_ok
    report(8, ok, f"50 synthetic fixtures clean, equivariance error "
                  f"{equivariance_worst:.1e}, 5-row fixture exact: {fixture_ok}")
    assert fixture_ok


def test_criterion_9_gradient_checks(classical_ref, exploratory_ref, pp_star):
    """All analytic derivatives match central differences to relative 1e-6."""
    rng = np.random.default_rng(31)
    worst = 0.0

    for y in rng.uniform(0.01, 10.0, size=100):
        worst = max(worst, rel_err(central_diff(classical_ref.value, y),
                                   classical_ref.value_d1(y)))
        worst = max(worst, rel_err(central_diff(classical_ref.value_d1, y),
                                   classical_ref.value_d2(y)))
        worst = max(worst, rel_err(central_diff(exploratory_ref.value, y),
                                   exploratory_ref.value_d1(y)))
        worst = max(worst, rel_err(central_diff(exploratory_ref.value_d1, y),
                                   exploratory_ref.value_d2(y)))

    for _ in range(100):  # exact q in the action argument (psi2 = 1 here)
        y = float(rng.uniform(0.0, 5.0))
        a = float(rng.normal())
        grad = exploratory_ref.psi1_star[0] / (1.0 + y) - a / (1.0 + y) ** 2
        fd = central_diff(lambda x: qlearn.q_value(pp_star, RHO, y, [x]), a)
        worst = max(worst, rel_err(fd, grad, floor=1e-4))

    # parameterized q and the test functions; the analytic gradient is the one
    # in the production update sums, read off one-step paths
    for _ in range(100):
        pp = qlearn.PolicyParams(
            xi=float(rng.normal()),
            psi1=rng.normal(size=1),
            psi2=[[float(rng.uniform(0.5, 1.5))]],
            gamma=GAMMA,
        )
        y = float(rng.uniform(0.0, 5.0))
        a = rng.normal(size=1)
        g1, g2 = q_gradient(pp, RHO, y, a)

        def q_of(p1, p2, pp=pp, y=y, a=a):
            return qlearn.q_value(qlearn.PolicyParams(pp.xi, [p1], [[p2]], GAMMA), RHO, y, a)

        worst = max(worst, rel_err(central_diff(lambda x: q_of(x, pp.psi2[0, 0]),
                                                pp.psi1[0]), g1[0], floor=1e-4))
        worst = max(worst, rel_err(central_diff(lambda x: q_of(pp.psi1[0], x),
                                                pp.psi2[0, 0]), g2[0, 0], floor=1e-4))
        # dJ/dxi is identically 1
        jfd = (qlearn.j_value(qlearn.PolicyParams(pp.xi + 1e-5, pp.psi1, pp.psi2, GAMMA), y)
               - qlearn.j_value(qlearn.PolicyParams(pp.xi - 1e-5, pp.psi1, pp.psi2, GAMMA), y)) / 2e-5
        worst = max(worst, abs(jfd - 1.0))

    ok = worst < 1e-6
    report(9, ok, f"worst relative derivative error {worst:.2e}")
    assert worst < 1e-6
