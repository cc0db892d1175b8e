"""Backtest layer: ingestion, running-sup injection, comparisons."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchtrack import cli, qlearn
from benchtrack.model import DomainError, ModelParams, classical_solution
from benchtrack.backtest import (
    MismatchedInputs,
    ParseError,
    PriceSeries,
    ValidationError,
    compare,
    load_prices,
    relative_difference,
    run_tracking,
)
from oracles import backtest_csv_per_row, run_tracking_loop, running_sup_injection, simulate_gbm


def write_csv(path, rows, header="timestamp,benchmark,asset_1"):
    path.write_text("\n".join([header] + rows) + "\n")
    return path


# ---------------------------------------------------------------- loading

def test_load_well_formed(tmp_path):
    f = write_csv(tmp_path / "p.csv", ["0,100,50", "1,101,51", "2,99,50.5"])
    series = load_prices(f)
    assert len(series) == 3
    assert series.d == 1
    assert np.allclose(series.times, [0.0, 1.0, 2.0])


def test_load_iso_timestamps(tmp_path):
    f = write_csv(
        tmp_path / "p.csv",
        ["2020-01-01,100,50", "2020-01-02,101,51", "2020-01-04,99,50.5"],
    )
    series = load_prices(f)
    assert np.allclose(series.times, [0.0, 1.0, 3.0])  # elapsed days


def test_load_rejects_bad_rows(tmp_path):
    f = write_csv(tmp_path / "neg.csv", ["0,100,50", "1,-5,51"])
    with pytest.raises(ValidationError, match="row 3"):
        load_prices(f)
    f = write_csv(tmp_path / "unordered.csv", ["0,100,50", "2,101,51", "1,99,50"])
    with pytest.raises(ValidationError, match="increasing"):
        load_prices(f)
    f = write_csv(tmp_path / "missing.csv", ["0,100,50", "1,,51"])
    with pytest.raises(ValidationError, match="row 3"):
        load_prices(f)
    f = write_csv(tmp_path / "header.csv", ["0,100,50"], header="time,bench,asset")
    with pytest.raises(ParseError):
        load_prices(f)


# --------------------------------------------------------------- tracking

def test_rich_account_never_injects(tmp_path):
    f = write_csv(tmp_path / "p.csv", ["0,100,50", "1,101,51", "2,103,49", "3,99,52"])
    series = load_prices(f)
    res = run_tracking(series, lambda y: np.zeros(1), v0=1e6, rho=0.2)
    assert res.injection[0] == 0.0
    assert res.total_injection == 0.0
    assert res.discounted_cost == 0.0


def test_initial_injection_tops_up_shortfall(tmp_path):
    f = write_csv(tmp_path / "p.csv", ["0,100,50", "1,100,50"])
    series = load_prices(f)
    res = run_tracking(series, lambda y: np.zeros(1), v0=95.0, rho=0.2)
    assert res.injection[0] == 5.0


def test_hand_computed_five_row_fixture(tmp_path):
    # returns +10%, -10%, +10%, 0% with a unit normalized allocation;
    # expected path computed by hand (see values inline)
    rows = ["0,100,100", "1,103,110", "2,101,99", "3,107,108.9", "4,104,108.9"]
    series = load_prices(write_csv(tmp_path / "p.csv", rows))
    res = run_tracking(series, lambda y: np.ones(1), v0=98.0, rho=0.2)
    assert np.allclose(res.wealth, [98.0, 108.0, 97.7, 107.8, 107.8], atol=1e-10)
    assert np.allclose(res.injection, [2.0, 2.0, 3.3, 3.3, 3.3], atol=1e-10)
    assert np.allclose(
        res.state,
        [0.0, 7.0 / 103.0, 0.0, 4.1 / 107.0, 7.1 / 104.0],
        atol=1e-12,
    )
    # one injection of 1.3 at t=2, discounted at e^{-0.4}
    assert res.discounted_cost == pytest.approx(2.0 + 1.3 * math.exp(-0.4), abs=1e-12)
    assert res.total_injection == pytest.approx(3.3, abs=1e-12)


def test_dominance_and_monotonicity_on_synthetic_gbm():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = 60
        s = simulate_gbm(0.08, 0.3, 50.0, 1.0 / 252, n, rng)
        z = simulate_gbm(0.0, 0.15, 100.0, 1.0 / 252, n, rng)
        series = PriceSeries(
            times=np.arange(n + 1, dtype=float), benchmark=z, assets=s[:, None]
        )
        res = run_tracking(series, lambda y: np.array([0.5]), v0=90.0, rho=0.1)
        assert np.all(res.wealth + res.injection >= res.benchmark - 1e-9)
        assert np.all(np.diff(res.injection) >= -1e-12)
        assert np.all(res.state >= -1e-12)
        # cross-check the running-sup rule against the naive oracle
        expected_a = running_sup_injection(res.benchmark, res.wealth)
        assert np.allclose(res.injection, expected_a, atol=1e-9)


def test_cash_scale_equivariance():
    rng = np.random.default_rng(9)
    n = 40
    s = simulate_gbm(0.1, 0.25, 20.0, 1.0 / 252, n, rng)
    z = simulate_gbm(0.0, 0.2, 50.0, 1.0 / 252, n, rng)
    times = np.arange(n + 1, dtype=float)

    def strat(y):
        return np.array([0.8 * (1.0 + y)])

    base = run_tracking(
        PriceSeries(times=times, benchmark=z, assets=s[:, None]), strat, 45.0, 0.1
    )
    c = 7.3
    scaled = run_tracking(
        PriceSeries(times=times, benchmark=c * z, assets=(c * s)[:, None]),
        strat,
        c * 45.0,
        0.1,
    )
    assert np.allclose(scaled.wealth, c * base.wealth, rtol=1e-10)
    assert np.allclose(scaled.injection, c * base.injection, rtol=1e-10, atol=1e-10)
    assert np.allclose(scaled.state, base.state, atol=1e-10)
    assert scaled.discounted_cost == pytest.approx(c * base.discounted_cost, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=30))
def test_injection_monotone_under_arbitrary_returns(rets):
    z = 100.0 * np.cumprod(1.0 + np.array([0.0] + rets))
    s = 50.0 * np.cumprod(1.0 + np.array([0.0] + rets[::-1]))
    series = PriceSeries(
        times=np.arange(len(z), dtype=float), benchmark=z, assets=s[:, None]
    )
    res = run_tracking(series, lambda y: np.array([0.3]), v0=80.0, rho=0.1)
    assert np.all(np.diff(res.injection) >= -1e-12)
    assert np.all(res.wealth + res.injection >= res.benchmark - 1e-9)


def test_state_after_an_injection_is_clamped_at_zero(tmp_path):
    # a leveraged position takes the wealth below zero at bar 1, where the
    # injection A = Z - V makes V + A - Z round to a negative number
    sol = classical_solution(ModelParams(mu=[0.2], sigma=[[1.0]], sigma_z=0.2, kappa=0.5, eta=[1.0], rho=0.2))

    def strat(y):
        return 30.0 * sol.policy(y)   # raises DomainError on a negative state

    series = load_prices(write_csv(tmp_path / "p.csv", ["0,100,100", "1,100.2,50", "2,100.2,50"]))
    res = run_tracking(series, strat, v0=100.0, rho=0.1)
    w, z = res.wealth[1], res.benchmark[1]
    assert w < 0.0 and res.injection[1] == z - w
    assert w + (z - w) < z   # the rounding that the clamp absorbs
    assert np.all(res.state >= 0.0) and res.state[1] == 0.0
    with pytest.raises(DomainError):
        run_tracking_loop(series, strat, v0=100.0, rho=0.1)


def _gbm_series(n: int, d: int, seed: int) -> PriceSeries:
    rng = np.random.default_rng(seed)
    z = simulate_gbm(0.0, 0.15, 100.0, 1.0 / 252, n - 1, rng)
    assets = np.column_stack([simulate_gbm(0.1, 0.25, 50.0, 1.0 / 252, n - 1, rng) for _ in range(d)])
    return PriceSeries(times=np.arange(n, dtype=float), benchmark=z, assets=assets)


def _learned_strategy(tmp_path, series, **blk):
    d = series.d
    pp = qlearn.PolicyParams(xi=0.3, psi1=np.linspace(0.1, 0.4, d),
                             psi2=np.eye(d) + 0.1 * np.tril(np.ones((d, d)), -1), gamma=0.2 / d)
    snapshot = tmp_path / "learned.json"
    snapshot.write_text(json.dumps({"xi": pp.xi, "psi1": pp.psi1.tolist(), "psi2": pp.psi2.tolist(),
                                    "gamma": pp.gamma}))
    _, strat = cli._strategy_from_cfg({"type": "learned", "params": str(snapshot), **blk}, series, 0.1)
    return strat, pp


def _strategies(tmp_path, series):
    d = series.d
    model = {"mu": [0.1] * d, "sigma": np.diag([0.25] * d).tolist(), "sigma_z": 0.15,
             "kappa": 0.5, "eta": (np.ones(d) / np.sqrt(d)).tolist(), "rho": 0.1}
    return {
        "constant": lambda y: np.full(d, 0.5),
        "lambda": lambda y: 0.8 * (1.0 + y) * np.ones(d),
        "mle": cli._strategy_from_cfg({"type": "mle", "train_fraction": 0.5, "kappa": 0.5}, series, 0.1)[1],
        "classical": cli._strategy_from_cfg({"type": "classical", "model": model}, series, 0.1)[1],
        "learned_mean": _learned_strategy(tmp_path, series, execution="mean")[0],
    }


@pytest.mark.parametrize("d", [1, 3])
def test_tracking_equals_the_per_bar_loop(tmp_path, d):
    series = _gbm_series(300, d, seed=11 + d)
    for name, strat in _strategies(tmp_path, series).items():
        res = run_tracking(series, strat, v0=95.0, rho=0.1, name=name)
        ref = run_tracking_loop(series, strat, v0=95.0, rho=0.1, name=name)
        assert np.all(ref.state >= 0.0), name   # no clamp, so the two agree exactly
        assert res.injection[-1] > res.injection[0], name   # the account falls behind at least once
        for field in ("times", "benchmark", "wealth", "injection", "state", "actions"):
            assert np.array_equal(getattr(res, field), getattr(ref, field)), (name, field)
        res.to_csv(tmp_path / "bulk.csv")
        backtest_csv_per_row(ref, tmp_path / "rows.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes(), name


@pytest.mark.parametrize("d", [1, 3])
def test_sampled_execution_matches_per_bar_multivariate_normal(tmp_path, d):
    series = _gbm_series(300, d, seed=21 + d)
    strat, pp = _learned_strategy(tmp_path, series, execution="sample", sample_seed=7)
    rng = np.random.default_rng(7)

    def per_bar(y):
        spec = qlearn.policy_from_q(pp, y)
        return rng.multivariate_normal(spec.mean, spec.cov)

    res = run_tracking(series, strat, v0=95.0, rho=0.1)
    ref = run_tracking_loop(series, per_bar, v0=95.0, rho=0.1)
    assert np.all(ref.state >= 0.0)
    for field in ("wealth", "injection", "state", "actions"):
        assert np.allclose(getattr(res, field), getattr(ref, field), rtol=1e-9, atol=0.0), field


# -------------------------------------------------------------- comparison

def test_relative_difference_formula():
    assert relative_difference(100.0, 110.0) == pytest.approx(-0.0909090909, abs=1e-9)
    # quoting convention: an injection of 2243.46 against a 2383.21 reference
    # reads as "5.86% lower"
    assert relative_difference(2243.46, 2383.21) == pytest.approx(-0.0586, abs=5e-5)


def test_compare_identical_strategies(tmp_path):
    rows = ["0,100,100", "1,103,110", "2,101,99"]
    series = load_prices(write_csv(tmp_path / "p.csv", rows))
    r1 = run_tracking(series, lambda y: np.ones(1), 98.0, 0.2, name="a")
    r2 = run_tracking(series, lambda y: np.ones(1), 98.0, 0.2, name="b")
    report = compare([r1, r2])
    assert report["strategies"][1]["discounted_cost_rel_diff"] == 0.0


def test_compare_rejects_mismatched_inputs(tmp_path):
    rows = ["0,100,100", "1,103,110", "2,101,99"]
    series = load_prices(write_csv(tmp_path / "p.csv", rows))
    r1 = run_tracking(series, lambda y: np.ones(1), 98.0, 0.2)
    r2 = run_tracking(series, lambda y: np.ones(1), 97.0, 0.2)
    with pytest.raises(MismatchedInputs):
        compare([r1, r2])
    with pytest.raises(MismatchedInputs):
        compare([])
