"""End-to-end command-line runs against temporary configs and outputs."""

import json

import numpy as np
import pytest
import yaml

from benchtrack import qlearn, sde
from benchtrack.cli import main
from benchtrack.model import ModelParams, exploratory_constants
from oracles import REF, orthogonality_rows_loop

MODEL_BLOCK = {
    "model": {
        "mu": [0.2],
        "sigma": [[1.0]],
        "sigma_z": 0.2,
        "kappa": 0.5,
        "eta": [1.0],
        "rho": 0.2,
    }
}


def write_config(tmp_path, payload, name="config.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(payload))
    return str(p)


def test_solve_reports_reference_constants(tmp_path):
    cfg = write_config(tmp_path, {**MODEL_BLOCK, "gamma": 0.2, "grid": {"y_max": 2.0, "step": 0.5}})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "constants.json").read_text())
    assert abs(payload["xi_star"] - 0.3624) < 5e-5
    assert abs(payload["psi1_star"][0] - 0.3732) < 5e-5
    assert abs(payload["psi2_star"][0][0] - 1.0) < 5e-5
    assert payload["psi3_star"] == pytest.approx(REF["psi3_star"], abs=1e-9)
    assert payload["psi3_is_derived"] is True
    assert payload["config"]["model"]["mu"] == [0.2]
    table = (out / "value_tables.csv").read_text().strip().splitlines()
    assert len(table) == 1 + 5


def test_solve_kappa_one_policy_table(tmp_path):
    block = {"model": {**MODEL_BLOCK["model"], "kappa": 1.0}}
    cfg = write_config(tmp_path, {**block, "gamma": 0.2, "grid": {"y_max": 1.0, "step": 1.0}})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "value_tables.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    i = header.index("theta_star_1")
    theta0 = float(rows[1].split(",")[i])
    theta1 = float(rows[2].split(",")[i])
    assert theta1 == pytest.approx(2.0 * theta0, rel=1e-12)


def test_malformed_config_fails_cleanly(tmp_path):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("model: [this is not\n  a mapping")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    missing = write_config(tmp_path, {"gamma": 0.2})  # no model block
    assert main(["solve", "--config", missing, "--out", str(tmp_path)]) == 2
    assert main(["solve", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]) == 2
    # sigma passes ModelParams (cond 4e6) but psi2* = sigma fails the learner's precision guard
    ill = write_config(tmp_path, {"model": {**MODEL_BLOCK["model"], "mu": [0.2, 0.2000001],
                                            "sigma": [[1.0, 1.0], [1.0, 1.000001]], "eta": [0.6, 0.8]}},
                       name="ill.yaml")
    assert main(["solve", "--config", ill, "--out", str(tmp_path)]) == 2


def test_simulate_deterministic_and_empty(tmp_path):
    cfg = write_config(
        tmp_path,
        {**MODEL_BLOCK, "simulate": {"scheme": "episode", "n_paths": 3, "y0": 1.0, "T": 0.2, "dt": 0.01}},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--seed", "5", "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "5", "--out", str(out2)]) == 0
    assert (out1 / "paths.csv").read_text() == (out2 / "paths.csv").read_text()

    empty_cfg = write_config(
        tmp_path,
        {**MODEL_BLOCK, "simulate": {"scheme": "episode", "n_paths": 0, "T": 0.2, "dt": 0.01}},
        name="empty.yaml",
    )
    out3 = tmp_path / "c"
    assert main(["simulate", "--config", empty_cfg, "--out", str(out3)]) == 0
    summary = json.loads((out3 / "summary.json").read_text())
    assert summary["n_paths"] == 0 and "warning" in summary


@pytest.mark.parametrize("scheme", ["episode", "aggregated", "skorokhod"])
def test_simulate_empty_output_keeps_the_scheme_columns(tmp_path, scheme):
    model = {**MODEL_BLOCK["model"], "mu": [0.2, 0.1], "sigma": [[1.0, 0.0], [0.0, 1.0]], "eta": [0.6, 0.8]}
    headers = {}
    for n in (0, 37):
        cfg = write_config(tmp_path, {"model": model, "simulate": {
            "scheme": scheme, "n_paths": n, "T": 0.1, "dt": 0.01}}, name=f"{n}.yaml")
        out = tmp_path / str(n)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        headers[n] = (out / "paths.csv").read_text().splitlines()[0]
    assert headers[0] == headers[37]
    assert ("action_2" in headers[0]) == (scheme == "episode")
    assert len((tmp_path / "0" / "paths.csv").read_text().splitlines()) == 1
    summary = json.loads((tmp_path / "0" / "summary.json").read_text())
    assert summary["n_paths"] == 0 and summary["warning"] == "no paths requested"


def test_simulate_unknown_scheme_fails_cleanly(tmp_path):
    for n in (0, 3):
        cfg = write_config(tmp_path, {**MODEL_BLOCK, "simulate": {
            "scheme": "bogus", "n_paths": n, "T": 0.1, "dt": 0.01}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / str(n))]) == 2


def test_simulate_ks_check(tmp_path):
    cfg = write_config(
        tmp_path,
        {**MODEL_BLOCK, "simulate": {
            "scheme": "aggregated", "n_paths": 500, "y0": 1.0, "T": 0.5, "dt": 0.005,
            "ks_check": True,
        }},
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "ks_check" in summary and 0.0 <= summary["ks_check"]["pvalue"] <= 1.0


def test_train_smoke_and_resume(tmp_path):
    base = {**MODEL_BLOCK, "train": {"T": 1.0, "dt": 0.05, "episodes": 4, "y0": 1.0}}
    cfg = write_config(tmp_path, base)
    out1 = tmp_path / "run1"
    assert main(["train", "--config", cfg, "--seed", "2", "--out", str(out1)]) == 0
    learned = json.loads((out1 / "learned.json").read_text())
    assert learned["episodes"] == 4
    history = (out1 / "history.csv").read_text().strip().splitlines()
    assert len(history) == 5

    resume_cfg = dict(base)
    resume_cfg["train"] = {**base["train"], "resume": str(out1 / "learned.json")}
    cfg2 = write_config(tmp_path, resume_cfg, name="resume.yaml")
    out2 = tmp_path / "run2"
    assert main(["train", "--config", cfg2, "--seed", "2", "--out", str(out2)]) == 0
    h2 = (out2 / "history.csv").read_text().strip().splitlines()
    # resumed history continues the episode numbering
    assert h2[1].split(",")[0] == "5"
    assert h2[-1].split(",")[0] == "8"


def test_train_rejects_unused_xi_settings(tmp_path, caplog):
    base = {"T": 1.0, "dt": 0.05, "episodes": 2}
    out = tmp_path / "out"

    def run(train, name):
        return main(["train", "--config", write_config(tmp_path, {**MODEL_BLOCK, "train": train},
                                                      name=name), "--out", str(out)])

    # xi moves to the mean of its per-episode roots, so an xi rate would be ignored
    assert run({**base, "schedule": {"first": {"coef_xi": 0.03}}}, "rate.yaml") == 2
    assert "coef_xi" in caplog.text and "roots of its orthogonality condition" in caplog.text
    # and a start value for xi would get weight zero on a run from episode 1
    assert run({**base, "init": {"xi": 0.3}}, "init.yaml") == 2
    assert "init.xi" in caplog.text
    assert not (out / "learned.json").exists()
    # the psi settings stay configurable
    assert run({**base, "schedule": {"first": {"coef_psi1": 0.05}}, "init": {"psi1": [0.1]}},
               "psi.yaml") == 0


def test_train_resume_keeps_the_snapshot_gamma(tmp_path, caplog):
    def run(train, name):
        cfg = write_config(tmp_path, {**MODEL_BLOCK, "train": {"T": 1.0, "dt": 0.05, "episodes": 2, **train}},
                           name=f"{name}.yaml")
        return main(["train", "--config", cfg, "--seed", "1", "--out", str(tmp_path / name)])

    def learned_gamma(name):
        return json.loads((tmp_path / name / "learned.json").read_text())["gamma"]

    assert run({"gamma": 0.1}, "first") == 0
    snapshot = tmp_path / "first" / "learned.json"
    # psi learned at one temperature is not continued at another
    assert run({"gamma": 0.2, "resume": str(snapshot)}, "other") == 2
    assert "differs from the gamma 0.1" in caplog.text
    assert not (tmp_path / "other" / "learned.json").exists()
    # with no train.gamma the run continues at the snapshot's
    assert run({"resume": str(snapshot)}, "same") == 0
    assert learned_gamma("same") == 0.1
    # a snapshot without gamma takes the config's, or rho / d
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({k: v for k, v in json.loads(snapshot.read_text()).items() if k != "gamma"}))
    assert run({"resume": str(bare)}, "bare_default") == 0
    assert learned_gamma("bare_default") == 0.2
    assert run({"gamma": 0.1, "resume": str(bare)}, "bare_config") == 0
    assert learned_gamma("bare_config") == 0.1


def test_learned_parameters_missing_a_key_fail_cleanly(tmp_path, caplog):
    out = tmp_path / "out"
    params = {"xi": 0.36, "psi1": [0.37]}
    diagnose = write_config(tmp_path, {**MODEL_BLOCK, "diagnose": {"T": 0.5, "dt": 0.05, "n_paths": 10,
                                                                   "params": params}}, name="diagnose.yaml")
    assert main(["diagnose", "--config", diagnose, "--out", str(out)]) == 2
    assert "diagnose.params is missing required key 'psi2'" in caplog.text

    for key in ("psi1", "episodes"):
        snapshot = tmp_path / f"no_{key}.json"
        full = {"xi": 0.36, "psi1": [0.37], "psi2": [[1.0]], "episodes": 3, "gamma": 0.2}
        snapshot.write_text(json.dumps({k: v for k, v in full.items() if k != key}))
        train = write_config(tmp_path, {**MODEL_BLOCK, "train": {"T": 1.0, "dt": 0.05, "episodes": 2,
                                                                 "resume": str(snapshot)}}, name=f"{key}.yaml")
        assert main(["train", "--config", train, "--out", str(out)]) == 2
        assert f"no_{key}.json is missing required key '{key}'" in caplog.text

    snapshot = tmp_path / "no_xi.json"
    snapshot.write_text(json.dumps({"psi1": [0.37], "psi2": [[1.0]], "gamma": 0.2}))
    assert main(["backtest", "--config", _learned_backtest_config(tmp_path, snapshot, "xi.yaml"),
                 "--out", str(out)]) == 2
    assert "no_xi.json is missing required key 'xi'" in caplog.text
    assert not (out / "learned.json").exists() and not (out / "backtest_rl.csv").exists()


def test_diagnose_and_empty_sweep(tmp_path):
    cfg = write_config(
        tmp_path,
        {**MODEL_BLOCK, "diagnose": {"T": 2.0, "dt": 0.02, "n_paths": 300, "xi_shift": 0.5}},
    )
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    assert "orthogonality" in payload
    assert abs(payload["xi_shift_control"]["xi"]["z"]) > 5.0

    bad = write_config(tmp_path, {**MODEL_BLOCK, "diagnose": {}}, name="bad.yaml")
    assert main(["diagnose", "--config", bad, "--out", str(out)]) == 2


def test_diagnose_streams_the_stored_batch_result(tmp_path):
    cfg = write_config(tmp_path, {**MODEL_BLOCK, "diagnose": {
        "T": 1.0, "dt": 0.02, "n_paths": 37, "gamma": 0.2, "xi_shift": 0.5}})
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--seed", "9", "--out", str(out)]) == 0
    payload = json.loads((out / "diagnostics.json").read_text())
    params = ModelParams(**MODEL_BLOCK["model"])
    pp = qlearn.PolicyParams.from_constants(exploratory_constants(params, 0.2))
    mean_coef, cov_chol = pp.policy_coefficients()
    batch = sde.simulate_linear_gaussian_batch(params, mean_coef, cov_chol, 37, 1.0, 1.0, 0.02, 9)
    assert payload["orthogonality"] == qlearn.orthogonality_stats(pp, batch, params.rho).as_dict()
    # the control against a second pass over the stored paths at xi + 0.5
    shifted = qlearn.PolicyParams(pp.xi + 0.5, pp.psi1, pp.psi2, 0.2)
    rows = orthogonality_rows_loop(shifted, batch, params.rho)
    control = payload["xi_shift_control"]
    for name, mean, stderr in zip(control, rows.mean(axis=0), rows.std(axis=0, ddof=1) / np.sqrt(37)):
        assert control[name]["mean"] == pytest.approx(mean, rel=1e-12)
        assert control[name]["stderr"] == pytest.approx(stderr, rel=1e-12)


def test_diagnose_needs_two_paths(tmp_path, caplog):
    out = tmp_path / "out"
    for where, block in (
        ("diagnose.n_paths", {"T": 0.5, "dt": 0.05, "n_paths": 1}),
        ("diagnose.sweep.n_paths", {"n_paths": 1, "sweep": {"dt_list": [0.05], "T_list": [0.5]}}),
    ):
        cfg = write_config(tmp_path, {**MODEL_BLOCK, "diagnose": block})
        assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 2
        assert f"{where} is 1: a standard error needs at least 2 paths" in caplog.text
    assert not (out / "diagnostics.json").exists()


def test_diagnose_sweep_table(tmp_path):
    cfg = write_config(
        tmp_path,
        {**MODEL_BLOCK, "diagnose": {
            "n_paths": 100,
            "sweep": {"dt_list": [0.05, 0.025], "T_list": [1.0], "n_paths": 100},
        }},
    )
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--seed", "6", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "dt,T,max_abs_mean,tail_bound"
    assert len(rows) == 3


def test_backtest_command(tmp_path):
    prices = tmp_path / "prices.csv"
    rows = ["timestamp,benchmark,asset_1"]
    rng = np.random.default_rng(0)
    z, s = 100.0, 50.0
    for i in range(40):
        rows.append(f"{i},{z:.6f},{s:.6f}")
        z *= float(np.exp(0.01 * rng.standard_normal()))
        s *= float(np.exp(0.0002 + 0.012 * rng.standard_normal()))
    prices.write_text("\n".join(rows) + "\n")

    learned = tmp_path / "learned.json"
    learned.write_text(json.dumps({"xi": 0.36, "psi1": [0.37], "psi2": [[1.0]], "episodes": 1}))

    cfg = write_config(
        tmp_path,
        {
            "backtest": {
                "prices": str(prices),
                "v0": 95.0,
                "rho": 0.1,
                "strategies": [
                    {"name": "mle", "type": "mle", "train_fraction": 0.5},
                    {"name": "rl", "type": "learned", "params": str(learned), "gamma": 0.1},
                ],
            }
        },
    )
    out = tmp_path / "out"
    assert main(["backtest", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "comparison.json").read_text())
    assert {s["name"] for s in report["strategies"]} == {"mle", "rl"}
    assert (out / "backtest_mle.csv").exists()
    assert (out / "backtest_rl.csv").exists()

    missing = write_config(
        tmp_path,
        {"backtest": {"prices": str(tmp_path / "nope.csv"), "v0": 1.0, "rho": 0.1, "strategies": []}},
        name="missing.yaml",
    )
    assert main(["backtest", "--config", missing, "--out", str(out)]) == 2


@pytest.mark.parametrize("command, block, message", [
    ("simulate", {"simulate": {"n_paths": 3, "T": 0.25, "dt": 0.1}},
     "simulate: horizon T=0.25 is not an integer multiple of dt=0.1"),
    ("simulate", {"simulate": {"n_paths": -1, "T": 0.2, "dt": 0.1}}, "simulate.n_paths is -1"),
    ("train", {"train": {"T": 0.25, "dt": 0.1, "episodes": 2}},
     "train: horizon T=0.25 is not an integer multiple of dt=0.1"),
    ("diagnose", {"diagnose": {"T": 0.25, "dt": 0.1, "n_paths": 10}},
     "diagnose: horizon T=0.25 is not an integer multiple of dt=0.1"),
    ("diagnose", {"diagnose": {"n_paths": 10, "sweep": {"dt_list": [0.1], "T_list": [0.25]}}},
     "diagnose.sweep: horizon T=0.25 is not an integer multiple of dt=0.1"),
])
def test_bad_horizon_or_path_count_exits_2(tmp_path, caplog, command, block, message):
    cfg = write_config(tmp_path, {**MODEL_BLOCK, **block})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in caplog.text
    assert [p.name for p in out.iterdir()] == []


D2_MODEL = {"mu": [0.2, 0.1], "sigma": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("model, code", [
    ({"eta": [0.5]}, 2),
    ({**D2_MODEL, "eta": [1.0, 1.0]}, 2),
    ({**D2_MODEL, "eta": [0.6, 0.8]}, 0),
])
def test_model_eta_must_have_unit_norm(tmp_path, caplog, model, code):
    # the closed forms read eta as given and the simulator normalises it; they agree only at |eta| = 1
    cfg = write_config(tmp_path, {"model": {**MODEL_BLOCK["model"], **model},
                                  "train": {"T": 0.2, "dt": 0.1, "episodes": 2}})
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == code
    if code:
        assert "model.eta must have norm 1" in caplog.text
        assert [p.name for p in out.iterdir()] == []
    else:
        assert (out / "learned.json").exists()

@pytest.mark.parametrize("backtest, message", [
    ({"strategies": []}, "backtest.strategies is empty"),
    ({"strategies": [{"type": "mle"}, {"type": "mle", "name": "other"}], "baseline_index": 2},
     "backtest.baseline_index is 2: it must index the 2 strategies (0 to 1)"),
])
def test_backtest_bad_strategy_list_exits_2(tmp_path, caplog, backtest, message):
    prices = _prices_csv(tmp_path)
    cfg = write_config(tmp_path, {"backtest": {"prices": str(prices), "v0": 95.0, "rho": 0.1, **backtest}})
    out = tmp_path / "out"
    assert main(["backtest", "--config", cfg, "--out", str(out)]) == 2
    assert message in caplog.text
    assert [p.name for p in out.iterdir()] == []   # no strategy ran


def _prices_csv(tmp_path):
    prices = tmp_path / "prices.csv"
    rows = ["timestamp,benchmark,asset_1"] + [f"{i},{100.0 + i % 3},{50.0 + i % 5}" for i in range(30)]
    prices.write_text("\n".join(rows) + "\n")
    return prices


def _learned_backtest_config(tmp_path, snapshot, name, **strategy):
    prices = _prices_csv(tmp_path)
    return write_config(tmp_path, {"backtest": {
        "prices": str(prices), "v0": 95.0, "rho": 0.1,
        "strategies": [{"name": "rl", "type": "learned", "params": str(snapshot), **strategy}],
    }}, name=name)


def test_backtest_rejects_mismatched_learned_gamma(tmp_path, caplog):
    snapshot = tmp_path / "learned.json"
    snapshot.write_text(json.dumps({"xi": 0.36, "psi1": [0.37], "psi2": [[1.0]], "gamma": 0.2}))
    out = tmp_path / "out"
    # the strategy's gamma may only repeat the temperature the snapshot was trained at
    cfg = _learned_backtest_config(tmp_path, snapshot, "mismatch.yaml", gamma=0.1)
    assert main(["backtest", "--config", cfg, "--out", str(out)]) == 2
    assert "differs from the gamma 0.2" in caplog.text
    assert not (out / "backtest_rl.csv").exists()
    # and a snapshot without gamma needs one from the config
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"xi": 0.36, "psi1": [0.37], "psi2": [[1.0]]}))
    cfg = _learned_backtest_config(tmp_path, bare, "none.yaml")
    assert main(["backtest", "--config", cfg, "--out", str(out)]) == 2
    assert "stores no gamma" in caplog.text


def test_train_backtest_round_trip(tmp_path):
    train = write_config(tmp_path, {**MODEL_BLOCK, "train": {"T": 1.0, "dt": 0.05, "episodes": 2}},
                         name="train.yaml")
    assert main(["train", "--config", train, "--seed", "1", "--out", str(tmp_path / "train")]) == 0
    snapshot = tmp_path / "train" / "learned.json"
    assert json.loads(snapshot.read_text())["gamma"] == 0.2   # rho / d
    for name, strategy in (("plain.yaml", {}), ("same.yaml", {"gamma": 0.2}),
                           ("sample.yaml", {"execution": "sample"})):
        out = tmp_path / f"out_{name}"
        cfg = _learned_backtest_config(tmp_path, snapshot, name, **strategy)
        assert main(["backtest", "--config", cfg, "--out", str(out)]) == 0
        assert len((out / "backtest_rl.csv").read_text().strip().splitlines()) == 31
