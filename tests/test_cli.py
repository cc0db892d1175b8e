"""End-to-end command-line runs against temporary configs and outputs."""

import csv
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from benchtrack import cli, qlearn, sde
from benchtrack.cli import main
from benchtrack.model import ModelParams, exploratory_constants
from conftest import path_increments
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
    # at kappa = 0 the lambda polynomial has no root in (0, 1)
    flat = write_config(tmp_path, {"model": {**MODEL_BLOCK["model"], "kappa": 0.0}}, name="flat.yaml")
    assert main(["solve", "--config", flat, "--out", str(tmp_path / "flat")]) == 2
    assert not (tmp_path / "flat" / "constants.json").exists()


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


@pytest.mark.parametrize("scheme", ["episode", "aggregated"])
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


def test_simulate_unknown_scheme_fails_cleanly(tmp_path, caplog):
    # skorokhod is refused too: the aggregated scheme's paths are the Skorokhod map on the grid
    for scheme in ("bogus", "skorokhod"):
        for n in (0, 3):
            cfg = write_config(tmp_path, {**MODEL_BLOCK, "simulate": {
                "scheme": scheme, "n_paths": n, "T": 0.1, "dt": 0.01}})
            out = tmp_path / f"{scheme}{n}"
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
            assert [p.name for p in out.iterdir()] == []
    assert "unknown scheme 'skorokhod': give episode or aggregated" in caplog.text


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


def test_quoted_and_integral_numbers_read_as_plain_ones(tmp_path):
    # PyYAML reads an unquoted 5e-2 as a string, and an int key takes any integral value
    def run(train, name):
        cfg = write_config(tmp_path, {**MODEL_BLOCK, "train": train}, name=f"{name}.yaml")
        assert main(["train", "--config", cfg, "--seed", "2", "--out", str(tmp_path / name)]) == 0
        learned = json.loads((tmp_path / name / "learned.json").read_text())
        del learned["config"]
        return (tmp_path / name / "history.csv").read_text(), learned

    assert run({"T": "1.0", "dt": "5e-2", "episodes": 4.0, "seed": "7"}, "text") == \
        run({"T": 1.0, "dt": 0.05, "episodes": 4, "seed": 7}, "plain")


def test_train_resumed_mid_block_repeats_one_run(tmp_path, caplog):
    # 20 episodes stop inside the second block of 16; the snapshot's policy draws the rest of it
    def run(name, episodes, resume=None):
        train = {"T": 1.0, "dt": 0.05, "episodes": episodes, **({"resume": str(resume)} if resume else {})}
        cfg = write_config(tmp_path, {**MODEL_BLOCK, "train": train}, name=f"{name}.yaml")
        assert main(["train", "--config", cfg, "--seed", "4", "--out", str(tmp_path / name)]) == 0
        learned = json.loads((tmp_path / name / "learned.json").read_text())
        del learned["config"]
        return (tmp_path / name / "history.csv").read_text().splitlines(), learned

    whole, whole_learned = run("whole", 40)
    _, first_learned = run("first", 20)
    assert first_learned["policy"] != {k: first_learned[k] for k in ("xi", "psi1", "psi2")}
    rest, rest_learned = run("rest", 20, tmp_path / "first" / "learned.json")
    assert rest == whole[:1] + whole[21:]
    assert rest_learned == whole_learned
    # the snapshot's policy draws the resumed run, so a start value for it is refused
    with_init = {"T": 1.0, "dt": 0.05, "episodes": 20, "resume": str(tmp_path / "first" / "learned.json"),
                 "init": {"psi2": [[1.5]]}}
    cfg = write_config(tmp_path, {**MODEL_BLOCK, "train": with_init}, name="with_init.yaml")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "with_init")]) == 2
    assert "train.init has no effect on a resumed run" in caplog.text
    assert not (tmp_path / "with_init" / "learned.json").exists()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_train_with_too_many_rejected_episodes_exits_2(tmp_path, caplog):
    # the variance rate overflows at the capped mean action |u_k| = 1e6 (sigma sigma' is finite, which
    # the model requires), so every path is non-finite and the run stops at the rejection limit
    model = {"model": {**MODEL_BLOCK["model"], "sigma": [[1.0e150]]}}
    cfg = write_config(tmp_path, {**model, "train": {"T": 0.5, "dt": 0.05, "episodes": 50, "init": {"psi1": [1.0e10]}}})
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert "6 of 6 episodes rejected (limit 10% of 50)" in caplog.text
    assert not (out / "learned.json").exists()


def test_train_rejects_unused_xi_settings(tmp_path, caplog):
    base = {"T": 1.0, "dt": 0.05, "episodes": 2}
    out = tmp_path / "out"

    def run(train, name):
        return main(["train", "--config", write_config(tmp_path, {**MODEL_BLOCK, "train": train},
                                                      name=name), "--out", str(out)])

    # the learning rates are not configurable, so an xi rate is refused with the rest of the schedule
    assert run({**base, "schedule": {"first": {"coef_xi": 0.03}}}, "rate.yaml") == 2
    assert "train has unknown key 'schedule'" in caplog.text
    # and xi has no start value: the first fit solves for it
    assert run({**base, "init": {"xi": 0.3}}, "init.yaml") == 2
    assert "train.init has unknown key 'xi'" in caplog.text
    assert not (out / "learned.json").exists()
    # the psi start values stay configurable
    assert run({**base, "init": {"psi1": [0.1]}}, "psi.yaml") == 0


TRAIN_BLOCK = {"T": 1.0, "dt": 0.05, "episodes": 2}
DIAGNOSE_BLOCK = {"T": 0.5, "dt": 0.05, "n_paths": 10, "sweep": {"dt_list": [0.05], "T_list": [0.5]}}


@pytest.mark.parametrize("command, payload, where, key", [
    # options that the learner no longer has, and rho, which always comes from model
    ("train", {"train": {**TRAIN_BLOCK, "schedule": {"switch_episode": 5}}}, "train", "schedule"),
    ("train", {"train": {**TRAIN_BLOCK, "chain_rule": False}}, "train", "chain_rule"),
    ("train", {"train": {**TRAIN_BLOCK, "update_clip": 0.5}}, "train", "update_clip"),
    ("train", {"train": {**TRAIN_BLOCK, "rho": 0.5}}, "train", "rho"),
    ("train", {"train": {**TRAIN_BLOCK, "action_cap": 10.0}}, "train", "action_cap"),
    ("diagnose", {"diagnose": {**DIAGNOSE_BLOCK, "rho": 0.5}}, "diagnose", "rho"),
    # misspelt keys, one in each checked block
    ("train", {"train": {"T": 1.0, "dt": 0.05, "epsiodes": 2}}, "train", "epsiodes"),
    ("train", {"train": {**TRAIN_BLOCK, "init": {"psi_1": [0.1]}}}, "train.init", "psi_1"),
    ("train", {"model": {**MODEL_BLOCK["model"], "sigmaz": 0.2}, "train": TRAIN_BLOCK}, "model", "sigmaz"),
    ("solve", {"grid": {"y_max": 1.0, "stpe": 0.5}}, "grid", "stpe"),
    ("simulate", {"simulate": {"n_paths": 2, "T": 0.1, "dt": 0.05, "ks_chek": True}}, "simulate", "ks_chek"),
    ("diagnose", {"diagnose": {**DIAGNOSE_BLOCK, "xi_shfit": 0.5}}, "diagnose", "xi_shfit"),
    ("diagnose", {"diagnose": {**DIAGNOSE_BLOCK, "sweep": {"dt_list": [0.05], "Tlist": [0.5]}}},
     "diagnose.sweep", "Tlist"),
    # and the retired start value of xi
    ("train", {"train": {**TRAIN_BLOCK, "init": {"xi": 0.3}}}, "train.init", "xi"),
])
def test_unread_config_key_exits_2(tmp_path, caplog, command, payload, where, key):
    cfg = write_config(tmp_path, {**MODEL_BLOCK, **payload})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"{where} has unknown key {key!r}" in caplog.text
    assert [p.name for p in out.iterdir()] == []


def test_readme_configs_use_only_read_keys():
    # the YAML files that the README's CLI quick start writes, converted block by block through the table
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quick_start = readme.split("## CLI quick start", 1)[1].split("\n## ", 1)[0]
    configs = [yaml.safe_load(body) for body in re.findall(r"<<EOF\n(.*?)\nEOF\n", quick_start, re.S)]
    assert len(configs) == 5
    seen = set()
    for cfg in configs:
        cli._known(cfg, "config")
        seen.add("config")
        for block in set(cfg) & set(cli.CONFIG_KEYS):
            cli._known(cfg[block], block)   # converts the nested blocks too
            seen |= {block} | {f"{block}.{key}" for key in cfg[block] if f"{block}.{key}" in cli.CONFIG_KEYS}
        for strategy in cfg.get("backtest", {}).get("strategies", []):
            cli._known(strategy, f"strategy.{strategy['type']}")
            seen.add(f"strategy.{strategy['type']}")
    # every block but train.init, the classical strategy and the snapshots' appears in the README
    assert seen == set(cli.CONFIG_KEYS) - {"train.init", "strategy.classical", "strategy", "learned", "resume"}


@pytest.mark.parametrize("start", ["init", "resume"])
def test_train_refuses_a_start_without_a_policy(tmp_path, caplog, start):
    # psi2 psi2' = 1e-14 is under PSI2_FLOOR^2, so no episode could draw an action
    train = dict(TRAIN_BLOCK)
    if start == "init":
        train["init"] = {"psi2": [[1.0e-7]]}
    else:
        snapshot = tmp_path / "learned.json"
        snapshot.write_text(json.dumps({"episodes": 3, "gamma": 0.2, "A": np.eye(3).tolist(), "b": [0.0] * 3,
                                        "policy": {"xi": 0.36, "psi1": [0.37], "psi2": [[1.0e-7]]}}))
        train["resume"] = str(snapshot)
    cfg = write_config(tmp_path, {**MODEL_BLOCK, "train": train})
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert "psi2 psi2' is singular or ill-conditioned" in caplog.text
    assert not (out / "learned.json").exists()


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

    # a resume reads the block's policy and the running sums next to the episode count
    for key in ("policy", "A", "b", "episodes"):
        snapshot = tmp_path / f"no_{key}.json"
        full = {"xi": 0.36, "psi1": [0.37], "psi2": [[1.0]], "episodes": 3, "gamma": 0.2, "A": np.eye(3).tolist(),
                "b": [0.0] * 3, "policy": {"xi": 0.36, "psi1": [0.37], "psi2": [[1.0]]}}
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


SNAPSHOT = {"episodes": 3, "gamma": 0.2, "A": np.eye(3).tolist(), "b": [0.0] * 3,
            "policy": {"xi": 0.36, "psi1": [0.37], "psi2": [[1.0]]}}


@pytest.mark.parametrize("command, content, message", [
    ("train", "{not json", "cannot parse"),
    ("train", "[1, 2]", "top level must be a mapping"),
    ("train", json.dumps({**SNAPSHOT, "policy": [0.3]}), "policy must be a mapping"),
    ("train", json.dumps({**SNAPSHOT, "policy": {**SNAPSHOT["policy"], "xi": "high"}}),
     "learned.json.policy.xi must be a number, got 'high'"),
    ("train", json.dumps({**SNAPSHOT, "b": "zero"}), "learned.json.b must be a number or a list of numbers"),
    ("train", json.dumps({**SNAPSHOT, "A": np.eye(6).tolist(), "b": [0.0] * 6}), "not trained on a market of 1"),
    ("backtest", "{not json", "cannot parse"),
    ("backtest", "[1, 2]", "top level must be a mapping"),
    ("diagnose", "5", "diagnose.params must be a mapping"),
    ("diagnose", "[0.36, [0.37], [[1.0]]]", "diagnose.params must be a mapping"),
    # snapshot scalars go through the config's converters
    ("train", json.dumps({**SNAPSHOT, "episodes": "x"}), "learned.json.episodes must be a whole number, got 'x'"),
    ("train", json.dumps({**SNAPSHOT, "gamma": "warm"}), "learned.json.gamma must be a number, got 'warm'"),
    ("backtest", json.dumps({**SNAPSHOT["policy"], "gamma": "warm"}),
     "learned.json.gamma must be a number, got 'warm'"),
], ids=["train-not-json", "train-list", "train-policy-list", "train-policy-value", "train-sums-value",
        "train-sums-shape", "backtest-not-json", "backtest-list", "diagnose-number", "diagnose-list",
        "train-episodes-value", "train-gamma-value", "backtest-gamma-value"])
def test_malformed_snapshot_exits_2(tmp_path, caplog, command, content, message):
    # a learned.json that is not JSON, holds no mapping or carries bad values, or a diagnose.params
    # that is no mapping
    snapshot = tmp_path / "learned.json"
    snapshot.write_text(content)
    if command == "train":
        cfg = write_config(tmp_path, {**MODEL_BLOCK, "train": {**TRAIN_BLOCK, "resume": str(snapshot)}})
    elif command == "backtest":
        cfg = _learned_backtest_config(tmp_path, snapshot, "config.yaml")
    else:
        cfg = write_config(tmp_path, {**MODEL_BLOCK, "diagnose": {"T": 0.5, "dt": 0.05, "n_paths": 10,
                                                                  "params": yaml.safe_load(content)}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in caplog.text
    assert [p.name for p in out.iterdir()] == []


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
    blocks = sde.increment_blocks(params, mean_coef, cov_chol, 37, 1.0, 0.02, 9)
    assert payload["orthogonality"] == qlearn.orthogonality_stats(pp, blocks, params.rho).as_dict()
    # the statistics of the same paths, stored and read off their states
    batch = sde.simulate_linear_gaussian_batch(params, mean_coef, cov_chol, 37, 1.0, 1.0, 0.02, 9)
    stored = qlearn.orthogonality_stats(pp, path_increments(batch), params.rho).as_dict()
    for name, stats in payload["orthogonality"].items():
        assert stats["mean"] == pytest.approx(stored[name]["mean"], rel=1e-10)
        assert stats["stderr"] == pytest.approx(stored[name]["stderr"], rel=1e-10)
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
    # the bytes csv.writer writes for the rows that diagnostics.json records
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["dt", "T", "max_abs_mean", "tail_bound"])
    for r in json.loads((out / "diagnostics.json").read_text())["sweep"]:
        writer.writerow([r["dt"], r["T"], r["max_abs_mean"], r["tail_bound"]])
    assert (out / "sweep.csv").read_bytes() == buf.getvalue().encode()


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
    # a value of the wrong kind, one or more per command
    ("solve", {"grid": {"y_max": "lots"}}, "grid.y_max must be a number, got 'lots'"),
    ("solve", {"gamma": "warm"}, "config.gamma must be a number, got 'warm'"),
    ("simulate", {"simulate": {"n_paths": [3], "T": 0.2, "dt": 0.1}},
     "simulate.n_paths must be a whole number, got [3]"),
    ("simulate", {"simulate": {"n_paths": 3, "T": 0.2, "dt": 0.1, "ks_check": "false"}},
     "simulate.ks_check must be true or false, got 'false'"),
    ("train", {"train": {"T": "twelve", "dt": 0.1, "episodes": 2}}, "train.T must be a number, got 'twelve'"),
    ("train", {"train": {"T": 0.2, "dt": 0.1, "episodes": 2.9}}, "train.episodes must be a whole number, got 2.9"),
    ("train", {"train": {"T": 0.2, "dt": 0.1, "episodes": 2, "init": {"psi1": ["a"]}}},
     "train.init.psi1 must be a number or a list of numbers, got ['a']"),
    ("diagnose", {"diagnose": {"n_paths": 10, "sweep": {"dt_list": 0.1, "T_list": [0.2]}}},
     "diagnose.sweep.dt_list must be a list of numbers, got 0.1"),
    ("backtest", {"backtest": {"prices": "prices.csv", "v0": "ninety", "rho": 0.1, "strategies": [{"type": "mle"}]}},
     "backtest.v0 must be a number, got 'ninety'"),
    # diagnose inputs that nothing would read: a lone T or dt, or an xi_shift with no horizon
    ("diagnose", {"diagnose": {"T": 0.2, "n_paths": 10, "xi_shift": 0.5,
                               "sweep": {"dt_list": [0.1], "T_list": [0.2]}}},
     "diagnose.T and diagnose.dt go together"),
    ("diagnose", {"diagnose": {"dt": 0.1, "n_paths": 10, "sweep": {"dt_list": [0.1], "T_list": [0.2]}}},
     "diagnose.T and diagnose.dt go together"),
    ("diagnose", {"diagnose": {"n_paths": 10, "xi_shift": 0.5, "sweep": {"dt_list": [0.1], "T_list": [0.2]}}},
     "diagnose.xi_shift shifts the (T, dt) diagnostics"),
    # a value of the right kind out of its range, one or more per command
    ("train", {"train": {"T": 0.2, "dt": 0.1, "episodes": 0}}, "train.episodes is 0: it must be >= 1"),
    ("train", {"train": {"T": 0.2, "dt": 0.1, "episodes": 2, "gamma": -1}}, "train.gamma is -1: it must be > 0"),
    ("train", {"train": {"T": 0.2, "dt": 0.1, "episodes": 2, "y0": -1}}, "train.y0 is -1: it must be >= 0"),
    ("simulate", {"simulate": {"n_paths": 3, "T": 0.2, "dt": 0.1, "gamma": -1}}, "simulate.gamma is -1: it must be > 0"),
    ("simulate", {"simulate": {"scheme": "aggregated", "n_paths": 3, "T": 0.2, "dt": 0.1, "gamma": -1}},
     "simulate.gamma is -1: it must be > 0"),
    ("simulate", {"simulate": {"n_paths": 3, "T": 0.2, "dt": 0.1, "y0": -1}}, "simulate.y0 is -1: it must be >= 0"),
    ("simulate", {"simulate": {"scheme": "aggregated", "n_paths": 3, "T": 0.2, "dt": 0.1, "y0": -1}},
     "simulate.y0 is -1: it must be >= 0"),
    ("solve", {"gamma": -1}, "config.gamma is -1: it must be > 0"),
    ("solve", {"grid": {"step": 0}}, "grid.step is 0: it must be > 0"),
    ("solve", {"grid": {"step": -0.1}}, "grid.step is -0.1: it must be > 0"),
    ("solve", {"grid": {"y_max": -1}}, "grid.y_max is -1: it must be >= 0"),
    ("diagnose", {"diagnose": {"T": 0.2, "dt": 0.1, "n_paths": 10, "gamma": -1}}, "diagnose.gamma is -1: it must be > 0"),
    ("diagnose", {"diagnose": {"T": 0.2, "dt": 0.1, "n_paths": 10, "y0": -1}}, "diagnose.y0 is -1: it must be >= 0"),
    # diagnose.params may only repeat diagnose.gamma, as a resumed or backtested snapshot may
    ("diagnose", {"diagnose": {"T": 0.2, "dt": 0.1, "n_paths": 10, "gamma": 0.2,
                               "params": {"xi": 0.36, "psi1": [0.37], "psi2": [[1.0]], "gamma": 0.05}}},
     "gamma 0.2 differs from the gamma 0.05 that diagnose.params was trained at"),
])
def test_bad_horizon_or_path_count_exits_2(tmp_path, caplog, command, block, message):
    cfg = write_config(tmp_path, {**MODEL_BLOCK, **block})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in caplog.text
    assert [p.name for p in out.iterdir()] == []


# a model whose policy-averaged variance s^2 is negative at gamma = 0.001
NEGATIVE_VARIANCE = {"mu": [0.05], "sigma": [[1.0]], "sigma_z": 1.0, "kappa": 0.1, "eta": [-1.0], "rho": 0.2}


@pytest.mark.filterwarnings("ignore:explicit exploratory solution")
@pytest.mark.parametrize("command, model, block, message", [
    ("simulate", NEGATIVE_VARIANCE, {"simulate": {"scheme": "aggregated", "n_paths": 3, "T": 0.2, "dt": 0.1,
                                                  "gamma": 0.001}},
     "squared diffusion coefficient is negative"),
    ("diagnose", NEGATIVE_VARIANCE, {"diagnose": {"n_paths": 10, "gamma": 0.001,
                                                  "sweep": {"dt_list": [0.1], "T_list": [0.2]}}},
     "squared diffusion coefficient is negative"),
    # the variance rate v_k overflows on the first step at the capped mean action |u_k| = 1e6
    ("diagnose", {**MODEL_BLOCK["model"], "sigma": [[1.0e150]]},
     {"diagnose": {"T": 0.2, "dt": 0.1, "n_paths": 10, "params": {"xi": 0.3, "psi1": [1.0e10], "psi2": [[1.0]]}}},
     "path 0, step 0: non-finite state proposal"),
    # the paths are finite (the cap holds |u_k|), but b b' overflows in the statistics
    ("diagnose", MODEL_BLOCK["model"],
     {"diagnose": {"T": 0.2, "dt": 0.1, "n_paths": 10, "params": {"xi": 0.3, "psi1": [1.0e200], "psi2": [[1.0]]}}},
     "path 0: non-finite orthogonality statistic"),
])
def test_impossible_or_non_finite_dynamics_exit_2(tmp_path, caplog, command, model, block, message):
    cfg = write_config(tmp_path, {"model": model, **block})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in caplog.text
    assert [p.name for p in out.iterdir()] == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, block", [
    ("solve", {}),
    ("simulate", {"simulate": {"scheme": "episode", "n_paths": 3, "T": 0.2, "dt": 0.1}}),
    ("diagnose", {"diagnose": {"T": 0.2, "dt": 0.1, "n_paths": 10}}),
])
def test_model_refuses_a_sigma_whose_square_overflows(tmp_path, caplog, command, block):
    # sigma sigma' = 1e320 is not finite: the model refuses it before any closed form overflows in it
    cfg = write_config(tmp_path, {"model": {**MODEL_BLOCK["model"], "sigma": [[1.0e160]]}, **block})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "invalid model block: sigma sigma' must be finite" in caplog.text
    assert not out.exists() or [p.name for p in out.iterdir()] == []


D2_MODEL = {"mu": [0.2, 0.1], "sigma": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("model, code", [
    ({"eta": [0.5]}, 2),
    ({**D2_MODEL, "eta": [1.0, 1.0]}, 2),
    ({**D2_MODEL, "eta": [0.6, 0.8]}, 0),
])
def test_model_eta_must_have_unit_norm(tmp_path, caplog, model, code):
    # the benchmark driver is a standard Brownian motion only at |eta| = 1, so the model refuses any other norm
    cfg = write_config(tmp_path, {"model": {**MODEL_BLOCK["model"], **model},
                                  "train": {"T": 0.2, "dt": 0.1, "episodes": 2}})
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == code
    if code:
        assert "invalid model block: eta must have norm 1" in caplog.text
        assert [p.name for p in out.iterdir()] == []
    else:
        assert (out / "learned.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command, block, where", [
    ("diagnose", {"diagnose": {"T": 0.2, "dt": 0.1, "n_paths": 10,
                               "params": {"xi": 0.3, "psi1": [0.4], "psi2": [[1.0e160]]}}}, "diagnose.params"),
    ("train", {"train": {"T": 0.2, "dt": 0.1, "episodes": 2, "init": {"psi2": [[1.0e160]]}}}, "train.init"),
    ("train", {"train": {"T": 0.2, "dt": 0.1, "episodes": 2, "resume": "snapshot.json"}}, "snapshot.json.policy"),
])
def test_learner_refuses_a_psi2_whose_square_overflows(tmp_path, caplog, monkeypatch, command, block, where):
    # psi2 psi2' = 1e320 is not finite: the policy refuses it before any product overflows in it
    monkeypatch.chdir(tmp_path)
    policy = {**SNAPSHOT["policy"], "psi2": [[1.0e160]]}
    (tmp_path / "snapshot.json").write_text(json.dumps({**SNAPSHOT, "policy": policy}))
    cfg = write_config(tmp_path, {**MODEL_BLOCK, **block})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"invalid {where}: psi2 psi2' must be finite" in caplog.text
    assert [p.name for p in out.iterdir()] == []


@pytest.mark.parametrize("init, message", [
    ({"psi1": [0.1, 0.2]}, "invalid train.init: psi2 must be (2,2), got (1, 1)"),
    ({"psi1": [0.1, 0.2], "psi2": [[1.0, 0.0], [0.0, 1.0]]}, "train.init is a policy on 2 assets for a market of 1"),
])
def test_train_init_of_another_size_exits_2(tmp_path, caplog, init, message):
    cfg = write_config(tmp_path, {**MODEL_BLOCK, "train": {"T": 0.2, "dt": 0.1, "episodes": 2, "init": init}})
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 2
    assert message in caplog.text
    assert [p.name for p in out.iterdir()] == []


@pytest.mark.parametrize("params, message", [
    ({"xi": 0.3, "psi1": [0.4, 0.1], "psi2": [[1.0, 0.0], [0.0, 1.0]]},
     "diagnose.params is a policy on 2 assets for a market of 1"),
    ({"xi": 0.3, "psi1": [0.4, 0.1], "psi2": [[1.0]]}, "invalid diagnose.params: psi2 must be (2,2), got (1, 1)"),
])
def test_diagnose_params_of_another_size_exits_2(tmp_path, caplog, params, message):
    cfg = write_config(tmp_path, {**MODEL_BLOCK, "diagnose": {"T": 0.2, "dt": 0.1, "n_paths": 4, "params": params}})
    out = tmp_path / "out"
    assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 2
    assert message in caplog.text
    assert [p.name for p in out.iterdir()] == []


def test_train_start_y0_has_no_effect(tmp_path, caplog):
    # train reads only (u_k, X_k), which do not depend on y: the start is accepted, warned about and unused
    runs = {}
    for name, y0 in (("none", None), ("zero", 0), ("five", 5)):
        train = {"T": 1.0, "dt": 0.05, "episodes": 20, **({} if y0 is None else {"y0": y0})}
        cfg = write_config(tmp_path, {**MODEL_BLOCK, "train": train}, name=f"{name}.yaml")
        caplog.clear()
        assert main(["train", "--config", cfg, "--seed", "3", "--out", str(tmp_path / name)]) == 0
        warned = [r for r in caplog.records if r.levelname == "WARNING" and "train.y0 has no effect" in r.message]
        assert len(warned) == (0 if y0 is None else 1)
        learned = json.loads((tmp_path / name / "learned.json").read_text())
        del learned["config"]
        runs[name] = (tmp_path / name / "history.csv").read_bytes(), learned
    assert runs["zero"] == runs["five"] == runs["none"]

@pytest.mark.parametrize("backtest, message", [
    ({"strategies": []}, "backtest.strategies is empty"),
    ({"strategies": [{"type": "mle"}, {"type": "mle", "name": "other"}], "baseline_index": 2},
     "backtest.baseline_index is 2: it must index the 2 strategies (0 to 1)"),
    ({"strategies": [{"type": "classical"}]}, "backtest.strategies[0] is missing required key 'model'"),
    ({"strategies": [{"type": "mle"}], "rows": 2}, "need at least 3 observations, got 2"),
    # keys that the command does not read; a bad strategy after a good one stops both
    ({"strategies": [{"type": "mle"}], "baseline": 0}, "backtest has unknown key 'baseline'"),
    ({"strategies": [{"type": "mle"}, {"type": "mle", "name": "b", "excution": "mean"}]},
     "backtest.strategies[1] has unknown key 'excution'"),
    ({"strategies": [{"type": "mle"}, {"type": "classical", "model": {**MODEL_BLOCK["model"], "rh0": 1}}]},
     "model has unknown key 'rh0'"),
    # each strategy type reads its own keys
    ({"strategies": [{"type": "mle", "execution": "sample", "params": "x.json", "sample_seed": 3}]},
     "backtest.strategies[0] has unknown key 'execution'"),
    ({"strategies": [{"type": "classical", "model": MODEL_BLOCK["model"], "kappa": 0.5}]},
     "backtest.strategies[0] has unknown key 'kappa'"),
    # values out of range
    ({"strategies": [{"type": "mle"}], "v0": -1}, "backtest.v0 is -1: it must be >= 0"),
    ({"strategies": [{"type": "mle"}], "rho": -0.1}, "backtest.rho is -0.1: it must be > 0"),
])
def test_backtest_bad_strategy_list_exits_2(tmp_path, caplog, backtest, message):
    backtest = dict(backtest)
    prices = _prices_csv(tmp_path, backtest.pop("rows", 30))
    cfg = write_config(tmp_path, {"backtest": {"prices": str(prices), "v0": 95.0, "rho": 0.1, **backtest}})
    out = tmp_path / "out"
    assert main(["backtest", "--config", cfg, "--out", str(out)]) == 2
    assert message in caplog.text
    assert [p.name for p in out.iterdir()] == []   # no strategy ran


def _prices_csv(tmp_path, n_rows=30):
    prices = tmp_path / "prices.csv"
    rows = ["timestamp,benchmark,asset_1"] + [f"{i},{100.0 + i % 3},{50.0 + i % 5}" for i in range(n_rows)]
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


@pytest.mark.parametrize("kind", ["learned", "classical"])
def test_backtest_refuses_a_strategy_of_another_size(tmp_path, caplog, kind):
    # a strategy on 2 assets against a 1-asset price file, after a good one: nothing runs
    model = {**MODEL_BLOCK["model"], "mu": [0.2, 0.1], "sigma": [[1.0, 0.0], [0.0, 1.0]], "eta": [0.6, 0.8]}
    snapshot = tmp_path / "learned.json"
    snapshot.write_text(json.dumps({"xi": 0.36, "psi1": [0.37, 0.1], "psi2": np.eye(2).tolist(), "gamma": 0.2}))
    second = ({"type": "learned", "params": str(snapshot)} if kind == "learned"
              else {"type": "classical", "model": model})
    cfg = write_config(tmp_path, {"backtest": {"prices": str(_prices_csv(tmp_path)), "v0": 95.0, "rho": 0.1,
                                               "strategies": [{"type": "mle"}, second]}})
    out = tmp_path / "out"
    assert main(["backtest", "--config", cfg, "--out", str(out)]) == 2
    assert "backtest.strategies[1]: " in caplog.text
    assert "2 assets for a price file of 1" in caplog.text
    assert [p.name for p in out.iterdir()] == []


def test_backtest_refuses_a_negative_sample_seed(tmp_path, caplog):
    snapshot = tmp_path / "learned.json"
    snapshot.write_text(json.dumps({"xi": 0.36, "psi1": [0.37], "psi2": [[1.0]], "gamma": 0.2}))
    cfg = _learned_backtest_config(tmp_path, snapshot, "seed.yaml", execution="sample", sample_seed=-1)
    out = tmp_path / "out"
    assert main(["backtest", "--config", cfg, "--out", str(out)]) == 2
    assert "backtest.strategies[0].sample_seed is -1: it must be >= 0" in caplog.text
    assert [p.name for p in out.iterdir()] == []


def test_diagnose_draws_at_the_gamma_of_its_params(tmp_path):
    # the gamma of diagnose.params, as a pasted learned.json has it, sets the temperature, which
    # diagnose.gamma may only repeat; params without one are drawn at diagnose.gamma, or rho / d
    params = {"xi": 0.36, "psi1": [0.37], "psi2": [[1.0]]}

    def run(name, **diagnose):
        cfg = write_config(tmp_path, {**MODEL_BLOCK, "diagnose": {"T": 0.5, "dt": 0.05, "n_paths": 20, **diagnose}},
                           name=f"{name}.yaml")
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        payload = json.loads((tmp_path / name / "diagnostics.json").read_text())
        del payload["config"]
        return payload

    bare = run("bare", params=params)
    assert run("default", params={**params, "gamma": 0.2}) == bare
    assert run("repeated", gamma=0.2, params={**params, "gamma": 0.2}) == bare
    cold = run("cold", params={**params, "gamma": 0.05})
    assert cold == run("config", gamma=0.05, params=params) != bare


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
