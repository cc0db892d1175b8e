"""The benchmark's traced mode (perfbench/tracing.py) still fits the program.

The tracer wraps functions by name and binds their arguments, so a renamed
function or a changed signature would only show in the slow benchmark
self-test; this runs the same wrappers on a tiny train, diagnose,
simulate and backtest.
"""

import importlib.util
import json
from pathlib import Path

import yaml

from benchtrack import backtest, cli, qlearn, sde
from test_cli import MODEL_BLOCK

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_train_and_diagnose_count_steps(tmp_path):
    tracing = _tracing()
    originals = (sde.rollout_linear_gaussian, sde.simulate_linear_gaussian_batch, qlearn.update, cli.main)
    train = tmp_path / "train.yaml"
    train.write_text(yaml.safe_dump({**MODEL_BLOCK, "train": {"T": 0.5, "dt": 0.05, "episodes": 2}}))
    diagnose = tmp_path / "diagnose.yaml"
    diagnose.write_text(yaml.safe_dump(
        {**MODEL_BLOCK, "diagnose": {"T": 0.5, "dt": 0.05, "n_paths": 20, "xi_shift": 0.5}}))
    simulate = tmp_path / "simulate.yaml"
    simulate.write_text(yaml.safe_dump(
        {**MODEL_BLOCK, "simulate": {"scheme": "episode", "n_paths": 20, "T": 0.5, "dt": 0.05}}))
    tr = tracing.Tracer()
    tr.install()
    try:
        # cli.main looked up after install, as the benchmark does
        assert cli.main(["train", "--config", str(train), "--out", str(tmp_path / "t")]) == 0
        assert cli.main(["diagnose", "--config", str(diagnose), "--out", str(tmp_path / "d")]) == 0
        assert cli.main(["simulate", "--config", str(simulate), "--out", str(tmp_path / "s")]) == 0
    finally:
        tr.restore()
    assert (sde.rollout_linear_gaussian, sde.simulate_linear_gaussian_batch, qlearn.update, cli.main) == originals
    assert tr.failures == []
    assert tr.counts["episodes"] == 2
    # train runs the block kernel, not the wrapped per-episode rollout, so no rollout step is counted
    assert tr.counts["rollout_steps"] == 0
    assert tr.counts["batch_path_steps"] == 20 * 10   # simulate's batch; diagnose streams its blocks
    assert tr.counts["orth_paths"] == 20   # one pass gives the constants and the xi-shifted control
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = tracing.per_layer(tr, [1.0], [1.0])
    assert set(metrics) == names
    assert metrics["sde.rollout_us_per_step"] == 0.0 and metrics["qlearn.update_us_per_episode"] > 0.0


def test_traced_train_records_one_policy_and_one_update_per_block(tmp_path):
    # the per-layer train metrics divide by these spans: 20 episodes are two blocks (16 + 4),
    # each drawn by one policy and refit by one update
    tracing = _tracing()
    train = tmp_path / "train.yaml"
    train.write_text(yaml.safe_dump({**MODEL_BLOCK, "train": {"T": 0.5, "dt": 0.05, "episodes": 20}}))
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.main(["train", "--config", str(train), "--out", str(tmp_path / "t")]) == 0
    finally:
        tr.restore()
    assert tr.failures == []
    traced = ["qlearn.PolicyParams.policy_coefficients", "sde.rollout_linear_gaussian", "qlearn.update"]
    names = [span[0] for span in tr.spans]
    assert [name for name in names if name in traced] == [traced[0], traced[2]] * 2
    train_span = names.index("qlearn.train")
    assert all(span[3] == train_span for span in tr.spans if span[0] in traced)
    assert tr.counts["rollout_steps"] == 0


def test_traced_simulate_counts_terminal_sampler_steps(tmp_path):
    tracing = _tracing()
    originals = (sde.aggregated_terminal_sample, sde.skorokhod_terminal_sample, cli.main)
    simulate = tmp_path / "simulate.yaml"
    simulate.write_text(yaml.safe_dump({**MODEL_BLOCK, "simulate": {
        "scheme": "aggregated", "n_paths": 30, "T": 0.5, "dt": 0.05, "ks_check": True}}))
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.main(["simulate", "--config", str(simulate), "--out", str(tmp_path / "s")]) == 0
    finally:
        tr.restore()
    assert (sde.aggregated_terminal_sample, sde.skorokhod_terminal_sample, cli.main) == originals
    assert tr.failures == []
    # the hooks bind n_paths, T and dt of both terminal samplers
    assert tr.counts["terminal_path_steps"] == tr.counts["skorokhod_path_steps"] == 30 * 10


def test_traced_backtest_counts_bars_and_rows(tmp_path):
    tracing = _tracing()
    originals = (backtest.load_prices, backtest.run_tracking, backtest.BacktestResult.to_csv,
                 cli._strategy_from_cfg, cli.main)
    prices = tmp_path / "prices.csv"
    prices.write_text("\n".join(["timestamp,benchmark,asset_1,asset_2"] + [
        f"2000-01-{i + 1:02d},{100.0 + i % 3},{50.0 + i % 5},{20.0 + i % 4}" for i in range(25)]) + "\n")
    snapshot = tmp_path / "learned.json"
    snapshot.write_text(json.dumps({"xi": 0.3, "psi1": [0.2, 0.3], "psi2": [[1.0, 0.0], [0.1, 1.0]],
                                    "gamma": 0.1}))
    learned = {"type": "learned", "params": str(snapshot)}
    cfg = tmp_path / "backtest.yaml"
    cfg.write_text(yaml.safe_dump({"backtest": {"prices": str(prices), "v0": 95.0, "rho": 0.1, "strategies": [
        {"type": "mle", "name": "mle"},
        dict(learned, name="learned_mean", execution="mean"),
        dict(learned, name="learned_sample", execution="sample", sample_seed=3),
    ]}}))
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.main(["backtest", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    finally:
        tr.restore()
    assert (backtest.load_prices, backtest.run_tracking, backtest.BacktestResult.to_csv,
            cli._strategy_from_cfg, cli.main) == originals
    assert tr.failures == []
    assert tr.counts["rows_loaded"] == 25
    assert tr.counts["bars"] == 3 * 24
    assert tr.counts["rows_written"] == 3 * 25
    metrics = tracing.per_layer(tr, [1.0], [1.0])
    for name in ("mle", "learned_mean", "learned_sample"):
        assert metrics[f"backtest.strategy_us_per_bar.{name}"] > 0.0
    assert metrics["model.policy_us"] > 0.0 and metrics["backtest.write_us_per_bar"] > 0.0
