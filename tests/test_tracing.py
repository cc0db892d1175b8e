"""The benchmark's traced mode (perfbench/tracing.py) still fits the program.

The tracer wraps functions by name and binds their arguments, so a renamed
function or a changed signature would only show in the slow benchmark
self-test; this runs the same wrappers on a tiny train, diagnose and
simulate.
"""

import importlib.util
import json
from pathlib import Path

import yaml

from benchtrack import cli, qlearn, sde
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
    tr = tracing.Tracer()
    tr.install()
    try:
        # cli.main looked up after install, as the benchmark does
        assert cli.main(["train", "--config", str(train), "--out", str(tmp_path / "t")]) == 0
        assert cli.main(["diagnose", "--config", str(diagnose), "--out", str(tmp_path / "d")]) == 0
    finally:
        tr.restore()
    assert (sde.rollout_linear_gaussian, sde.simulate_linear_gaussian_batch, qlearn.update, cli.main) == originals
    assert tr.failures == []
    assert tr.counts["episodes"] == 2
    assert tr.counts["rollout_steps"] == 2 * 10
    assert tr.counts["batch_path_steps"] == 20 * 10
    assert tr.counts["orth_paths"] == 2 * 20   # the constants and the xi-shifted control
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = tracing.per_layer(tr, [1.0], [1.0])
    assert set(metrics) == names
    assert metrics["sde.rollout_us_per_step"] > 0.0 and metrics["qlearn.update_us_per_episode"] > 0.0


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
