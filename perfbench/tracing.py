"""Spans around benchtrack's public functions, installed from outside the package.

A wrapper is installed at every name through which the program looks a
function up: `cli` imports `exploratory_constants` and `classical_solution`
by name, `qlearn.train` calls `update` through its module globals, and the
CLI reaches `sde`, `qlearn`, `baseline` and `backtest` through module
attributes.  `Tracer.restore` puts every original back.

A span records name, start, end, parent and run id.  Spans stay in memory
and are written when the run ends.  Layer self time is a span's duration
minus the time its child spans cover.  The program runs on one thread with
no queues, so no layer waits on another and no wait time is recorded.
Counters are taken at the same boundaries from the arguments and results of
the wrapped calls; the time spent taking them is booked to a `trace.hook`
span, so it is charged to the `trace` layer and not to the caller.
"""

from __future__ import annotations

import csv
import functools
import inspect
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from benchtrack import backtest, baseline, cli, model, qlearn, sde

LAYERS = ("bench", "cli", "model", "sde", "qlearn", "baseline", "backtest", "trace")


class Tracer:
    """In-memory span recorder plus the counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1, run id]
        self.counts: Counter = Counter()
        self.failures: list[str] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        """Return fn recording a span per call; hook(args, result) may replace the result."""
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.run_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                t0 = time.perf_counter()
                bound = signature.bind(*args, **kwargs).arguments
                result = hook(self, bound, result)
                self.spans.append(["trace.hook", t0, time.perf_counter(), parent, self.run_id])
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hook))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the public functions of every layer where the program looks them up."""
        for owner in (model, cli):
            self.patch(owner, "exploratory_constants", "model.exploratory_constants")
        for owner in (model, cli, baseline):
            self.patch(owner, "classical_solution", "model.classical_solution")
        self.patch(model.ClassicalSolution, "policy", "model.ClassicalSolution.policy")

        self.patch(sde, "rollout_linear_gaussian", "sde.rollout_linear_gaussian", _on_rollout)
        self.patch(sde, "simulate_linear_gaussian_batch", "sde.simulate_linear_gaussian_batch", _on_batch)
        self.patch(sde, "aggregated_terminal_sample", "sde.aggregated_terminal_sample",
                   _path_steps("terminal_path_steps"))
        self.patch(sde, "skorokhod_terminal_sample", "sde.skorokhod_terminal_sample",
                   _path_steps("skorokhod_path_steps"))

        self.patch(qlearn, "train", "qlearn.train", _on_train)
        self.patch(qlearn, "update", "qlearn.update")
        self.patch(qlearn.PolicyParams, "policy_coefficients", "qlearn.PolicyParams.policy_coefficients")
        self.patch(qlearn, "orthogonality_stats", "qlearn.orthogonality_stats", _on_orth)
        self.patch(qlearn, "policy_from_q", "qlearn.policy_from_q")
        self.patch(qlearn.TrainHistory, "to_csv", "qlearn.TrainHistory.to_csv")

        self.patch(baseline, "mle_estimate", "baseline.mle_estimate")
        self.patch(baseline, "classical_strategy", "baseline.classical_strategy")

        self.patch(backtest, "load_prices", "backtest.load_prices", _on_load)
        self.patch(backtest, "run_tracking", "backtest.run_tracking", _on_run)
        self.patch(backtest.BacktestResult, "to_csv", "backtest.BacktestResult.to_csv", _on_result_csv)
        self.patch(backtest, "compare", "backtest.compare")

        self.patch(cli, "main", "cli.main")
        self.patch(cli, "_load_config", "cli._load_config")
        self.patch(cli, "_model_params", "cli._model_params")
        self.patch(cli, "_write_json", "cli._write_json")
        self.patch(cli, "_strategy_from_cfg", "cli._strategy_from_cfg", _on_strategy)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "run_id"])
            for i, (name, t0, t1, parent, run_id) in enumerate(self.spans):
                writer.writerow([i, name, repr(t0), repr(t1), parent, run_id])


def _on_rollout(tr: Tracer, a: dict, result):
    states, _, local = result
    dL = np.diff(local)
    tr.counts["rollout_steps"] += a["n_steps"]
    tr.counts["reflect_steps"] += int(np.count_nonzero(dL > 0.0))
    tr.counts["observed_steps"] += a["n_steps"]
    if not (np.all(states >= 0.0) and np.all(states[1:][dL > 0.0] == 0.0) and np.all(dL >= 0.0)):
        tr.failures.append("a rollout breaks y >= 0, dL > 0 => y == 0 or monotone L")
    return result


def _on_batch(tr: Tracer, a: dict, batch):
    n, k1 = batch.states.shape
    d = batch.actions.shape[2]
    steps = n * (k1 - 1)
    tr.counts["batch_path_steps"] += steps
    tr.counts["observed_steps"] += steps
    tr.counts["reflect_steps"] += int(np.count_nonzero(np.diff(batch.local_time, axis=1) > 0.0))
    tr.counts["clamps"] += batch.clamp_events
    # the per-path normal blocks and their stacked copy, (n, K, 2d+1) each, plus the returned arrays
    normals = 2 * steps * (2 * d + 1) * 8
    tr.counts["batch_bytes"] += normals + batch.states.nbytes + batch.local_time.nbytes + batch.actions.nbytes
    return batch


def _path_steps(key: str):
    def hook(tr: Tracer, a: dict, result):
        tr.counts[key] += a["n_paths"] * round(a["T"] / a["dt"])
        return result
    return hook


def _on_train(tr: Tracer, a: dict, history):
    tr.counts["episodes"] += len(history.episodes)
    tr.counts["clipped"] += int(np.count_nonzero(history.clipped))
    tr.counts["rejected"] += len(history.rejected_episodes)
    tr.counts["clamps"] += history.clamp_events   # cli builds a fresh Environment per command
    return history


def _on_orth(tr: Tracer, a: dict, stats):
    tr.counts["orth_paths"] += stats.n_paths
    return stats


def _on_load(tr: Tracer, a: dict, prices):
    tr.counts["rows_loaded"] += len(prices)
    return prices


def _on_run(tr: Tracer, a: dict, result):
    tr.counts["bars"] += len(result.times) - 1
    return result


def _on_result_csv(tr: Tracer, a: dict, result):
    tr.counts["rows_written"] += len(a["self"].times)
    return result


def _on_strategy(tr: Tracer, a: dict, result):
    name, strategy = result
    return name, tr.wrap(f"cli.strategy.{name}", strategy)


def per_layer(tr: Tracer, traced_walls: list[float], plain_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of the traced operations, named as in BENCHMARK.json.

    A layer that the workload does not exercise reports 0.
    """
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    covered = [0.0] * len(tr.spans)
    for name, t0, t1, parent, _ in tr.spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    self_time: defaultdict = defaultdict(float)
    for (name, t0, t1, _, _), child in zip(tr.spans, covered):
        calls[name] += 1
        total[name] += t1 - t0
        self_time[name] += t1 - t0 - child

    c = tr.counts
    wall = sum(traced_walls)
    n_ops = len(traced_walls)
    commands = calls["cli.main"]

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    solve = ("model.classical_solution", "model.exploratory_constants")
    layer_self: defaultdict = defaultdict(float)
    for name, t in self_time.items():
        layer_self[name.split(".")[0]] += t

    metrics = {
        "model.solve_ms": per(sum(total[s] for s in solve), sum(calls[s] for s in solve), 1e3),
        "model.solve_calls": per(sum(calls[s] for s in solve), n_ops),
        "model.policy_us": per(total["model.ClassicalSolution.policy"],
                               calls["model.ClassicalSolution.policy"], 1e6),
        "sde.rollout_us_per_step": per(total["sde.rollout_linear_gaussian"], c["rollout_steps"], 1e6),
        "sde.rollout_share": per(total["sde.rollout_linear_gaussian"], wall),
        "sde.batch_ns_per_path_step": per(total["sde.simulate_linear_gaussian_batch"],
                                          c["batch_path_steps"], 1e9),
        "sde.batch_share": per(total["sde.simulate_linear_gaussian_batch"], wall),
        "sde.batch_bytes_computed": per(c["batch_bytes"], calls["sde.simulate_linear_gaussian_batch"]),
        "sde.terminal_ns_per_path_step": per(total["sde.aggregated_terminal_sample"],
                                             c["terminal_path_steps"], 1e9),
        "sde.skorokhod_ns_per_path_step": per(total["sde.skorokhod_terminal_sample"],
                                              c["skorokhod_path_steps"], 1e9),
        "sde.reflect_frac": per(c["reflect_steps"], c["observed_steps"]),
        "sde.clamp_frac": per(c["clamps"], c["observed_steps"]),
        "qlearn.update_us_per_episode": per(total["qlearn.update"], calls["qlearn.update"], 1e6),
        "qlearn.policy_coef_us": per(total["qlearn.PolicyParams.policy_coefficients"],
                                     calls["qlearn.PolicyParams.policy_coefficients"], 1e6),
        "qlearn.update_share": per(total["qlearn.update"], wall),
        "qlearn.clip_frac": per(c["clipped"], c["episodes"]),
        "qlearn.reject_frac": per(c["rejected"], c["episodes"]),
        "qlearn.orth_us_per_path": per(total["qlearn.orthogonality_stats"], c["orth_paths"], 1e6),
        "qlearn.orth_share": per(total["qlearn.orthogonality_stats"], wall),
        "qlearn.policy_from_q_us": per(total["qlearn.policy_from_q"], calls["qlearn.policy_from_q"], 1e6),
        "baseline.mle_ms": per(total["baseline.mle_estimate"], calls["baseline.mle_estimate"], 1e3),
        "backtest.load_us_per_row": per(total["backtest.load_prices"], c["rows_loaded"], 1e6),
        "backtest.run_self_us_per_bar": per(self_time["backtest.run_tracking"], c["bars"], 1e6),
        **{
            f"backtest.strategy_us_per_bar.{s}": per(total[f"cli.strategy.{s}"],
                                                     calls[f"cli.strategy.{s}"], 1e6)
            for s in ("mle", "learned_mean", "learned_sample")
        },
        "backtest.write_us_per_bar": per(total["backtest.BacktestResult.to_csv"], c["rows_written"], 1e6),
        "cli.config_ms": per(total["cli._load_config"] + total["cli._model_params"], commands, 1e3),
        "cli.write_ms": per(total["cli._write_json"] + total["qlearn.TrainHistory.to_csv"], commands, 1e3),
        "trace.overhead_frac": statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
        **{f"{layer}.self_ms": per(layer_self[layer], n_ops, 1e3) for layer in LAYERS},
    }
    return metrics
