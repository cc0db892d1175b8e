"""Benchmark of benchtrack: one workload per process, seeded inputs, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced operations and reports the per-layer metrics.  Each run prints its
metrics as `metric <name> <value> <unit>` lines and ends with one JSON line.
Artifacts go to `.perfbench_out/<workload>/` under the repository root.  See
perfbench/README.md for the metrics, layers and workloads.
"""

import os

# single-threaded numerics, set before numpy loads; child interpreters inherit it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def measure_setup() -> tuple[list[float], int]:
    """Wall times of fresh interpreters importing benchtrack.cli, after one warm-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import benchtrack.cli"]
    times, failed = [], 0
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            failed += 1
            print(proc.stderr, file=sys.stderr)
        elif k:
            times.append(elapsed)
    return times, failed


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics that BENCHMARK.json defines."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def digest(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


class Runner:
    """Runs operations, checks their artifacts and compares repeats of one input."""

    def __init__(self, name: str, workload, out: Path):
        self.name = name
        self.wl = workload
        self.out = out
        self.digests: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ops: list[dict] = []

    def op(self, i: int, tracer=None) -> dict:
        opdir = self.out / f"input{i}-{'traced' if tracer else 'plain'}"
        shutil.rmtree(opdir, ignore_errors=True)
        opdir.mkdir(parents=True)
        execute = self.wl.execute
        if tracer is not None:
            tracer.run_id = f"op{len(self.ops)}"
            tracer.failures = []
            tracer.install()
            execute = tracer.wrap(f"bench.{self.name}", execute)
        gc.collect()
        t0 = time.perf_counter()
        try:
            rc = execute(i, opdir)
        except Exception:  # an operation that raises is a failed operation, not a crash of the benchmark
            traceback.print_exc()
            rc = None
        finally:
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        record = {"input": i, "wall_s": wall, "traced": tracer is not None}
        # path invariants the wrappers saw broken, once per kind
        failures = [] if tracer is None else list(dict.fromkeys(tracer.failures))
        if rc != 0:
            failures.append("raised an exception" if rc is None else f"exit code {rc}")
        else:
            try:
                result = self.wl.check(i, opdir)
            except Exception as exc:  # malformed artifacts fail the check, not the benchmark
                traceback.print_exc()
                result = {"failures": [f"artifacts unreadable: {exc!r}"]}
            failures += result.pop("failures")
            for note in result.pop("notes", []):
                print(f"note op{len(self.ops)} input{i}: {note}")
            self.attempted += result.pop("attempted", 0)
            self.failed += result.pop("failed", 0)
            record.update(result)
            files = digest(opdir)
            if files != self.digests.setdefault(i, files):
                failures.append("artifacts differ from an earlier operation on the same input")
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += [f"op{len(self.ops)} input{i}: {f}" for f in failures]
        record["ok"] = not failures
        self.ops.append(record)
        return record


def run_ops(runner: Runner, seconds: float, tracer=None) -> None:
    """Run operations until `seconds` have passed.

    Each mode runs at least four operations and at least one per input.
    The four steady the median where operations are long (diagnose takes
    about 8 s each); peak memory reaches its plateau by the second one.
    """
    modes = (None, tracer) if tracer is not None else (None,)
    minimum = len(modes) * max(4, runner.wl.n_inputs)
    deadline = time.perf_counter() + seconds
    n = 0
    while n < minimum or time.perf_counter() < deadline:
        i = (n // len(modes)) % runner.wl.n_inputs
        mode = modes[n % len(modes)]
        n += 1
        if not runner.op(i, mode)["ok"]:
            break  # repeating a failed operation measures nothing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "benchtrack" / "__init__.py").is_file():
        print(f"perfbench: no benchtrack source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import benchtrack
    if Path(benchtrack.__file__).resolve().parent != SRC / "benchtrack":
        print(f"perfbench: benchtrack resolves to {benchtrack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    (out / "inputs").mkdir(parents=True)
    machine = {
        "nproc": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    wl_class = workloads.WORKLOADS[args.workload]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {wl_class.why}")
    print("machine " + json.dumps(machine))

    setup_times, setup_failed = ([], 0) if args.trace else measure_setup()
    wl = wl_class(args.seed, out / "inputs")
    runner = Runner(args.workload, wl, out)
    runner.attempted += len(setup_times) + setup_failed
    runner.failed += setup_failed
    if setup_failed:
        runner.failures.append(f"{setup_failed} interpreters failed to import benchtrack.cli")

    tracer = tracing.Tracer() if args.trace else None
    run_ops(runner, args.seconds, tracer)
    good = [op for op in runner.ops if op["ok"]]
    plain = [op["wall_s"] for op in good if not op["traced"]]

    if args.trace:
        traced = [op["wall_s"] for op in good if op["traced"]]
        tracer.write(out / "trace_spans.csv")
        metrics = tracing.per_layer(tracer, traced, plain) if traced and plain else {}
        units = metric_units("per_layer")
    else:
        def per_s(amount: float):
            return statistics.median(amount / w for w in plain) if plain else None

        metrics = {
            "setup_s": statistics.median(setup_times) if setup_times else None,
            "path_steps_per_s": per_s(wl.work),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = metric_units("end_to_end")
        # metrics outside BENCHMARK.json (per workload, or 0 when healthy), printed before the JSON line
        extra = {"failed_frac": (runner.failed / max(runner.attempted, 1), "ratio")}
        if args.workload == "train":
            extra["episodes_per_s"] = (per_s(wl.episodes), "1/s")
            for key in ("xi_err", "psi_err"):
                first = [op[key] for op in runner.ops[: wl.n_inputs] if key in op]
                extra[key] = (statistics.fmean(first) if first else None, "1")
        if args.workload == "backtest":
            extra["bars_per_s"] = (per_s(wl.bars), "1/s")
        for name, (value, unit) in extra.items():
            if value is not None:
                print(f"metric {name} {value!r} {unit}")

    metrics = {k: v for k, v in metrics.items() if v is not None}
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    for failure in runner.failures:
        print(f"check FAILED {failure}")
    walls = " ".join(f"{op['wall_s']:.3f}{'t' if op['traced'] else ''}" for op in runner.ops)
    print(f"ops {len(runner.ops)} (ok {len(good)}), attempted {runner.attempted}, "
          f"failed {runner.failed}; wall s per op (t = traced): {walls}")
    correct = not runner.failures and metrics.keys() == units.keys()
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
