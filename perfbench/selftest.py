"""Self-test of the benchmark.

For every workload, a traced run on seed 1 must pass every check, including
that its traced and untraced operations wrote byte-identical artifacts (so
tracing does not perturb the Philox streams), and an untraced run on seed 2
must pass every check too.  Both runs must report exactly the metrics that
BENCHMARK.json defines.  Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("check FAILED"):
            print(f"  {line}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, trace in ((1, 1), (2, 0)):
            result = run(workload, seed, trace)
            good = (result["correct"] and result["failed"] == 0
                    and set(result["metrics"]) == names[trace])
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} {workload} seed={seed} trace={trace} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
