"""Seeded inputs, one operation and its output checks for each workload.

A workload turns the workload seed into input files (for `oracle`, into the
call arguments), runs one operation the way a user does, and checks what the
operation wrote.  `execute` is the timed part; `check` reads the artifacts
afterwards.  Every operation writes into its own directory, so two runs of
the same input can be compared byte for byte.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from pathlib import Path

import numpy as np
import yaml
from scipy.stats import ks_2samp

from benchtrack import cli, sde
from benchtrack.model import ModelParams, exploratory_constants

# the d = 1 reference parameters of the acceptance suite
REF_MODEL = {"mu": [0.2], "sigma": [[1.0]], "sigma_z": 0.2, "kappa": 0.5, "eta": [1.0], "rho": 0.2}
REF_PARAMS = ModelParams(**REF_MODEL)
GAMMA = 0.2
Y0 = 1.0

TRAIN_EPISODES = 100       # per command; K = 1200 steps each
TRAIN_T, TRAIN_DT = 12.0, 0.01
DIAG_PATHS = 10_000        # the ROADMAP's diagnose size, all paths held in memory
ORACLE_PATHS = 10_000
ORACLE_T, ORACLE_DT = 1.0, 1e-3
ENVELOPE_T, ENVELOPE_DT = (5.0, 10.0, 20.0), 0.01
BACKTEST_ROWS = 2000       # daily bars of a d = 3 market
BACKTEST_D = 3

# The acceptance suite's thresholds (criteria 4 and 5) are missed by chance on
# about 1% of fresh seeds, and one evaluation of the benchmark runs about a
# hundred seeds.  So an operation fails only at a threshold missed by chance
# about once in 10^4 runs; a miss of the suite's threshold is printed as a note.
Z_SUITE, Z_GATE = 3.0, 4.0
KS_SUITE, KS_GATE = 0.01, 1e-4


def _steps(T: float, dt: float) -> int:
    return round(T / dt)


def _seeds(seed: int, n: int) -> list[int]:
    rng = np.random.default_rng(seed % 2**63)
    return [int(s) for s in rng.integers(0, 2**31, size=n)]


def _write_yaml(path: Path, cfg: dict) -> Path:
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    return path


def _run_cli(command: str, config: Path, out: Path) -> int:
    # looked up at call time, so a traced run sees its wrapper
    return cli.main([command, "--config", str(config), "--out", str(out)])


class Train:
    """`benchtrack train` from the neutral start with the default schedule."""

    why = ("benchtrack train at K = 1200, three seeds back to back: the per-step rollout "
           "loop dominates, and batch, orthogonality and backtest code are never touched")

    def __init__(self, seed: int, inputs: Path):
        self.seeds = _seeds(seed, 3)
        self.configs = [
            _write_yaml(inputs / f"train_{i}.yaml", {
                "model": REF_MODEL,
                "train": {"T": TRAIN_T, "dt": TRAIN_DT, "episodes": TRAIN_EPISODES,
                          "gamma": GAMMA, "y0": Y0, "seed": s},
            })
            for i, s in enumerate(self.seeds)
        ]
        self.n_inputs = len(self.configs)
        self.episodes = TRAIN_EPISODES
        self.work = TRAIN_EPISODES * _steps(TRAIN_T, TRAIN_DT)
        self.consts = exploratory_constants(REF_PARAMS, GAMMA)

    def execute(self, i: int, out: Path) -> int:
        return _run_cli("train", self.configs[i], out)

    def check(self, i: int, out: Path) -> dict:
        snap = json.loads((out / "learned.json").read_text())
        xi = float(snap["xi"])
        psi1 = np.asarray(snap["psi1"], dtype=float)
        psi2 = np.asarray(snap["psi2"], dtype=float)
        rejected = len(snap["rejected_episodes"])
        failures = []
        if not (math.isfinite(xi) and np.all(np.isfinite(psi1)) and np.all(np.isfinite(psi2))):
            failures.append("learned parameters are not finite")
        if not np.all(np.linalg.eigvalsh(psi2 @ psi2.T) > 0.0) or not psi2[0, 0] > 0.0:
            failures.append(f"psi2 is not positive: {psi2.tolist()}")
        if rejected > 0.1 * self.episodes:
            failures.append(f"{rejected} of {self.episodes} episodes rejected")
        with open(out / "history.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.episodes:
            failures.append(f"history.csv has {rows} rows, expected {self.episodes}")
        c = self.consts
        return {
            "failures": failures,
            "attempted": self.episodes,
            "failed": rejected,
            "xi_err": abs(xi - c.xi_star),
            "psi_err": max(float(np.max(np.abs(psi1 - c.psi1_star))),
                           float(np.max(np.abs(psi2 - c.psi2_star)))),
        }


class Diagnose:
    """`benchtrack diagnose` at the closed-form constants with an xi-shifted control."""

    why = ("benchtrack diagnose at 10^4 paths x 1200 steps held in memory: the batch "
           "simulator, the orthogonality z-tests, and the memory-heavy case")

    def __init__(self, seed: int, inputs: Path):
        self.config = _write_yaml(inputs / "diagnose.yaml", {
            "model": REF_MODEL,
            "diagnose": {"seed": _seeds(seed, 1)[0], "gamma": GAMMA, "y0": Y0,
                         "n_paths": DIAG_PATHS, "T": TRAIN_T, "dt": TRAIN_DT, "xi_shift": 0.5},
        })
        self.n_inputs = 1
        self.work = DIAG_PATHS * _steps(TRAIN_T, TRAIN_DT)

    def execute(self, i: int, out: Path) -> int:
        return _run_cli("diagnose", self.config, out)

    def check(self, i: int, out: Path) -> dict:
        diag = json.loads((out / "diagnostics.json").read_text())
        zs = [c["z"] for c in diag["orthogonality"].values()]
        z_shift = diag["xi_shift_control"]["xi"]["z"]
        worst = max(abs(z) for z in zs)
        failures, notes = [], []
        if not worst < Z_GATE:
            failures.append(f"z-score outside {Z_GATE:g} sigma at the true constants: {zs}")
        elif not worst < Z_SUITE:
            notes.append(f"z-score outside criterion 5's {Z_SUITE:g} sigma at the true constants: {zs}")
        if not abs(z_shift) > 5.0:
            failures.append(f"xi-shifted control not rejected: z = {z_shift}")
        return {"failures": failures, "notes": notes}


class Oracle:
    """Euler-vs-Skorokhod KS test (criterion 4) and the transversality envelopes (criterion 7)."""

    why = ("criteria 4 and 7: wide, short sde sampling in O(n) memory with no actions, so a "
           "kernel that materialises (n, K) arrays shows its cost here")

    def __init__(self, seed: int, inputs: Path):
        self.seeds = _seeds(seed, 2 + len(ENVELOPE_T))
        self.n_inputs = 1
        self.work = ORACLE_PATHS * (
            2 * _steps(ORACLE_T, ORACLE_DT) + sum(_steps(T, ENVELOPE_DT) for T in ENVELOPE_T)
        )

    def execute(self, i: int, out: Path) -> int:
        p, h0 = REF_PARAMS, math.log1p(Y0)
        y_euler = sde.aggregated_terminal_sample(
            p, GAMMA, Y0, ORACLE_T, ORACLE_DT, ORACLE_PATHS, self.seeds[0])
        h_oracle = sde.skorokhod_terminal_sample(
            p, GAMMA, h0, ORACLE_T, ORACLE_DT, ORACLE_PATHS, self.seeds[1])
        ks = ks_2samp(y_euler, np.expm1(h_oracle))
        envelopes = {}
        for T, s in zip(ENVELOPE_T, self.seeds[2:]):
            h_T = sde.skorokhod_terminal_sample(p, GAMMA, h0, T, ENVELOPE_DT, ORACLE_PATHS, s)
            envelopes[f"{T:g}"] = h_T
        np.savez(out / "samples.npz", euler=y_euler, oracle=h_oracle,
                 **{f"h_T{k}": v for k, v in envelopes.items()})
        (out / "ks.json").write_text(json.dumps(
            {"statistic": float(ks.statistic), "pvalue": float(ks.pvalue)}))
        return 0

    def check(self, i: int, out: Path) -> dict:
        ks = json.loads((out / "ks.json").read_text())
        b, s = sde.aggregated_coefficients(REF_PARAMS, GAMMA)
        mu_hat = b - 0.5 * s * s
        h0 = math.log1p(Y0)
        rho = REF_PARAMS.rho
        failures, notes = [], []
        if not ks["pvalue"] > KS_GATE:
            failures.append(f"Euler and Skorokhod terminal laws differ: KS p = {ks['pvalue']}")
        elif not ks["pvalue"] > KS_SUITE:
            notes.append(f"KS p = {ks['pvalue']} is below criterion 4's {KS_SUITE:g}")
        with np.load(out / "samples.npz") as samples:
            for T in ENVELOPE_T:
                h_T = samples[f"h_T{T:g}"]
                disc = math.exp(-rho * T)
                est = disc * float(h_T.mean())
                se = disc * float(h_T.std(ddof=1)) / math.sqrt(len(h_T))
                bound = disc * (2.0 * h0 + 2.0 * abs(mu_hat) * T + s * math.sqrt(2.0 * T / math.pi))
                if not est <= bound + 3.0 * se:
                    failures.append(f"T={T:g}: discounted mean log-state {est} above envelope {bound}")
        return {"failures": failures, "notes": notes}


def _gbm_market(rng: np.random.Generator, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Daily GBM levels: a zero-drift benchmark and d assets correlated with it."""
    dt = 1.0 / 252.0
    mu = rng.uniform(0.02, 0.12, d)
    vol = rng.uniform(0.1, 0.3, d)
    vol_z = 0.15
    g = rng.standard_normal((n - 1, d + 1))
    shocks = 0.5 * g[:, :1] + math.sqrt(0.75) * g[:, 1:]
    log_z = (-0.5 * vol_z**2 * dt + vol_z * math.sqrt(dt) * g[:, 0]).cumsum()
    log_s = ((mu - 0.5 * vol**2) * dt + vol * math.sqrt(dt) * shocks).cumsum(axis=0)
    bench = 100.0 * np.exp(np.concatenate([[0.0], log_z]))
    assets = 100.0 * np.exp(np.vstack([np.zeros(d), log_s]))
    return bench, assets


class Backtest:
    """`benchtrack backtest` with mle, learned-mean and learned-sample strategies."""

    why = ("benchtrack backtest on a d = 3 price CSV with mle and two learned strategies: "
           "the only user of backtest and baseline, and it bypasses sde entirely")

    STRATEGIES = ("mle", "learned_mean", "learned_sample")

    def __init__(self, seed: int, inputs: Path):
        rng = np.random.default_rng(seed % 2**63)
        n, d = BACKTEST_ROWS, BACKTEST_D
        bench, assets = _gbm_market(rng, n, d)
        start = datetime.date(2000, 1, 3)
        prices = inputs / "prices.csv"
        with open(prices, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "benchmark"] + [f"asset_{j + 1}" for j in range(d)])
            for i in range(n):
                day = (start + datetime.timedelta(days=i)).isoformat()
                writer.writerow([day, repr(float(bench[i]))] + [repr(float(x)) for x in assets[i]])
        psi2 = np.eye(d) + 0.1 * np.tril(rng.standard_normal((d, d)))
        snapshot = inputs / "learned.json"
        snapshot.write_text(json.dumps({
            "episodes": 4000,
            "xi": float(rng.uniform(0.2, 0.5)),
            "psi1": rng.uniform(0.1, 0.4, d).tolist(),
            "psi2": psi2.tolist(),
        }))
        learned = {"type": "learned", "params": str(snapshot), "gamma": 0.2 / d}
        self.config = _write_yaml(inputs / "backtest.yaml", {"backtest": {
            "prices": str(prices), "v0": 100.0, "rho": 0.1, "baseline_index": 0,
            "strategies": [
                {"type": "mle", "name": "mle", "train_fraction": 0.5},
                dict(learned, name="learned_mean", execution="mean"),
                dict(learned, name="learned_sample", execution="sample",
                     sample_seed=int(rng.integers(0, 2**31))),
            ],
        }})
        self.v0 = 100.0
        self.n_inputs = 1
        self.bars = len(self.STRATEGIES) * (n - 1)
        self.work = self.bars

    def execute(self, i: int, out: Path) -> int:
        return _run_cli("backtest", self.config, out)

    def check(self, i: int, out: Path) -> dict:
        failures = []
        for name in self.STRATEGIES:
            cols = np.genfromtxt(out / f"backtest_{name}.csv", delimiter=",", names=True)
            z, v, a = cols["Z"], cols["V"], cols["A"]
            if len(z) != BACKTEST_ROWS:
                failures.append(f"{name}: {len(z)} rows, expected {BACKTEST_ROWS}")
                continue
            if not np.all(v + a >= z - 1e-9):
                failures.append(f"{name}: V + A < Z")
            if not np.all(np.diff(a) >= 0.0):
                failures.append(f"{name}: injection A decreases")
            sup = np.maximum.accumulate(np.concatenate([[max(z[0] - self.v0, 0.0)], z[1:] - v[1:]]))
            if not np.allclose(a, sup, rtol=0.0, atol=1e-9):
                failures.append(f"{name}: A differs from the running supremum by "
                                f"{float(np.max(np.abs(a - sup)))}")
        report = json.loads((out / "comparison.json").read_text())
        if [r["name"] for r in report["strategies"]] != list(self.STRATEGIES):
            failures.append("comparison.json does not list the three strategies")
        return {"failures": failures}


WORKLOADS = {"train": Train, "diagnose": Diagnose, "oracle": Oracle, "backtest": Backtest}
