"""Command-line pipeline: solve | simulate | train | diagnose | backtest.

Every command reads a single YAML (or JSON) config file, optionally
overridden by --seed/--out, and writes CSV/JSON artifacts into the output
directory.  Each artifact embeds the fully resolved config and seed so any
output can be reproduced from its own metadata.  Verbosity is controlled
by the BENCHTRACK_LOG environment variable (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import backtest as bt
from . import baseline, qlearn, sde
from .model import (
    DomainError,
    ModelParams,
    NoBracket,
    classical_solution,
    derived_constants,
    exploratory_constants,
)

log = logging.getLogger("benchtrack")


class ConfigError(ValueError):
    """Missing or malformed configuration."""


# Every key that a command reads, per config block.  A key outside its block's
# set is refused, so a misspelt or retired option fails instead of being
# ignored.  The top level, diagnose.params and learned snapshots may carry
# other keys.  One set serves every strategy type.
CONFIG_KEYS = {
    "model": {"mu", "sigma", "sigma_z", "kappa", "eta", "rho"},
    "grid": {"y_max", "step"},
    "simulate": {"gamma", "scheme", "n_paths", "y0", "T", "dt", "ks_check"},
    "train": {"seed", "T", "dt", "gamma", "resume", "init", "y0", "episodes"},
    "train.init": {"psi1", "psi2"},
    "diagnose": {"seed", "gamma", "y0", "n_paths", "params", "T", "dt", "xi_shift", "sweep"},
    "diagnose.sweep": {"dt_list", "T_list", "n_paths"},
    "backtest": {"prices", "v0", "rho", "strategies", "baseline_index"},
    "strategy": {"type", "name", "train_fraction", "kappa", "model", "params", "gamma", "execution",
                 "sample_seed"},
}


def _setup_logging() -> None:
    level = os.environ.get("BENCHTRACK_LOG", "INFO").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(p) as fh:
            # libyaml's parser, where PyYAML was built with it, is several times faster
            cfg = yaml.load(fh, Loader=yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return cfg


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return cfg[key]


def _known(blk, block: str, where: str | None = None) -> dict:
    """blk, once it is a mapping with no key outside CONFIG_KEYS[block]; where names it in errors."""
    where = where or block
    if not isinstance(blk, dict):
        raise ConfigError(f"{where} must be a mapping, got {blk!r}")
    for key in blk:
        if key not in CONFIG_KEYS[block]:
            raise ConfigError(f"{where} has unknown key {key!r}: it reads only "
                              f"{', '.join(sorted(CONFIG_KEYS[block]))}")
    return blk


def _horizon(blk: dict, where: str) -> tuple[float, float]:
    """(T, dt) of a config block; T must be a positive whole number of dt steps."""
    T = float(_require(blk, "T", where))
    dt = float(_require(blk, "dt", where))
    _check_horizon(T, dt, where)
    return T, dt


def _check_horizon(T: float, dt: float, where: str) -> None:
    try:
        sde.grid_steps(T, dt)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _model_params(cfg: dict) -> ModelParams:
    m = _known(_require(cfg, "model"), "model")
    try:
        params = ModelParams(
            mu=np.asarray(_require(m, "mu", "model"), dtype=float),
            sigma=np.asarray(_require(m, "sigma", "model"), dtype=float),
            sigma_z=float(_require(m, "sigma_z", "model")),
            kappa=float(_require(m, "kappa", "model")),
            eta=np.asarray(_require(m, "eta", "model"), dtype=float),
            rho=float(_require(m, "rho", "model")),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model block: {exc}") from exc
    # the closed forms take eta as given while the simulator normalises it, so they agree only at |eta| = 1
    norm = float(np.linalg.norm(params.eta))
    if not abs(norm - 1.0) <= 1e-9:
        raise ConfigError(f"model.eta must have norm 1, got {params.eta.tolist()} (norm {norm!r})")
    return params


def _resolved(cfg: dict, seed: int | None) -> dict:
    out = dict(cfg)
    out["seed"] = seed
    return out


def _write_json(path: Path, payload: dict, cfg: dict, seed: int | None) -> None:
    payload = dict(payload)
    payload["config"] = _resolved(cfg, seed)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=_json_default)
    log.info("wrote %s", path)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return str(obj)


def cmd_solve(cfg: dict, seed: int | None, out: Path) -> int:
    params = _model_params(cfg)
    gamma = float(cfg.get("gamma", params.rho / params.d))
    grid_cfg = _known(cfg.get("grid", {}), "grid")
    y_max = float(grid_cfg.get("y_max", 10.0))
    step = float(grid_cfg.get("step", 0.01))

    sol = classical_solution(params)
    consts = exploratory_constants(params, gamma)
    pp = qlearn.PolicyParams.from_constants(consts)
    ys = np.arange(0.0, y_max + step / 2, step)
    u = sol.value(ys)
    v = consts.value(ys)

    payload = {
        "lambda": sol.lam,
        "alpha": derived_constants(params).alpha,
        "xi_star": consts.xi_star,
        "psi1_star": consts.psi1_star,
        "psi2_star": consts.psi2_star,
        "psi3_star": consts.psi3_star,
        "psi3_is_derived": True,
        "gamma": gamma,
        "max_abs_classical_hjb_residual": float(np.max(np.abs(sol.hjb_residual(ys)))),
        "max_abs_exploratory_hjb_residual": float(np.max(np.abs(consts.hjb_residual(ys)))),
    }
    _write_json(out / "constants.json", payload, cfg, seed)

    d = params.d
    u1 = sol.value_d1(ys)
    u2 = sol.value_d2(ys)

    def rows():
        for i, y in enumerate(ys):
            spec = qlearn.policy_from_q(pp, float(y))
            yield [y, u[i], u1[i], u2[i], v[i], *sol.policy(float(y)), *spec.mean, float(np.trace(spec.cov))]

    header = (["y", "u", "u_prime", "u_second", "v"] + [f"theta_star_{i+1}" for i in range(d)]
              + [f"policy_mean_{i+1}" for i in range(d)] + ["policy_var_scale"])
    sde._write_csv(out / "value_tables.csv", header, rows())
    _write_json(out / "value_tables.meta.json", {"rows": len(ys)}, cfg, seed)
    return 0


def cmd_simulate(cfg: dict, seed: int | None, out: Path) -> int:
    params = _model_params(cfg)
    sim = _known(_require(cfg, "simulate"), "simulate")
    gamma = float(sim.get("gamma", params.rho / params.d))
    scheme = sim.get("scheme", "episode")
    n_paths = int(sim.get("n_paths", 1))
    if n_paths < 0:
        raise ConfigError(f"simulate.n_paths is {n_paths}: it must be >= 0")
    y0 = float(sim.get("y0", 1.0))
    T, dt = _horizon(sim, "simulate")
    seed = 0 if seed is None else seed
    meta = {"config": _resolved(cfg, seed), "scheme": scheme, "n_paths": n_paths}

    summary: dict = {"scheme": scheme, "n_paths": n_paths}
    if scheme == "episode":
        pp = qlearn.PolicyParams.from_constants(exploratory_constants(params, gamma))
        mean_coef, cov_chol = pp.policy_coefficients()
        paths = sde.simulate_linear_gaussian_batch(params, mean_coef, cov_chol, n_paths, y0, T, dt, seed)
        summary["clamp_events"] = paths.clamp_events
    elif scheme == "aggregated":
        paths = sde.simulate_aggregated(params, gamma, y0, T, dt, n_paths, seed)
    else:
        raise ConfigError(f"unknown scheme {scheme!r}: give episode or aggregated "
                          "(aggregated paths are the Skorokhod map of ln(1+y) on the grid)")
    sde.export_paths_csv(paths, out / "paths.csv", out / "paths.meta.json", meta)
    if n_paths == 0:
        log.warning("n_paths = 0: writing empty output")
        _write_json(out / "summary.json", {"n_paths": 0, "warning": "no paths requested"}, cfg, seed)
        return 0
    summary["mean_terminal_state"] = float(paths.states[:, -1].mean())
    if scheme == "episode":
        summary["mean_local_time"] = float(paths.local_time[:, -1].mean())

    if sim.get("ks_check", False):
        from scipy.stats import ks_2samp

        y_euler = sde.aggregated_terminal_sample(params, gamma, y0, T, dt, n_paths, seed)
        h_oracle = sde.skorokhod_terminal_sample(
            params, gamma, math.log1p(y0), T, dt, n_paths, seed + 1
        )
        ks = ks_2samp(y_euler, np.expm1(h_oracle))
        summary["ks_check"] = {"statistic": float(ks.statistic), "pvalue": float(ks.pvalue)}
        log.info("KS oracle comparison: D=%.4f p=%.4f", ks.statistic, ks.pvalue)

    _write_json(out / "summary.json", summary, cfg, seed)
    return 0


def cmd_train(cfg: dict, seed: int | None, out: Path) -> int:
    params = _model_params(cfg)
    tr = _known(_require(cfg, "train"), "train")
    init = _known(tr.get("init", {}), "train.init")
    seed = int(tr.get("seed", 0)) if seed is None else seed
    T, dt = _horizon(tr, "train")
    gamma = float(tr.get("gamma", params.rho / params.d))

    start_episode, policy, sums = 1, None, None
    resume = tr.get("resume")
    if resume:
        if init:
            raise ConfigError("train.init has no effect on a resumed run, whose policy is the snapshot's; "
                              "remove init")
        snap = _snapshot(resume)
        if snap.get("gamma") is not None:  # a snapshot without gamma trains at the config's
            gamma = _learned_gamma(snap["gamma"], tr.get("gamma"), resume)
        start_episode = int(_require(snap, "episodes", resume)) + 1
        policy = _learned_params(_require(snap, "policy", resume), f"{resume} policy", gamma)
        A, b = (_require(snap, key, resume) for key in ("A", "b"))
        try:
            sums = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid running sums in {resume}: {exc}") from None
        p = 1 + params.d + params.d * (params.d + 1) // 2   # the entries of (c0, psi1, psi2 psi2')
        if policy.d != params.d or sums[0].shape != (p, p) or sums[1].shape != (p,):
            raise ConfigError(f"{resume} was not trained on a market of {params.d} assets")
        log.info("resuming from %s at episode %d", resume, start_episode)

    config = qlearn.LearnConfig(
        y0=float(tr.get("y0", 1.0)),
        T=T,
        dt=dt,
        n_episodes=int(_require(tr, "episodes", "train")),
        gamma=gamma,
        rho=params.rho,
        seed=seed,
        psi1_0=np.asarray(init["psi1"], dtype=float) if "psi1" in init else None,
        psi2_0=np.asarray(init["psi2"], dtype=float) if "psi2" in init else None,
        start_episode=start_episode,
    )
    history = qlearn.train(config, sde.Environment(params=params, dt=dt), policy, sums)
    history.to_csv(out / "history.csv")
    _write_json(out / "history.meta.json", {"rows": len(history.episodes)}, cfg, seed)
    _write_json(out / "learned.json", history.summary(), cfg, seed)
    return 0


def cmd_diagnose(cfg: dict, seed: int | None, out: Path) -> int:
    params = _model_params(cfg)
    dg = _known(_require(cfg, "diagnose"), "diagnose")
    sweep = dg.get("sweep")
    if sweep is not None:
        _known(sweep, "diagnose.sweep")
    seed = int(dg.get("seed", 0)) if seed is None else seed
    gamma = float(dg.get("gamma", params.rho / params.d))
    y0 = float(dg.get("y0", 1.0))
    n_paths = int(dg.get("n_paths", 1000))

    pp = qlearn.PolicyParams.from_constants(exploratory_constants(params, gamma))
    if "params" in dg:
        pp = _learned_params(dg["params"], "diagnose.params", gamma)

    payload: dict = {}
    if "T" in dg and "dt" in dg:
        T, dt = _horizon(dg, "diagnose")
        _check_paths(n_paths, "diagnose.n_paths")
        mean_coef, cov_chol = pp.policy_coefficients()
        blocks = sde.increment_blocks(params, mean_coef, cov_chol, n_paths, y0, T, dt, seed)
        stats = qlearn.orthogonality_stats(pp, blocks, params.rho)
        payload["orthogonality"] = stats.as_dict()
        payload["all_within_3_sigma"] = bool(np.all(np.abs(stats.z_scores()) < 3.0))
        shift = dg.get("xi_shift")
        if shift is not None:
            payload["xi_shift_control"] = stats.shifted(float(shift)).as_dict()

    if sweep is not None:
        dt_list = [float(x) for x in sweep.get("dt_list", [])]
        T_list = [float(x) for x in sweep.get("T_list", [])]
        sweep_paths = int(sweep.get("n_paths", n_paths))
        _check_paths(sweep_paths, "diagnose.sweep.n_paths")
        for dt in dt_list:
            for T in T_list:
                _check_horizon(T, dt, "diagnose.sweep")
        rows = qlearn.convergence_study(pp, params, dt_list, T_list, sweep_paths, y0, seed)
        payload["sweep"] = rows
        keys = ["dt", "T", "max_abs_mean", "tail_bound"]
        sde._write_csv(out / "sweep.csv", keys, ([r[k] for k in keys] for r in rows))

    if not payload:
        raise ConfigError("diagnose block requests nothing: give (T, dt) and/or sweep")
    _write_json(out / "diagnostics.json", payload, cfg, seed)
    return 0


def _check_paths(n_paths: int, where: str) -> None:
    if n_paths < 2:
        raise ConfigError(f"{where} is {n_paths}: a standard error needs at least 2 paths")


def _snapshot(path: str) -> dict:
    """The mapping that a learned.json snapshot holds."""
    try:
        with open(path) as fh:
            snap = json.load(fh)
    except ValueError as exc:   # not JSON, or not text
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not isinstance(snap, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return snap


def _learned_params(blk, where: str, gamma: float) -> qlearn.PolicyParams:
    """The learner parameters xi, psi1 and psi2 of a learned.json snapshot or a config block."""
    if not isinstance(blk, dict):
        raise ConfigError(f"{where} must be a mapping, got {blk!r}")
    xi, psi1, psi2 = (_require(blk, key, where) for key in ("xi", "psi1", "psi2"))
    try:
        return qlearn.PolicyParams(xi=float(xi), psi1=np.asarray(psi1, dtype=float),
                                   psi2=np.asarray(psi2, dtype=float), gamma=gamma)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from None


def _learned_gamma(snap_gamma, cfg_gamma, path: str) -> float:
    """The snapshot's temperature; the config's `gamma` may only repeat it.

    Snapshots written before train stored gamma need the config's value.
    """
    if snap_gamma is None and cfg_gamma is None:
        raise ConfigError(f"{path} stores no gamma and the config gives none")
    if snap_gamma is None:
        return float(cfg_gamma)
    if cfg_gamma is not None and not math.isclose(float(cfg_gamma), float(snap_gamma), rel_tol=1e-9):
        raise ConfigError(
            f"gamma {cfg_gamma} differs from the gamma {snap_gamma} "
            f"that {path} was trained at; remove it or make them agree"
        )
    return float(snap_gamma)


def _check_state(y: float) -> None:
    if y < 0.0:
        raise DomainError(f"state must be >= 0, got {y!r}")


def _strategy_from_cfg(blk, prices: bt.PriceSeries, rho: float, where: str = "strategy"):
    kind = _require(_known(blk, "strategy", where), "type", "strategy")
    name = blk.get("name", kind)
    if kind == "mle":
        frac = float(blk.get("train_fraction", 0.5))
        split = max(3, int(len(prices) * frac))
        dtbar = float(np.median(np.diff(prices.times)))
        est = baseline.mle_estimate(
            prices.assets[:split], prices.benchmark[:split], dtbar
        )
        log.info(
            "%s: mu_hat=%s sigma_z_hat=%.6f (first %d rows)",
            name, est.mu_hat, est.sigma_z_hat, split,
        )
        return name, baseline.classical_strategy(est, rho, float(blk.get("kappa", 1.0)))
    if kind == "classical":
        params = _model_params({"model": _require(blk, "model", "strategy")})
        sol = classical_solution(params)
        return name, sol.policy
    if kind == "learned":
        path = _require(blk, "params", "strategy")
        snap = _snapshot(path)
        pp = _learned_params(snap, path, _learned_gamma(snap.get("gamma"), blk.get("gamma"), path))
        execution = blk.get("execution", "mean")
        mean = pp.mean_coef   # the mean of policy_from_q at y = 0
        if execution == "mean":
            def strat(y):
                _check_state(y)
                return (1.0 + y) * mean
            return name, strat
        if execution == "sample":
            # the bar-by-bar multivariate_normal(policy mean, policy cov) draws: the normals in
            # the same order, and the SVD factor of the covariance at y = 0, which scales by 1 + y
            normals = np.random.default_rng(int(blk.get("sample_seed", 0))).standard_normal(
                (len(prices) - 1, pp.d))
            u, sv, _ = np.linalg.svd(pp.gamma * pp.precision)
            draws = iter(mean + normals @ (u * np.sqrt(sv)).T)   # one row per bar of one run
            def strat(y):
                _check_state(y)
                return (1.0 + y) * next(draws)
            return name, strat
        raise ConfigError(f"unknown execution mode {execution!r}")
    raise ConfigError(f"unknown strategy type {kind!r}")


def cmd_backtest(cfg: dict, seed: int | None, out: Path) -> int:
    blk = _known(_require(cfg, "backtest"), "backtest")
    v0 = float(_require(blk, "v0", "backtest"))
    rho = float(_require(blk, "rho", "backtest"))
    strategies = _require(blk, "strategies", "backtest")
    if not strategies:
        raise ConfigError("backtest.strategies is empty: give at least one strategy")
    baseline_index = int(blk.get("baseline_index", 0))
    if not 0 <= baseline_index < len(strategies):
        raise ConfigError(
            f"backtest.baseline_index is {baseline_index}: it must index the "
            f"{len(strategies)} strategies (0 to {len(strategies) - 1})"
        )
    prices = bt.load_prices(_require(blk, "prices", "backtest"))
    # every strategy is built before the first one runs, so a bad one writes nothing
    built = [_strategy_from_cfg(sblk, prices, rho, f"backtest.strategies[{i}]")
             for i, sblk in enumerate(strategies)]
    results = []
    for name, strat in built:
        res = bt.run_tracking(prices, strat, v0, rho, name=name)
        res.to_csv(out / f"backtest_{name}.csv")
        _write_json(out / f"backtest_{name}.meta.json", res.summary(), cfg, seed)
        results.append(res)
    report = bt.compare(results, baseline=baseline_index)
    _write_json(out / "comparison.json", report, cfg, seed)
    return 0


COMMANDS = {
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "train": cmd_train,
    "diagnose": cmd_diagnose,
    "backtest": cmd_backtest,
}


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:   # built on the first call to main, not at import
    parser = argparse.ArgumentParser(
        prog="benchtrack",
        description="Benchmark-tracking with capital injection: closed forms, "
        "simulation, q-learning, diagnostics and backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML/JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override RNG seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, args.seed, out)
    except (ConfigError, qlearn.SingularPsi2, qlearn.TooManyRejectedEpisodes, bt.ParseError, bt.ValidationError,
            NoBracket, baseline.InsufficientData, baseline.DegenerateSeries, baseline.NonPositivePrice) as exc:
        log.error("%s", exc)
        return 2
    except FileNotFoundError as exc:
        log.error("missing input file: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
