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


def _whole(v) -> int:
    if not (isinstance(v, int) or float(v).is_integer()):
        raise ValueError(v)
    return v if isinstance(v, int) else int(float(v))


_NUMBER = (int, float, str)   # strings too: PyYAML reads an unquoted 1e4 as one
# Each kind of config value: what it must be, the types it may come as (a bool is no number), and the
# converter to what the commands read, which raises TypeError or ValueError; an int takes integral values only.
# A kind may carry one of BOUNDS after a space ("float > 0"), a test of the converted value.
KINDS = {
    "float": ("a number", _NUMBER, float),
    "int": ("a whole number", _NUMBER, _whole),
    "bool": ("true or false", (bool,), bool),
    "str": ("a string", (str,), str),
    "vector": ("a number or a list of numbers", _NUMBER + (list,), lambda v: np.asarray(v, dtype=float)),
    "matrix": ("a matrix of numbers", _NUMBER + (list,), lambda v: np.asarray(v, dtype=float)),
    "mapping": ("a mapping", (dict,), dict),
    "list": ("a list", (list,), list),
    "floats": ("a list of numbers", (list,), lambda v: [float(x) for x in v]),
}
BOUNDS = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1}
REQUIRED = object()   # the default of a key that must be given

# Every key that a command reads, per config block, with its kind (one of KINDS, maybe bounded, or a block
# nested here) and default.  A key outside its block's table or a value of the wrong kind or out of bounds
# exits 2 naming block.key, so a misspelt or retired option fails instead of being ignored, and an impossible
# value instead of ending in a traceback.  A null value counts as absent.  Each strategy
# type (mle, classical, learned) has its own table; cmd_diagnose refuses a lone T or dt.  The OPEN_BLOCKS may
# carry other keys: the top level of solve's config, the type that picks a strategy's table, and learned
# snapshots (a resumed one's, or the xi, psi1, psi2 and gamma of a learned strategy or diagnose.params).
_STRATEGY = {"type": ("str", REQUIRED), "name": ("str", None)}
CONFIG_KEYS = {
    "model": {"mu": ("vector", REQUIRED), "sigma": ("matrix", REQUIRED), "sigma_z": ("float", REQUIRED),
              "kappa": ("float", REQUIRED), "eta": ("vector", REQUIRED), "rho": ("float", REQUIRED)},
    "grid": {"y_max": ("float >= 0", 10.0), "step": ("float > 0", 0.01)},
    "simulate": {"gamma": ("float > 0", None), "scheme": ("str", "episode"), "n_paths": ("int >= 0", 1),
                 "y0": ("float >= 0", 1.0), "T": ("float", REQUIRED), "dt": ("float", REQUIRED),
                 "ks_check": ("bool", False)},
    "train": {"seed": ("int", 0), "T": ("float", REQUIRED), "dt": ("float", REQUIRED), "y0": ("float >= 0", None),
              "episodes": ("int >= 1", REQUIRED), "gamma": ("float > 0", None), "resume": ("str", None),
              "init": ("train.init", {})},
    "train.init": {"psi1": ("vector", None), "psi2": ("matrix", None)},
    "diagnose": {"seed": ("int", 0), "gamma": ("float > 0", None), "y0": ("float >= 0", 1.0), "n_paths": ("int", 1000),
                 "params": ("learned", None), "T": ("float", None), "dt": ("float", None),
                 "xi_shift": ("float", None), "sweep": ("diagnose.sweep", None)},
    "diagnose.sweep": {"dt_list": ("floats", []), "T_list": ("floats", []), "n_paths": ("int", None)},
    "backtest": {"prices": ("str", REQUIRED), "v0": ("float >= 0", REQUIRED), "rho": ("float > 0", REQUIRED),
                 "strategies": ("list", REQUIRED), "baseline_index": ("int", 0)},
    "strategy.mle": {**_STRATEGY, "train_fraction": ("float", 0.5), "kappa": ("float", 1.0)},
    "strategy.classical": {**_STRATEGY, "model": ("mapping", REQUIRED)},
    "strategy.learned": {**_STRATEGY, "params": ("str", REQUIRED), "gamma": ("float > 0", None),
                         "execution": ("str", "mean"), "sample_seed": ("int >= 0", 0)},
    "config": {"gamma": ("float > 0", None)},
    "strategy": {"type": ("str", REQUIRED)},
    "learned": {"xi": ("float", REQUIRED), "psi1": ("vector", REQUIRED), "psi2": ("matrix", REQUIRED),
                "gamma": ("float > 0", None)},
    "resume": {"episodes": ("int", REQUIRED), "gamma": ("float > 0", None), "policy": ("learned", REQUIRED),
               "A": ("matrix", REQUIRED), "b": ("vector", REQUIRED)},
}
OPEN_BLOCKS = {"config", "strategy", "learned", "resume"}


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


def _known(blk, block: str, where: str | None = None) -> dict:
    """Each key of CONFIG_KEYS[block], converted from blk or defaulted; where names blk in errors.

    blk must be a mapping, with no key outside the table unless the block is one of OPEN_BLOCKS.
    """
    where = where or block
    if not isinstance(blk, dict):
        raise ConfigError(f"{where} must be a mapping, got {blk!r}")
    table = CONFIG_KEYS[block]
    for key in blk:
        if key not in table and block not in OPEN_BLOCKS:
            raise ConfigError(f"{where} has unknown key {key!r}: it reads only {', '.join(sorted(table))}")
    return {key: _value(blk.get(key), kind, default, where, key) for key, (kind, default) in table.items()}


def _value(value, kind: str, default, where: str, key: str):
    """The value of where.key, or its default if value is None, converted to its kind and checked against its bound."""
    if value is None:
        if default is REQUIRED:
            raise ConfigError(f"{where} is missing required key {key!r}")
        value = default
    if value is None:
        return None
    if kind in CONFIG_KEYS:   # a nested block
        return _known(value, kind, f"{where}.{key}")
    kind, _, bound = kind.partition(" ")
    what, types, convert = KINDS[kind]
    try:
        if type(value) not in types:
            raise TypeError(value)
        converted = convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}.{key} must be {what}, got {value!r}") from None
    if bound and not BOUNDS[bound](converted):
        raise ConfigError(f"{where}.{key} is {value!r}: it must be {bound}")
    return converted


def _check_horizon(T: float, dt: float, where: str) -> None:
    try:
        sde.grid_steps(T, dt)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _model_params(cfg: dict) -> ModelParams:
    m = _known(cfg.get("model"), "model")
    try:
        return ModelParams(**m)
    except ValueError as exc:   # values of the right kinds that the model refuses, such as sigma_z <= 0 or |eta| != 1
        raise ConfigError(f"invalid model block: {exc}") from None


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
    gamma = _known(cfg, "config")["gamma"]
    gamma = params.rho / params.d if gamma is None else gamma
    grid = _known(cfg.get("grid", {}), "grid")

    sol = classical_solution(params)
    consts = exploratory_constants(params, gamma)
    pp = qlearn.PolicyParams.from_constants(consts)
    ys = np.arange(0.0, grid["y_max"] + grid["step"] / 2, grid["step"])
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
    sim = _known(cfg.get("simulate"), "simulate")
    gamma = params.rho / params.d if sim["gamma"] is None else sim["gamma"]
    scheme, n_paths, y0, T, dt = (sim[key] for key in ("scheme", "n_paths", "y0", "T", "dt"))
    _check_horizon(T, dt, "simulate")
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

    if sim["ks_check"]:
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
    tr = _known(cfg.get("train"), "train")
    init = tr["init"]
    seed = tr["seed"] if seed is None else seed
    _check_horizon(tr["T"], tr["dt"], "train")
    gamma = params.rho / params.d if tr["gamma"] is None else tr["gamma"]

    start_episode, policy, sums = 1, None, None
    resume = tr["resume"]
    if resume:
        if any(value is not None for value in init.values()):
            raise ConfigError("train.init has no effect on a resumed run, whose policy is the snapshot's; "
                              "remove init")
        snap = _known(_snapshot(resume), "resume", resume)
        if snap["gamma"] is not None:  # a snapshot without gamma trains at the config's
            gamma = _learned_gamma(snap["gamma"], tr["gamma"], resume)
        start_episode = snap["episodes"] + 1
        policy = _learned_params(snap["policy"], f"{resume}.policy", gamma)
        sums = snap["A"], snap["b"]
        p = 1 + params.d + params.d * (params.d + 1) // 2   # the entries of (c0, psi1, psi2 psi2')
        if policy.d != params.d or sums[0].shape != (p, p) or sums[1].shape != (p,):
            raise ConfigError(f"{resume} was not trained on a market of {params.d} assets")
        log.info("resuming from %s at episode %d", resume, start_episode)

    if tr["y0"] is not None:
        log.warning("train.y0 has no effect: train reads only the relative actions and the steps of ln(1 + y), "
                    "which do not depend on the start")
    config = qlearn.LearnConfig(T=tr["T"], dt=tr["dt"], n_episodes=tr["episodes"], gamma=gamma, seed=seed,
                                psi1_0=init["psi1"], psi2_0=init["psi2"], start_episode=start_episode)
    if policy is None:
        try:   # psi1 and psi2 of different sizes, a psi2 psi2' that is not finite, or gamma <= 0
            policy = config.initial_params(params.d)
        except ValueError as exc:
            raise ConfigError(f"invalid train.init: {exc}") from None
        if policy.d != params.d:
            raise ConfigError(f"train.init is a policy on {policy.d} assets for a market of {params.d}")
    history = qlearn.train(config, params, policy, sums)
    history.to_csv(out / "history.csv")
    _write_json(out / "history.meta.json", {"rows": len(history.episodes)}, cfg, seed)
    _write_json(out / "learned.json", history.summary(), cfg, seed)
    return 0


def cmd_diagnose(cfg: dict, seed: int | None, out: Path) -> int:
    params = _model_params(cfg)
    dg = _known(cfg.get("diagnose"), "diagnose")
    seed = dg["seed"] if seed is None else seed
    gamma = params.rho / params.d if dg["gamma"] is None else dg["gamma"]
    y0, n_paths, T, dt, sweep = (dg[key] for key in ("y0", "n_paths", "T", "dt", "sweep"))
    if (T is None) != (dt is None):
        raise ConfigError("diagnose.T and diagnose.dt go together: give both, or neither for a sweep alone")
    if T is None and dg["xi_shift"] is not None:
        raise ConfigError("diagnose.xi_shift shifts the (T, dt) diagnostics: give diagnose.T and diagnose.dt")

    if dg["params"] is None:
        pp = qlearn.PolicyParams.from_constants(exploratory_constants(params, gamma))
    else:
        if dg["params"]["gamma"] is not None:   # params without gamma are drawn at the config's
            gamma = _learned_gamma(dg["params"]["gamma"], dg["gamma"], "diagnose.params")
        pp = _learned_params(dg["params"], "diagnose.params", gamma)
        if pp.d != params.d:
            raise ConfigError(f"diagnose.params is a policy on {pp.d} assets for a market of {params.d}")

    payload: dict = {}
    if T is not None:
        _check_horizon(T, dt, "diagnose")
        _check_paths(n_paths, "diagnose.n_paths")
        mean_coef, cov_chol = pp.policy_coefficients()
        blocks = sde.increment_blocks(params, mean_coef, cov_chol, n_paths, T, dt, seed)
        stats = qlearn.orthogonality_stats(pp, blocks, params.rho)
        payload["orthogonality"] = stats.as_dict()
        payload["all_within_3_sigma"] = bool(np.all(np.abs(stats.z_scores()) < 3.0))
        if dg["xi_shift"] is not None:
            payload["xi_shift_control"] = stats.shifted(dg["xi_shift"]).as_dict()

    if sweep is not None:
        sweep_paths = n_paths if sweep["n_paths"] is None else sweep["n_paths"]
        _check_paths(sweep_paths, "diagnose.sweep.n_paths")
        for dt in sweep["dt_list"]:
            for T in sweep["T_list"]:
                _check_horizon(T, dt, "diagnose.sweep")
        rows = qlearn.convergence_study(pp, params, sweep["dt_list"], sweep["T_list"], sweep_paths, y0, seed)
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


def _learned_params(p: dict, where: str, gamma: float) -> qlearn.PolicyParams:
    """The policy of the learner parameters xi, psi1 and psi2 that _known read from a snapshot or config block."""
    try:
        return qlearn.PolicyParams(xi=p["xi"], psi1=p["psi1"], psi2=p["psi2"], gamma=gamma)
    except ValueError as exc:   # psi2 is not d x d, psi2 psi2' is not finite, or gamma <= 0
        raise ConfigError(f"invalid {where}: {exc}") from None


def _learned_gamma(snap_gamma, cfg_gamma, path: str) -> float:
    """The snapshot's temperature, which the config's `gamma` may only repeat, or the config's if it stores none."""
    if snap_gamma is None and cfg_gamma is None:
        raise ConfigError(f"{path} stores no gamma and the config gives none")
    if None not in (snap_gamma, cfg_gamma) and not math.isclose(cfg_gamma, snap_gamma, rel_tol=1e-9):
        raise ConfigError(f"gamma {cfg_gamma} differs from the gamma {snap_gamma} that {path} was trained at; "
                          "remove it or make them agree")
    return cfg_gamma if snap_gamma is None else snap_gamma


def _check_state(y: float) -> None:
    if y < 0.0:
        raise DomainError(f"state must be >= 0, got {y!r}")


def _strategy_from_cfg(blk, prices: bt.PriceSeries, rho: float, where: str = "strategy"):
    kind = _known(blk, "strategy", where)["type"]
    if f"strategy.{kind}" not in CONFIG_KEYS:
        raise ConfigError(f"unknown strategy type {kind!r}")
    s = _known(blk, f"strategy.{kind}", where)
    name = kind if s["name"] is None else s["name"]
    if kind == "mle":
        split = max(3, int(len(prices) * s["train_fraction"]))
        dtbar = float(np.median(np.diff(prices.times)))
        est = baseline.mle_estimate(prices.assets[:split], prices.benchmark[:split], dtbar)
        log.info("%s: mu_hat=%s sigma_z_hat=%.6f (first %d rows)", name, est.mu_hat, est.sigma_z_hat, split)
        return name, baseline.classical_strategy(est, rho, s["kappa"])
    if kind == "classical":
        params = _model_params(s)
        if params.d != prices.d:
            raise ConfigError(f"{where}: its model is a market of {params.d} assets for a price file of {prices.d}")
        return name, classical_solution(params).policy
    if kind == "learned":
        path, execution = s["params"], s["execution"]
        snap = _known(_snapshot(path), "learned", path)
        pp = _learned_params(snap, path, _learned_gamma(snap["gamma"], s["gamma"], path))
        if pp.d != prices.d:
            raise ConfigError(f"{where}: {path} is a policy on {pp.d} assets for a price file of {prices.d}")
        mean = pp.mean_coef   # the mean of policy_from_q at y = 0
        if execution == "mean":
            def strat(y):
                _check_state(y)
                return (1.0 + y) * mean
            return name, strat
        if execution == "sample":
            # the bar-by-bar multivariate_normal(policy mean, policy cov) draws: the normals in
            # the same order, and the SVD factor of the covariance at y = 0, which scales by 1 + y
            normals = np.random.default_rng(s["sample_seed"]).standard_normal(
                (len(prices) - 1, pp.d))
            u, sv, _ = np.linalg.svd(pp.gamma * pp.precision)
            draws = iter(mean + normals @ (u * np.sqrt(sv)).T)   # one row per bar of one run
            def strat(y):
                _check_state(y)
                return (1.0 + y) * next(draws)
            return name, strat
        raise ConfigError(f"unknown execution mode {execution!r}")


def cmd_backtest(cfg: dict, seed: int | None, out: Path) -> int:
    blk = _known(cfg.get("backtest"), "backtest")
    v0, rho, strategies, baseline_index = (blk[key] for key in ("v0", "rho", "strategies", "baseline_index"))
    if not strategies:
        raise ConfigError("backtest.strategies is empty: give at least one strategy")
    if not 0 <= baseline_index < len(strategies):
        raise ConfigError(f"backtest.baseline_index is {baseline_index}: it must index the "
                          f"{len(strategies)} strategies (0 to {len(strategies) - 1})")
    prices = bt.load_prices(blk["prices"])
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
    except (ConfigError, qlearn.SingularPsi2, qlearn.TooManyRejectedEpisodes, sde.NonFinite, sde.InvalidVariance,
            bt.ParseError, bt.ValidationError, NoBracket, baseline.InsufficientData, baseline.DegenerateSeries,
            baseline.NonPositivePrice) as exc:
        log.error("%s", exc)
        return 2
    except FileNotFoundError as exc:
        log.error("missing input file: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
