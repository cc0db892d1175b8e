"""Capital-injection tracking backtests on price series.

A strategy is a map from the normalized surplus y to a normalized
allocation; at each bar the dollar position is theta_t = Z_t * strategy(Y_t)
and wealth accrues simple returns.  Injection follows the running-supremum
rule: A_t = A_0 v sup_{s<=t}(Z_s - V_s) with A_0 = (z - v0)^+, the smallest
non-decreasing process keeping V_t + A_t >= Z_t at every observation.  The
state fed to the strategy is Y_t = (V_t + A_t - Z_t) / Z_t >= 0 and the
reported cost is the discounted total injection A_0 + sum e^{-rho t} dA_t.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime
from typing import Callable

import numpy as np

from .sde import _write_csv

__all__ = [
    "ParseError",
    "ValidationError",
    "MismatchedInputs",
    "PriceSeries",
    "BacktestResult",
    "load_prices",
    "run_tracking",
    "relative_difference",
    "compare",
]


class ParseError(ValueError):
    """Malformed input file."""


class ValidationError(ValueError):
    """Input rows violate the schema (positivity, ordering, completeness)."""


class MismatchedInputs(ValueError):
    """Results being compared were not produced from identical inputs."""


@dataclass(frozen=True)
class PriceSeries:
    """Aligned benchmark and asset price observations.

    times are elapsed units since the first observation (days for ISO-8601
    timestamps, raw values for numeric ones); both price blocks are
    strictly positive and timestamps strictly increasing.
    """

    times: np.ndarray       # (n,)
    benchmark: np.ndarray   # (n,)
    assets: np.ndarray      # (n, d)
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        n = len(self.times)
        if self.benchmark.shape != (n,) or self.assets.shape[0] != n:
            raise ValidationError("misaligned series lengths")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValidationError("timestamps must be strictly increasing")
        if np.any(self.benchmark <= 0.0) or np.any(self.assets <= 0.0):
            raise ValidationError("prices must be strictly positive")

    @property
    def d(self) -> int:
        return self.assets.shape[1]

    def __len__(self) -> int:
        return len(self.times)


def _parse_timestamp(raw: str, row: int):
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(raw)
    except ValueError as exc:
        raise ParseError(f"row {row}: cannot parse timestamp {raw!r}") from exc


def load_prices(path) -> PriceSeries:
    """Read a CSV with header `timestamp,benchmark,asset_1[,asset_2,...]`.

    ISO-8601 timestamps are converted to elapsed days since the first row;
    numeric timestamps are used as-is.  Rows with missing or non-positive
    values are rejected with their row number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "timestamp" or header[1] != "benchmark":
            raise ParseError(
                f"{path}: header must be timestamp,benchmark,asset_1[,...], got {header}"
            )
        d = len(header) - 2
        stamps, bench, assets = [], [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header) or any(c.strip() == "" for c in row):
                raise ValidationError(f"row {row_no}: missing values")
            stamps.append(_parse_timestamp(row[0], row_no))
            try:
                z = float(row[1])
                s = [float(c) for c in row[2:]]
            except ValueError as exc:
                raise ParseError(f"row {row_no}: non-numeric price") from exc
            if z <= 0.0 or any(x <= 0.0 for x in s):
                raise ValidationError(f"row {row_no}: non-positive price")
            bench.append(z)
            assets.append(s)
    if len(stamps) < 2:
        raise ValidationError(f"{path}: need at least 2 rows, got {len(stamps)}")
    if isinstance(stamps[0], datetime):
        if not all(isinstance(t, datetime) for t in stamps):
            raise ValidationError("mixed numeric and date timestamps")
        t0 = stamps[0]
        times = np.array([(t - t0).total_seconds() / 86400.0 for t in stamps])
    else:
        if not all(isinstance(t, float) for t in stamps):
            raise ValidationError("mixed numeric and date timestamps")
        times = np.array(stamps, dtype=float)
    return PriceSeries(
        times=times,
        benchmark=np.array(bench),
        assets=np.array(assets),
        labels=tuple(header[2:]),
    )


@dataclass(frozen=True)
class BacktestResult:
    """Wealth, injection and state paths of one tracking run."""

    name: str
    times: np.ndarray
    benchmark: np.ndarray
    wealth: np.ndarray        # V_t
    injection: np.ndarray     # A_t, non-decreasing, A_0 = (z - v0)^+
    state: np.ndarray         # Y_t = (V + A - Z)/Z >= 0
    actions: np.ndarray       # (n-1, d) dollar positions held over each bar
    rho: float
    v0: float

    @property
    def total_injection(self) -> float:
        return float(self.injection[-1])

    @property
    def discounted_cost(self) -> float:
        dA = np.diff(self.injection)
        return float(self.injection[0] + np.sum(np.exp(-self.rho * self.times[1:]) * dA))

    def to_csv(self, path) -> None:
        d = self.actions.shape[1]
        theta = np.vstack([self.actions, np.full((1, d), math.nan)])   # no position after the last bar
        rows = np.column_stack(
            [self.times, self.benchmark, self.wealth, self.injection, self.state, theta]
        ).tolist()
        _write_csv(path, ["t", "Z", "V", "A", "Y"] + [f"theta_{i+1}" for i in range(d)], rows)

    def summary(self) -> dict:
        return {
            "name": self.name,
            "total_injection": self.total_injection,
            "discounted_cost": self.discounted_cost,
            "final_wealth": float(self.wealth[-1]),
            "v0": self.v0,
            "rho": self.rho,
        }


def run_tracking(
    prices: PriceSeries,
    strategy: Callable[[float], np.ndarray],
    v0: float,
    rho: float,
    name: str = "strategy",
) -> BacktestResult:
    """Step the tracking rule through a price series.

    The strategy sees the normalized state and returns a normalized
    allocation; positions are scaled back by the benchmark level, wealth
    accrues simple per-bar returns, and injection tops the account up to
    the benchmark whenever it falls behind.  The state is clamped at 0:
    right after an injection, V + A - Z can round to a tiny negative number
    when V < 0.
    """
    if v0 < 0.0:
        raise ValueError(f"v0 must be >= 0, got {v0}")
    z = prices.benchmark.tolist()
    rel = np.diff(prices.assets, axis=0) / prices.assets[:-1]
    actions = np.empty((len(z) - 1, prices.d))
    w, a = float(v0), max(z[0] - v0, 0.0)
    wealth, injection, state = [w], [a], []
    for i, (z_i, z_next) in enumerate(zip(z, z[1:])):
        y = max((w + a - z_i) / z_i, 0.0)
        state.append(y)
        theta = z_i * np.atleast_1d(np.asarray(strategy(y), dtype=float))
        actions[i] = theta
        w += float(theta @ rel[i])
        a = max(a, z_next - w)
        wealth.append(w)
        injection.append(a)
    state.append(max((w + a - z[-1]) / z[-1], 0.0))
    return BacktestResult(
        name=name,
        times=prices.times.copy(),
        benchmark=prices.benchmark.copy(),
        wealth=np.array(wealth),
        injection=np.array(injection),
        state=np.array(state),
        actions=actions,
        rho=rho,
        v0=v0,
    )


def relative_difference(a: float, b: float) -> float:
    """(a - b) / b: the signed relative gap of a against the reference b."""
    if b == 0.0:
        raise ZeroDivisionError("reference value is zero")
    return (a - b) / b


def compare(results: list[BacktestResult], baseline: int = 0) -> dict:
    """Tabulate injection costs across strategies run on identical inputs.

    Relative differences are quoted against the result at index `baseline`.
    """
    if not results:
        raise MismatchedInputs("nothing to compare")
    ref = results[0]
    for r in results[1:]:
        if (
            len(r.times) != len(ref.times)
            or not np.allclose(r.times, ref.times)
            or not np.allclose(r.benchmark, ref.benchmark)
            or r.v0 != ref.v0
            or r.rho != ref.rho
        ):
            raise MismatchedInputs(
                f"{r.name!r} was not run on the same series/v0/rho as {ref.name!r}"
            )
    base = results[baseline]
    rows = []
    for r in results:
        rows.append(
            {
                "name": r.name,
                "total_injection": r.total_injection,
                "discounted_cost": r.discounted_cost,
                "total_injection_rel_diff": relative_difference(
                    r.total_injection, base.total_injection
                )
                if base.total_injection != 0.0
                else 0.0,
                "discounted_cost_rel_diff": relative_difference(
                    r.discounted_cost, base.discounted_cost
                )
                if base.discounted_cost != 0.0
                else 0.0,
            }
        )
    return {"baseline": base.name, "strategies": rows}
