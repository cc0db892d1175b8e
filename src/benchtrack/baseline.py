"""Maximum-likelihood parameter estimation and the classical comparison strategy.

Asset prices are treated as geometric Brownian motions observed on a uniform
grid; the benchmark is a zero-drift GBM, so only its volatility is
estimated.  Estimates follow the log-return convention: for log-returns
r_i over step dt,

    sigma_hat^2 = Var(r) / dt        (MLE, 1/n normalisation)
    mu_hat      = mean(r) / dt + sigma_hat^2 / 2 .

The resulting strategy plugs the estimates into the closed-form feedback
rule with the independence assumption kappa = 1, under which the hedging
term drops out and the allocation is (1 - lam) (1 + y) (sigma sigma')^-1 mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ModelParams, classical_solution

__all__ = [
    "InsufficientData",
    "NonPositivePrice",
    "DegenerateSeries",
    "MleEstimate",
    "mle_estimate",
    "classical_strategy",
]


class InsufficientData(ValueError):
    """Fewer observations than the estimator needs."""


class NonPositivePrice(ValueError):
    """Price series must be strictly positive to take log-returns."""


class DegenerateSeries(ValueError):
    """Zero sample variance; the diffusion scale is unidentifiable."""


@dataclass(frozen=True)
class MleEstimate:
    """Per-unit-time drift/volatility estimates from price series."""

    mu_hat: np.ndarray       # (d,)
    sigma_hat: np.ndarray    # (d, d), Cholesky factor of the return covariance
    sigma_z_hat: float
    dt: float

    @property
    def d(self) -> int:
        return self.mu_hat.shape[0]


def _log_returns(prices: np.ndarray, name: str) -> np.ndarray:
    prices = np.asarray(prices, dtype=float)
    if np.any(prices <= 0.0) or not np.all(np.isfinite(prices)):
        raise NonPositivePrice(f"{name} prices must be finite and > 0")
    return np.diff(np.log(prices), axis=0)


def mle_estimate(asset_prices, benchmark_prices, dt: float) -> MleEstimate:
    """Estimate (mu, sigma) for the assets and sigma_z for the benchmark.

    asset_prices: (n,) or (n, d) strictly positive levels on a uniform grid
    of step dt.  The benchmark volatility is fitted variance-only since its
    model drift is pinned at zero; estimating a drift there would bias the
    downstream root solve.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    assets = np.asarray(asset_prices, dtype=float)
    if assets.ndim == 1:
        assets = assets[:, None]
    bench = np.asarray(benchmark_prices, dtype=float)
    if len(assets) != len(bench):
        raise InsufficientData("asset and benchmark series must be aligned")
    if len(assets) < 3:
        raise InsufficientData(f"need at least 3 observations, got {len(assets)}")
    r = _log_returns(assets, "asset")
    rz = _log_returns(bench, "benchmark")
    cov = np.cov(r, rowvar=False, ddof=0)
    cov = np.atleast_2d(cov)
    var_z = float(np.var(rz, ddof=0))
    if var_z <= 0.0 or np.any(np.diag(cov) <= 0.0):
        raise DegenerateSeries("constant price series; volatility is zero")
    sigma_hat = np.linalg.cholesky(cov / dt)
    mu_hat = r.mean(axis=0) / dt + 0.5 * np.diag(cov) / dt
    return MleEstimate(
        mu_hat=mu_hat,
        sigma_hat=sigma_hat,
        sigma_z_hat=float(np.sqrt(var_z / dt)),
        dt=dt,
    )


def classical_strategy(
    est: MleEstimate, rho: float, kappa_assumption: float = 1.0
) -> Callable[[float], np.ndarray]:
    """Closed-form feedback rule built from MLE estimates.

    Returns a closure y -> normalized allocation.  The default kappa = 1
    treats the benchmark driver as pure unhedgeable noise plus nothing
    spanned by the assets, which removes the eta term entirely.  Under
    another kappa the benchmark loads equally on every asset driver through
    the unit vector eta = (1, ..., 1) / sqrt(d).
    """
    params = ModelParams(
        mu=est.mu_hat,
        sigma=est.sigma_hat,
        sigma_z=est.sigma_z_hat,
        kappa=kappa_assumption,
        eta=np.ones(est.d) / np.sqrt(est.d),
        rho=rho,
    )
    sol = classical_solution(params)
    return sol.policy
