"""Closed-form solutions for benchmark tracking with capital injection.

The market has ``d`` risky assets with return vector ``mu`` and volatility
matrix ``sigma``; the benchmark is a zero-drift geometric Brownian motion
with volatility ``sigma_z`` whose driver correlates with the asset noise
through ``kappa`` and the unit weight vector ``eta``.  After normalising the
injection-compensated surplus by the benchmark, the control problem reduces
to a one-dimensional reflected state ``y >= 0`` whose HJB equation with
Neumann condition ``u'(0) = 1`` is solved in closed form:

    u(y) = ((lam - 1) / lam) * (1 + y)^(lam / (lam - 1)) ,

where ``lam`` in (0, 1) is the unique root of a quartic-like polynomial in
the constants ``alpha = mu' (sigma sigma')^-1 mu / 2`` and
``zeta = sigma_z eta' sigma^-1 mu``.

The entropy-regularised (exploratory) variant admits an equally explicit
solution when the temperature equals ``rho / d``:

    v(y) = ln(1 + y) + xi_star ,

with a Gaussian optimal policy whose mean is linear and whose covariance is
quadratic in ``1 + y``.  This module houses those formulas, their
derivatives, the constants (xi*, psi1*, psi2*, psi3*) of the exact
q-function, and residual evaluators used to verify both HJB equations
numerically.  The q-function itself and its Gibbs policy are evaluated by
``qlearn.q_value`` and ``qlearn.policy_from_q`` at
``qlearn.PolicyParams.from_constants(...)``, the one formula that the
closed form, the learner and the diagnostics share.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "DomainError",
    "NoBracket",
    "InvalidGamma",
    "ModelParams",
    "DerivedConstants",
    "ClassicalSolution",
    "ExploratoryConstants",
    "derived_constants",
    "lambda_polynomial",
    "solve_lambda",
    "classical_solution",
    "exploratory_constants",
    "psi3_consistency",
    "gibbs_psi3",
]

COND_GUARD = 1e12


class DomainError(ValueError):
    """Input outside the state domain (e.g. negative surplus y)."""


class NoBracket(ValueError):
    """The root polynomial does not change sign on (0, 1); kappa = 0 case."""


class InvalidGamma(ValueError):
    """Temperature must be strictly positive."""


def _as_state(y):
    """Validate y >= 0 and return it as a float or float array."""
    if type(y) is float:   # a backtest asks at every bar
        if y < 0.0:
            raise DomainError(f"state must be >= 0, got {y!r}")
        return y
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError(f"state must be >= 0, got {y!r}")
    return arr if arr.ndim else float(arr)


@dataclass(frozen=True)
class ModelParams:
    """Market and benchmark coefficients.

    mu, sigma are per unit time; eta weighs the asset Brownian motions in
    the benchmark driver kappa W0 + sqrt(1 - kappa^2) eta'W, which is a
    standard Brownian motion only when |eta| = 1, so any other norm (beyond
    1e-9) is refused: the closed forms and the simulator then agree.
    """

    mu: np.ndarray
    sigma: np.ndarray
    sigma_z: float
    kappa: float
    eta: np.ndarray
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "mu", np.atleast_1d(np.asarray(self.mu, dtype=float)))
        object.__setattr__(self, "sigma", np.atleast_2d(np.asarray(self.sigma, dtype=float)))
        object.__setattr__(self, "eta", np.atleast_1d(np.asarray(self.eta, dtype=float)))
        d = self.mu.shape[0]
        if self.sigma.shape != (d, d):
            raise ValueError(f"sigma must be ({d},{d}), got {self.sigma.shape}")
        if self.eta.shape != (d,):
            raise ValueError(f"eta must be ({d},), got {self.eta.shape}")
        if not np.all(np.isfinite(self.mu)) or not np.all(np.isfinite(self.sigma)):
            raise ValueError("mu and sigma must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(self.sigma_sigma_t)):
                raise ValueError("sigma sigma' must be finite: sigma's entries are too large")
        if np.all(self.mu == 0.0):
            raise ValueError("mu must be nonzero")
        if not (self.sigma_z > 0.0):
            raise ValueError(f"sigma_z must be > 0, got {self.sigma_z}")
        if not (self.rho > 0.0):
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if abs(self.kappa) > 1.0:
            raise ValueError(f"kappa must lie in [-1, 1], got {self.kappa}")
        eta_norm = float(np.linalg.norm(self.eta))
        if not abs(eta_norm - 1.0) <= 1e-9:
            raise ValueError(f"eta must have norm 1, got {self.eta.tolist()} (norm {eta_norm!r})")
        if np.linalg.cond(self.sigma) > COND_GUARD:
            raise ValueError("sigma is singular or too ill-conditioned")

    @property
    def d(self) -> int:
        return self.mu.shape[0]

    @property
    def sigma_sigma_t(self) -> np.ndarray:
        return self.sigma @ self.sigma.T


@dataclass(frozen=True)
class DerivedConstants:
    """alpha = mu'(sigma sigma')^-1 mu / 2 and zeta = sigma_z eta' sigma^-1 mu."""

    alpha: float
    zeta: float


def derived_constants(params: ModelParams) -> DerivedConstants:
    ssT = params.sigma_sigma_t
    alpha = 0.5 * float(params.mu @ np.linalg.solve(ssT, params.mu))
    zeta = params.sigma_z * float(params.eta @ np.linalg.solve(params.sigma, params.mu))
    return DerivedConstants(alpha=alpha, zeta=zeta)


def lambda_polynomial(params: ModelParams, lam) -> float:
    """Root equation whose unique zero in (0, 1) pins the classical solution.

    ell(0) = rho > 0 and ell(1) = -kappa^2 sigma_z^2 / 2, so a sign change
    on (0, 1) is guaranteed whenever kappa != 0.
    """
    c = derived_constants(params)
    root_term = math.sqrt(1.0 - params.kappa**2) * c.zeta
    lam = np.asarray(lam, dtype=float)
    out = (
        c.alpha * lam * (lam - 1.0) ** 2
        + params.rho * (lam - 1.0) ** 2
        - root_term * lam * (lam - 1.0)
        - 0.5 * params.kappa**2 * params.sigma_z**2 * lam
    )
    return out if out.ndim else float(out)


def solve_lambda(params: ModelParams) -> float:
    """Bracketed Brent solve of the root equation on (0, 1).

    Raises NoBracket when kappa = 0 (the polynomial no longer crosses zero
    and the closed form as stated does not apply).
    """
    # imported here: scipy.optimize is most of the package's import time
    from scipy.optimize import brentq

    lo, hi = 1e-12, 1.0 - 1e-12
    f_hi = lambda_polynomial(params, 1.0)
    if f_hi >= 0.0 or lambda_polynomial(params, hi) >= 0.0:
        raise NoBracket(
            "no sign change on (0, 1); the closed form requires kappa != 0"
        )
    lam = float(brentq(lambda x: lambda_polynomial(params, x), lo, hi, xtol=1e-15, rtol=8.9e-16))
    if not (0.0 < lam < 1.0):
        raise NoBracket(f"root {lam} escaped (0, 1)")
    return lam


@dataclass(frozen=True)
class ClassicalSolution:
    """Value function and feedback rule of the full-information problem."""

    lam: float
    params: ModelParams

    def value(self, y):
        """u(y) = ((lam-1)/lam) (1+y)^(lam/(lam-1)); u'(0) = 1, u'' < 0."""
        y = _as_state(y)
        lam = self.lam
        return (lam - 1.0) / lam * (1.0 + y) ** (lam / (lam - 1.0))

    def value_d1(self, y):
        y = _as_state(y)
        return (1.0 + y) ** (1.0 / (self.lam - 1.0))

    def value_d2(self, y):
        y = _as_state(y)
        lam = self.lam
        return (1.0 + y) ** ((2.0 - lam) / (lam - 1.0)) / (lam - 1.0)

    @cached_property
    def policy_coef(self) -> np.ndarray:
        """(1-lam)(sigma sigma')^-1 mu + sqrt(1-kappa^2) sigma_z (sigma sigma')^-1 sigma eta.

        Computed once per instance; the returned array may not be changed in place.
        """
        p = self.params
        ssT = p.sigma_sigma_t
        base = (1.0 - self.lam) * np.linalg.solve(ssT, p.mu)
        hedge = (
            math.sqrt(1.0 - p.kappa**2)
            * p.sigma_z
            * np.linalg.solve(ssT, p.sigma @ p.eta)
        )
        return base + hedge

    def policy(self, y) -> np.ndarray:
        """Optimal normalized allocation at a single state; linear in (1 + y)."""
        y = float(_as_state(y))
        return (1.0 + y) * self.policy_coef

    def hjb_residual(self, y):
        """Residual of the reduced HJB equation; ~0 at the solved lam."""
        y = _as_state(y)
        p = self.params
        c = derived_constants(p)
        u1 = self.value_d1(y)
        u2 = self.value_d2(y)
        return (
            -c.alpha * u1**2 / u2
            + math.sqrt(1.0 - p.kappa**2) * c.zeta * (1.0 + y) * u1
            + 0.5 * p.sigma_z**2 * p.kappa**2 * (1.0 + y) ** 2 * u2
            - p.rho * self.value(y)
        )


def classical_solution(params: ModelParams) -> ClassicalSolution:
    return ClassicalSolution(lam=solve_lambda(params), params=params)


def psi3_consistency(psi1: np.ndarray, psi2: np.ndarray, gamma: float) -> float:
    """Constant pinned by the Gibbs normalization of the quadratic q-function.

    psi3 = -psi1'(psi2 psi2')^-1 psi1 / 2 - (gamma/2) ln((2 pi gamma)^d / det(psi2 psi2')).
    """
    psi1 = np.atleast_1d(np.asarray(psi1, dtype=float))
    psi2 = np.atleast_2d(np.asarray(psi2, dtype=float))
    ppT = psi2 @ psi2.T
    return gibbs_psi3(float(psi1 @ np.linalg.solve(ppT, psi1)), float(np.linalg.slogdet(ppT)[1]),
                      psi1.shape[0], gamma)


def gibbs_psi3(quad: float, logdet: float, d: int, gamma: float) -> float:
    """psi3_consistency from quad = psi1'(psi2 psi2')^-1 psi1 and logdet = ln det(psi2 psi2')."""
    return -0.5 * quad - 0.5 * gamma * (d * math.log(2.0 * math.pi * gamma) - logdet)


@dataclass(frozen=True)
class ExploratoryConstants:
    """Explicit solution of the entropy-regularised problem at gamma = rho/d.

    psi3_star is never free: it is pinned by the normalization constraint
    through (psi1_star, psi2_star, gamma).  The q-function and the Gaussian
    policy of this solution are qlearn.q_value and qlearn.policy_from_q at
    qlearn.PolicyParams.from_constants(...).
    """

    gamma: float
    xi_star: float
    psi1_star: np.ndarray
    psi2_star: np.ndarray
    psi3_star: float
    params: ModelParams = field(repr=False)

    def value(self, y):
        """v(y) = ln(1 + y) + xi_star; Neumann condition v'(0) = 1."""
        y = _as_state(y)
        return np.log1p(y) + self.xi_star

    def value_d1(self, y):
        y = _as_state(y)
        return 1.0 / (1.0 + y)

    def value_d2(self, y):
        y = _as_state(y)
        return -1.0 / (1.0 + y) ** 2

    def hjb_residual(self, y):
        """Residual of the exploratory HJB equation; ~0 when gamma = rho/d."""
        y = _as_state(y)
        p = self.params
        c = derived_constants(p)
        v1 = self.value_d1(y)
        v2 = self.value_d2(y)
        d = p.d
        logdet = float(np.linalg.slogdet(p.sigma_sigma_t)[1])
        # ln(-v'') = -2 ln(1+y); keeping it in log1p form lets the growth in y
        # cancel against the discounting term instead of overflowing
        entropy_term = 0.5 * self.gamma * (
            d * math.log(2.0 * math.pi * self.gamma) - logdet + 2.0 * d * np.log1p(y)
        )
        return (
            0.5 * p.sigma_z**2 * p.kappa**2 * (1.0 + y) ** 2 * v2
            + math.sqrt(1.0 - p.kappa**2) * c.zeta * (1.0 + y) * v1
            + entropy_term
            - c.alpha * v1**2 / v2
            - p.rho * self.value(y)
        )


def exploratory_constants(params: ModelParams, gamma: float) -> ExploratoryConstants:
    """Build the explicit exploratory solution constants.

    The closed form is exact only at gamma = rho/d; other temperatures are
    accepted (for residual experiments) but warned about.
    """
    if not (gamma > 0.0):
        raise InvalidGamma(f"gamma must be > 0, got {gamma}")
    if not math.isclose(gamma, params.rho / params.d, rel_tol=1e-12, abs_tol=0.0):
        warnings.warn(
            "explicit exploratory solution only holds at gamma = rho/d; "
            f"got gamma={gamma}, rho/d={params.rho / params.d}",
            stacklevel=2,
        )
    c = derived_constants(params)
    d = params.d
    logdet = float(np.linalg.slogdet(params.sigma_sigma_t)[1])
    log_term = d * math.log(2.0 * math.pi * gamma) - logdet
    xi_star = (
        -0.5 * params.sigma_z**2 * params.kappa**2
        + math.sqrt(1.0 - params.kappa**2) * c.zeta
        + 0.5 * gamma * log_term
        + c.alpha
    ) / params.rho
    psi1_star = params.mu + params.sigma_z * math.sqrt(1.0 - params.kappa**2) * (
        params.sigma @ params.eta
    )
    psi2_star = params.sigma.copy()
    psi3_star = psi3_consistency(psi1_star, psi2_star, gamma)
    return ExploratoryConstants(
        gamma=gamma,
        xi_star=xi_star,
        psi1_star=psi1_star,
        psi2_star=psi2_star,
        psi3_star=psi3_star,
        params=params,
    )

