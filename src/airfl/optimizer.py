"""Convex optimization of the truncation threshold.

Dropping the constant terms, the threshold-dependent part of the divergence
bound is

    h(x) = e^x - k1 Ei(-x) e^(2x) + k2 e^(2x) / x,    x > 0,

with k1 = (1 - rho^2)/(2 rho^2) (CSI-error weight) and
k2 = sigma2 * d_max_alpha / (2 P_max rho^2) (noise weight).  h is strictly
convex on x > 0 and diverges at both ends, so the minimizer is the unique
root of h', bisected on a fixed bracket until its ends are adjacent doubles
across which h' changes sign.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .aircomp import PowerConfig, check_positive, check_rho
from .specfun import exp_integral_ei

_BRACKET_FLOOR = math.sqrt(sys.float_info.min)  # h' divides by x*x, kept a normal double
_MODES = ("joint", "communication_oriented", "computation_oriented")
_COMMUNICATION_GAMMA = 0.5  # the noise term's minimizer, whatever the weights


@dataclass(frozen=True)
class ObjectiveCoefficients:
    """Weights of the threshold objective; k1 = 0 iff CSI is perfect."""

    k1: float
    k2: float

    def __post_init__(self) -> None:
        if not (self.k1 >= 0.0 and math.isfinite(self.k1)):
            raise ValueError(f"k1 must be nonnegative and finite, got {self.k1}")
        if not (self.k2 >= 0.0 and math.isfinite(self.k2)):
            raise ValueError(f"k2 must be nonnegative and finite, got {self.k2}")
        if self.k1 == 0.0 and self.k2 == 0.0:
            raise ValueError(
                "degenerate objective: k1 = k2 = 0 leaves only e^x, which has no interior minimum"
            )


@dataclass(frozen=True)
class ThresholdSolution:
    gamma_star: float
    h_value: float
    derivative_residual: float
    iterations: int
    mode: str


def threshold_modes(rho: float) -> tuple[str, ...]:
    """The modes that have a threshold at rho, in _MODES order: under perfect
    CSI (rho = 1, the one rho where k1 = 0) the computation term is
    monotone, so 'computation_oriented' has none."""
    return tuple(m for m in _MODES if rho < 1.0 or m != "computation_oriented")


def coefficients_from_system(rho: float, cfg: PowerConfig) -> ObjectiveCoefficients:
    """Objective weights for a physical configuration."""
    rho = check_rho(rho)
    if cfg.sigma2 == 0.0:
        raise ValueError("degenerate config: sigma2 = 0 removes the noise term entirely")
    k1 = (1.0 - rho * rho) / (2.0 * rho * rho)
    k2 = cfg.sigma2 * cfg.d_max_alpha / (2.0 * cfg.p_max * rho * rho)
    return ObjectiveCoefficients(k1=k1, k2=k2)


def objective_h(x: float, coef: ObjectiveCoefficients) -> float:
    """h(x) = e^x - k1 Ei(-x) e^(2x) + k2 e^(2x)/x."""
    x = check_positive("x", x)
    ex = math.exp(x)
    e2x = ex * ex
    ei_term = -coef.k1 * exp_integral_ei(-x) * e2x if coef.k1 != 0.0 else 0.0
    return ex + ei_term + coef.k2 * e2x / x


def derivative_h(x: float, coef: ObjectiveCoefficients) -> float:
    """h'(x) = e^x - k1 e^x/x - 2 k1 Ei(-x) e^(2x) + k2 e^(2x)(2x - 1)/x^2."""
    x = check_positive("x", x)
    ex = math.exp(x)
    e2x = ex * ex
    ei_part = 0.0
    if coef.k1 != 0.0:
        ei_part = -coef.k1 * ex / x - 2.0 * coef.k1 * exp_integral_ei(-x) * e2x
    k2_part = coef.k2 * e2x * (2.0 * x - 1.0) / (x * x) if coef.k2 != 0.0 else 0.0
    return ex + ei_part + k2_part


def second_derivative_h(x: float, coef: ObjectiveCoefficients) -> float:
    """h''(x) = e^x + (k1 e^x/x^2)(-4 x^2 e^x Ei(-x) - 3x + 1)
              + 2 k2 e^(2x)(2x^2 - 2x + 1)/x^3.

    Strictly positive on x > 0: the k1 bracket exceeds (x - 1)^2/(x + 1) by
    the lower estimate -Ei(-x) > e^(-x)/(x + 1), and 2x^2 - 2x + 1 > 0.
    """
    x = check_positive("x", x)
    ex = math.exp(x)
    e2x = ex * ex
    k1_part = 0.0
    if coef.k1 != 0.0:
        bracket = -4.0 * x * x * ex * exp_integral_ei(-x) - 3.0 * x + 1.0
        k1_part = coef.k1 * ex / (x * x) * bracket
    k2_part = 0.0
    if coef.k2 != 0.0:
        k2_part = 2.0 * coef.k2 * e2x * (2.0 * x * x - 2.0 * x + 1.0) / (x * x * x)
    return ex + k1_part + k2_part


def _bisect_root(fprime) -> tuple[float, float, int]:
    """Root of the increasing derivative h', bisected until no double lies
    between the bracket's ends; returns the end of smaller |h'|, its h' and
    the number of halvings.

    The bracket is fixed at [_BRACKET_FLOOR, 1].  Its upper end needs no
    search: h'(1) = e (1 + k1 (2e E1(1) - 1)) + k2 e^2 > 0 for all k1, k2 >= 0,
    as 2e E1(1) ~ 1.19.  Its lower end has h' < 0 unless the weights are so
    small that the root lies below the floor, which is refused.  Halving
    keeps h'(lo) < 0 <= h'(hi), so h' changes sign between the returned
    end and its neighbouring double.
    """
    lo, hi = _BRACKET_FLOOR, 1.0
    f_lo, f_hi = fprime(lo), fprime(hi)
    if f_lo >= 0.0:
        raise ValueError(
            f"derivative not negative at bracket start: f({lo}) = {f_lo}; the objective weights are too "
            "small (k1 falls as rho nears 1, k2 = sigma2 d_max^alpha / (2 p_max rho^2) as p_max grows)"
        )
    iterations = 0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        f_mid = fprime(mid)
        iterations += 1
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        mid = 0.5 * (lo + hi)
    return (lo, f_lo, iterations) if abs(f_lo) < abs(f_hi) else (hi, f_hi, iterations)


def optimal_threshold(coef: ObjectiveCoefficients, mode: str = "joint") -> ThresholdSolution:
    """Truncation threshold minimizing the selected objective term(s).

    Modes:

    * ``joint``: minimize the full h (h' bisected to adjacent doubles).
    * ``communication_oriented``: minimize the noise term k2 e^(2x)/x alone;
      its minimizer is x = 1/2 analytically, independent of the weights.
    * ``computation_oriented``: minimize the CSI term
      e^x - k1 Ei(-x) e^(2x) - 1; requires k1 > 0, otherwise the term is
      monotone with no interior minimum.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {_MODES}")

    if mode == "communication_oriented":
        # d/dx [k2 e^(2x)/x] = k2 e^(2x)(2x - 1)/x^2 vanishes exactly at 1/2.
        return ThresholdSolution(
            gamma_star=_COMMUNICATION_GAMMA,
            h_value=objective_h(_COMMUNICATION_GAMMA, coef),
            derivative_residual=0.0,
            iterations=0,
            mode=mode,
        )

    if mode == "computation_oriented":
        if coef.k1 == 0.0:
            raise ValueError(
                "degenerate config: with perfect CSI the computation term is monotone"
            )
        csi_only = ObjectiveCoefficients(k1=coef.k1, k2=0.0)
        fprime = lambda x: derivative_h(x, csi_only)
    else:
        fprime = lambda x: derivative_h(x, coef)

    gamma_star, residual, iterations = _bisect_root(fprime)
    return ThresholdSolution(
        gamma_star=gamma_star,
        h_value=objective_h(gamma_star, coef),
        derivative_residual=residual,
        iterations=iterations,
        mode=mode,
    )
