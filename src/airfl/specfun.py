"""Real-valued special functions of the aggregation closed forms: Ei
(coefficient variance and threshold objective) and erf/erfc (joint law of
the auxiliary pair).  Every closed form evaluates them from here.

Ei is implemented from scratch (power series plus a continued fraction),
since the standard library has none; erf and erfc are the standard
library's.  The accuracy contract, enforced by the test suite against
high-precision series oracles:

* ``exp_integral_ei``: relative error <= 1e-12 for 1e-6 <= |x| <= 50,
* ``erf``: relative error <= 1e-12 for |x| <= 6,
* ``erfc``: relative error <= 1e-12 for -6 <= x <= 10, computed without
  catastrophic cancellation.
"""

from __future__ import annotations

import math
from math import erf, erfc

EULER_GAMMA = 0.5772156649015328606065120900824024

# Series/continued-fraction seam for Ei at negative arguments.  The naive
# seam at |x| = 8 loses ~2.5e-10 relative accuracy to alternating-series
# cancellation in doubles; at 4 the loss stays below ~5e-13 and the
# continued fraction already converges quickly.
_EI_SEAM = 4.0
_MAX_ITER = 500
_TINY = 1e-300


def _require_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _ei_series(x: float) -> float:
    # Ei(x) = gamma + ln|x| + sum_{k>=1} x^k / (k * k!).  Convergent for all
    # finite x; numerically safe for x > 0 (positive terms) and for
    # |x| <= _EI_SEAM on the negative side.  Terms are formed from exact
    # integer k*k! so each carries at most ~2 ulp; fsum makes the final
    # rounding exact.
    base = EULER_GAMMA + math.log(abs(x))
    terms = []
    kfac = 1  # k!
    peak = 0.0
    for k in range(1, _MAX_ITER + 1):
        kfac *= k
        term = x**k / (k * kfac)
        terms.append(term)
        peak = max(peak, abs(term))
        if abs(term) <= 1e-17 * max(peak, abs(base), 1e-300):
            break
    else:
        raise RuntimeError(f"Ei series did not converge at x={x}")
    return base + math.fsum(terms)


def _e1_continued_fraction(z: float) -> float:
    # E1(z) = exp(-z) / (z + 1 - 1^2/(z + 3 - 2^2/(z + 5 - ...))) for z > 0,
    # evaluated with the modified Lentz algorithm.
    b = z + 1.0
    c = 1.0 / _TINY
    d = 1.0 / b
    f = d
    for k in range(1, _MAX_ITER + 1):
        a = -float(k * k)
        b += 2.0
        d = b + a * d
        if d == 0.0:
            d = _TINY
        c = b + a / c
        if c == 0.0:
            c = _TINY
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    else:
        raise RuntimeError(f"E1 continued fraction did not converge at z={z}")
    return math.exp(-z) * f


def exp_integral_ei(x: float) -> float:
    """Exponential integral Ei(x), principal value for x > 0.

    The closed forms only ever evaluate it at negative arguments
    (Ei(-gamma_th) with gamma_th > 0), where Ei(x) = -E1(-x) < 0.
    """
    x = _require_finite(x, "x")
    if x == 0.0:
        raise ValueError("Ei has a logarithmic singularity at x = 0")
    if x > 0.0 or -x <= _EI_SEAM:
        return _ei_series(x)
    return -_e1_continued_fraction(-x)
