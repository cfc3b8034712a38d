"""Closed-form statistics of the effective aggregation coefficient and the
resulting weight divergence and its bound.

Conventions: gamma_th > 0 is the truncation threshold, rho in (0, 1] the
estimation correlation, Ei the exponential integral.  The auxiliary pair
behind the coefficient statistics is

    x = Re{conj(v) h_hat} / |h_hat|^2,   y = -|h_hat|^2,

whose joint law (CDF/PDF below) carries the conditional moments that
assemble into the coefficient variance.
"""

from __future__ import annotations

import math

from .aircomp import PowerConfig, check_positive, check_rho, scaling_zeta
from .specfun import erf, erfc, exp_integral_ei


def xi_variance(gamma_th: float, rho: float) -> float:
    """Variance of the effective aggregation coefficient (unit mean),

        Var[xi] = e^g - (1 - rho^2)/(2 rho^2) * Ei(-g) * e^(2g) - 1,  g = gamma_th.

    Monotone increasing in gamma_th and decreasing in rho; vanishes in the
    joint limit gamma_th -> 0+, rho -> 1.  At rho = 1 the Ei coefficient is
    zero analytically and the value reduces to expm1(gamma_th).
    """
    gamma_th = check_positive("gamma_th", gamma_th)
    rho = check_rho(rho)
    if rho == 1.0:
        return math.expm1(gamma_th)
    k1 = (1.0 - rho * rho) / (2.0 * rho * rho)
    return math.expm1(gamma_th) - k1 * exp_integral_ei(-gamma_th) * math.exp(2.0 * gamma_th)


def xi_mean_offset(gamma_th: float, rho: float) -> float:
    """Centering constant c = rho (1 - e^g) / (e^g sqrt(1 - rho^2)).

    Shifts the conditional second moment of x so that the variance assembly
    identity holds; undefined at rho = 1, where the machinery is bypassed.
    """
    gamma_th = check_positive("gamma_th", gamma_th)
    rho = check_rho(rho)
    if rho == 1.0:
        raise ValueError("offset undefined at rho = 1 (no estimation-noise component)")
    eg = math.exp(gamma_th)
    return rho * (1.0 - eg) / (eg * math.sqrt(1.0 - rho * rho))


def conditional_second_moment(gamma_th: float, c: float) -> float:
    """E[(x - c)^2 | y <= -gamma_th] = c^2 - Ei(-gamma_th) e^(gamma_th) / 2.

    x is symmetric about zero conditionally on the truncation event, so the
    offset contributes additively in c^2.
    """
    gamma_th = check_positive("gamma_th", gamma_th)
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    return c * c - 0.5 * exp_integral_ei(-gamma_th) * math.exp(gamma_th)


def joint_cdf_xy(t: float, gamma: float) -> float:
    """Joint CDF F(t, gamma) = Pr{x < t, y < gamma}.

    For gamma >= 0 the event on y is almost sure (y = -|h_hat|^2 < 0), so
    the value is the x marginal 1/2 + t / (2 sqrt(1 + t^2)); the one-sided
    closed form below is continuous at gamma -> 0-.
    """
    t = float(t)
    gamma = float(gamma)
    if not (math.isfinite(t) and math.isfinite(gamma)):
        raise ValueError("t and gamma must be finite")
    # sqrt(1 + t^2), which is |t| in doubles wherever t * t would overflow
    r = math.sqrt(1.0 + t * t) if abs(t) < 1e154 else abs(t)
    base = 0.5 * t / r
    if gamma >= 0.0:
        return 0.5 + base
    s = math.sqrt(-gamma)
    tail = 0.5 * math.exp(gamma) * erfc(-s * t)
    return base * (1.0 - erf(s * r)) + tail


def joint_pdf_xy(t: float, gamma: float) -> float:
    """Joint density f(t, gamma) = sqrt(-gamma/pi) exp(gamma (1 + t^2)) for
    gamma < 0 and zero elsewhere (y has no mass on [0, inf))."""
    t = float(t)
    gamma = float(gamma)
    if not (math.isfinite(t) and math.isfinite(gamma)):
        raise ValueError("t and gamma must be finite")
    if gamma >= 0.0:
        return 0.0
    return math.sqrt(-gamma / math.pi) * math.exp(gamma * (1.0 + t * t))


def divergence_bound(k_devices: int, gamma_th: float, rho: float, cfg: PowerConfig) -> float:
    """The paper's printed bound on the per-round weight divergence,

        (G^2/K^2) * (Var[xi] + sigma2 * d_max_alpha * e^(2g) / (2 P_max rho^2 g)).

    It is divergence_exact_always_noise with d_model = 1 and gradient
    energies that sum to G^2 (a total-energy G).  Under this package's
    per-device G, where each device's energy may reach G^2, the exact
    CSI term is up to K times the bound's, so for K > 1 the "bound" can
    lie below divergence_exact, as it does at the defaults.  Scales as
    1/K^2 and decreases in P_max toward the floor (G^2/K^2) Var[xi].
    """
    if k_devices < 1:
        raise ValueError(f"k_devices must be >= 1, got {k_devices}")
    gamma_th = check_positive("gamma_th", gamma_th)
    rho = check_rho(rho)
    noise_term = (
        cfg.sigma2
        * cfg.d_max_alpha
        * math.exp(2.0 * gamma_th)
        / (2.0 * cfg.p_max * rho * rho * gamma_th)
    )
    return (cfg.g_bound**2 / k_devices**2) * (xi_variance(gamma_th, rho) + noise_term)


def skip_probability(k_devices: int, gamma_th: float) -> float:
    """Probability (1 - e^(-gamma_th))^K that every device is truncated,
    i.e. that a round has no transmitter and is skipped."""
    return (1.0 - math.exp(-gamma_th)) ** k_devices


def _csi_term(per_device_grad_sq: list[float], k_devices: int, gamma_th: float, rho: float) -> float:
    # Var[xi] * sum_k E||g_k||^2 / K^2
    if k_devices < 1:
        raise ValueError(f"k_devices must be >= 1, got {k_devices}")
    if len(per_device_grad_sq) != k_devices:
        raise ValueError(
            f"expected {k_devices} gradient energies, got {len(per_device_grad_sq)}"
        )
    if any(not (g >= 0.0 and math.isfinite(g)) for g in per_device_grad_sq):
        raise ValueError("gradient energies must be nonnegative and finite")
    return xi_variance(gamma_th, rho) * math.fsum(per_device_grad_sq) / k_devices**2


def _noise_term(k_devices: int, gamma_th: float, rho: float, cfg: PowerConfig, d_model: int) -> float:
    # d_model * sigma2 / (2 zeta^2): the receiver noise of a round that transmits
    if d_model < 1:
        raise ValueError(f"d_model must be >= 1, got {d_model}")
    zeta = scaling_zeta(k_devices, rho, cfg, gamma_th)
    return d_model * cfg.sigma2 / (2.0 * zeta * zeta)


def noise_term_exact(k_devices: int, gamma_th: float, rho: float, cfg: PowerConfig, d_model: int) -> float:
    """The noise term of divergence_exact, (1 - p_skip) * d_model * sigma2 / (2 zeta^2):
    the receiver noise of a round that transmits, weighted by the probability
    that a round does."""
    return (1.0 - skip_probability(k_devices, gamma_th)) * _noise_term(k_devices, gamma_th, rho, cfg, d_model)


def divergence_exact_always_noise(
    per_device_grad_sq: list[float],
    k_devices: int,
    gamma_th: float,
    rho: float,
    cfg: PowerConfig,
    d_model: int,
) -> float:
    """The paper's expected squared aggregation error for given gradient
    energies, with receiver noise in every round,

        (1/K^2) * Var[xi] * sum_k E||g_k||^2 + d_model * sigma2 / (2 zeta^2).

    The noise term is dimension-aware: the receiver adds an independent
    N(0, sigma2/(2 zeta^2)) entry per model coordinate.  A skipped round
    (no active device) adds no noise, so this overstates the simulated
    expectation by p_skip times the noise term; divergence_exact is exact.
    """
    return _csi_term(per_device_grad_sq, k_devices, gamma_th, rho) + _noise_term(
        k_devices, gamma_th, rho, cfg, d_model
    )


def divergence_exact(
    per_device_grad_sq: list[float],
    k_devices: int,
    gamma_th: float,
    rho: float,
    cfg: PowerConfig,
    d_model: int,
) -> float:
    """Exact expected squared aggregation error for given gradient energies,

        (1/K^2) * Var[xi] * sum_k E||g_k||^2
            + (1 - p_skip) * d_model * sigma2 / (2 zeta^2),

    with p_skip = (1 - e^(-gamma_th))^K.  A round with no active device
    sends nothing and adds no receiver noise (the skipped-round
    convention), so the noise term counts only the rounds that transmit;
    the CSI term already covers skipped rounds, where every xi_k is 0.
    """
    return _csi_term(per_device_grad_sq, k_devices, gamma_th, rho) + noise_term_exact(
        k_devices, gamma_th, rho, cfg, d_model
    )
