"""Over-the-air gradient aggregation with truncated channel inversion.

Active devices pre-scale their gradient by

    beta_k = zeta * lambda * d_k^(alpha/2) * conj(h_hat_k) / (K * |h_hat_k|^2)

so that the superposed receive signal, after taking the real part and
dividing by the scaling factor zeta, becomes

    g_hat = (1/K) * sum_k xi_k * g_k + z_bar,

where xi_k = lambda * Re{conj(h_k) h_hat_k} / |h_hat_k|^2 for active devices
and 0 for truncated ones, and z_bar has per-entry variance sigma2/(2 zeta^2).
The compensation constant lambda = exp(gamma_th)/rho makes E[xi] = 1, so the
aggregate is an unbiased estimate of the ideal gradient average.

aggregate_batch is the one aggregation kernel: a round for a batch of
systems at once, the cells of a threshold sweep or the trials of the
divergence Monte-Carlo.  aggregate is its one-system form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelDraw

_SQRT2 = math.sqrt(2.0)


def check_positive(name: str, value: float) -> float:
    """value as a float, if positive and finite; otherwise a ValueError naming it."""
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_rho(rho: float) -> float:
    """The estimation correlation as a float, if it lies in (0, 1]."""
    rho = float(rho)
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    return rho


@dataclass(frozen=True)
class PowerConfig:
    """Transmit/receive power budget resolved to watts."""

    p_max: float        # per-device instantaneous power budget, W
    sigma2: float       # receiver noise power, W
    g_bound: float      # gradient-norm bound G used by power control
    d_max_alpha: float  # max_k d_k^alpha over the device fleet

    def __post_init__(self) -> None:
        check_positive("p_max", self.p_max)
        if not (self.sigma2 >= 0.0 and math.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be nonnegative and finite, got {self.sigma2}")
        check_positive("g_bound", self.g_bound)
        check_positive("d_max_alpha", self.d_max_alpha)


@dataclass
class AggregationOutcome:
    """One over-the-air aggregation round, with enough state to replay it.

    Invariant (asserted in tests): g_hat equals
    (1/K) * sum_k xi[k] * gradients[k] + noise_realization to 1e-12.
    """

    g_hat: np.ndarray
    active_set: list[int]
    xi: np.ndarray
    noise_realization: np.ndarray
    zeta: float
    lam: float
    skipped: bool


def dbm_to_watts(dbm: float) -> float:
    """Power unit conversion, 10^((dBm - 30)/10)."""
    dbm = float(dbm)
    if not math.isfinite(dbm):
        raise ValueError(f"dbm must be finite, got {dbm}")
    return 10.0 ** ((dbm - 30.0) / 10.0)


def compensation_lambda(gamma_th: float, rho: float) -> float:
    """Unbiasedness constant exp(gamma_th)/rho.

    Cancels both the truncation survival probability exp(-gamma_th) and the
    mean CSI misalignment rho, making the effective coefficient unit-mean.
    """
    gamma_th = check_positive("gamma_th", gamma_th)
    rho = check_rho(rho)
    return math.exp(gamma_th) / rho


def scaling_zeta(k_devices: int, rho: float, cfg: PowerConfig, gamma_th: float) -> float:
    """Receive scaling factor making the worst-case device power-feasible.

        zeta = K * rho * sqrt(P_max * gamma_th) / (G * sqrt(d_max_alpha) * exp(gamma_th))

    With this choice an active device's instantaneous power never exceeds
    P_max whenever its gradient norm stays within G.  The noise terms divide
    by zeta^2, so a zeta whose square is not a normal double is refused.
    """
    if k_devices < 1:
        raise ValueError(f"k_devices must be >= 1, got {k_devices}")
    gamma_th = check_positive("gamma_th", gamma_th)
    rho = check_rho(rho)
    zeta = k_devices * rho * math.sqrt(cfg.p_max * gamma_th) / (cfg.g_bound * math.sqrt(cfg.d_max_alpha) * math.exp(gamma_th))
    if not np.finfo(float).tiny <= zeta * zeta < math.inf:
        raise ValueError(f"zeta = {zeta!r} at p_max = {cfg.p_max!r}, gamma_th = {gamma_th!r}, G = {cfg.g_bound!r} "
                         f"and d_max^alpha = {cfg.d_max_alpha!r}: zeta^2 is not a normal double")
    return zeta


def receiver_noise_scale(sigma2: float, zeta):
    """The per-entry scale sqrt(sigma2) / (sqrt(2) zeta) of the receiver
    noise after the receive scaling; zeta may be an array, one per system."""
    return math.sqrt(sigma2) / (_SQRT2 * zeta)


def _gain(h_hat: np.ndarray) -> np.ndarray:
    """|h_hat|^2, elementwise."""
    return h_hat.real * h_hat.real + h_hat.imag * h_hat.imag


def _aligned(h: np.ndarray, h_hat: np.ndarray) -> np.ndarray:
    """Re{conj(h) h_hat}, elementwise."""
    return h.real * h_hat.real + h.imag * h_hat.imag


def _truncated_ratio(gain, aligned, gamma_th, lam) -> tuple[np.ndarray, np.ndarray]:
    """(xi, active): lam * aligned / gain where gain >= gamma_th, else 0.

    The one xi formula; gain and aligned broadcast against gamma_th and lam,
    which it does not check.  A caller with many thresholds on one channel
    forms the two part products once.
    """
    active = gain >= gamma_th
    xi = np.divide(lam * aligned, gain, out=np.zeros(active.shape), where=active)
    return xi, active


def aggregate_batch(
    grads: np.ndarray, h: np.ndarray, h_hat: np.ndarray, gamma_th, lam, noise: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One over-the-air round of a batch of systems of K devices each.

    h, h_hat: (..., K) complex; gamma_th and lam broadcast against them, as
    (C, 1) arrays for a batch of cells on one (K,) channel, or as numbers
    for a batch of trials on (T, K) channels.  grads: (..., K, d), or one
    (K, d) block the batch shares.  noise: None, or rows of receiver noise
    already scaled by receiver_noise_scale.  Returns (xi, active,
    sent, g_hat), g_hat = (1/K) sum_k xi_k g_k + noise summed over k in
    device order; a row with no active device did not send, and its g_hat
    is 0, without noise.
    """
    xi, active = _truncated_ratio(_gain(h_hat), _aligned(h, h_hat), gamma_th, lam)
    sent = active.any(axis=-1)
    k_devices = xi.shape[-1]
    g_hat = np.zeros(xi.shape[:-1] + grads.shape[-1:])
    for k in range(k_devices):
        g_hat += xi[..., k, None] * grads[..., k, :]
    g_hat /= k_devices
    if noise is not None:
        g_hat += noise
    g_hat[~sent] = 0.0
    return xi, active, sent, g_hat


def preprocessing_beta(draw: ChannelDraw, zeta: float, lam: float, k_devices: int) -> complex:
    """Transmit pre-scaling factor of an active device (truncated inversion).

    Inverts the estimated channel and the path loss:
    zeta * lambda * d^(alpha/2) * conj(h_hat) / (K * |h_hat|^2).
    """
    if k_devices < 1:
        raise ValueError(f"k_devices must be >= 1, got {k_devices}")
    zeta = check_positive("zeta", zeta)
    lam = check_positive("lam", lam)
    gain = _gain(draw.h_hat)
    if gain == 0.0:
        raise RuntimeError("pre-processing undefined for a zero channel estimate")
    return zeta * lam * draw.d ** (draw.alpha / 2.0) * draw.h_hat.conjugate() / (k_devices * gain)


def aggregate(
    gradients: np.ndarray | list[np.ndarray],
    draws: list[ChannelDraw],
    gamma_th: float,
    rho: float,
    cfg: PowerConfig,
    rng: np.random.Generator,
) -> AggregationOutcome:
    """One over-the-air aggregation of K device gradients (aggregate_batch).

    A round that sends draws d receiver-noise normals from rng, scaled by
    receiver_noise_scale (by 0 when cfg.sigma2 is 0).  An empty active set
    (every estimate truncated) is flagged as skipped with a zero
    aggregate: with no transmitter there is nothing for the receive
    scaling to normalize, so the round produces no update and draws no
    noise from rng.

    Parameters
    ----------
    gradients : (K, d) real array, one device gradient per row (a length-K
        list of equal-length real vectors works too).
    draws : length-K channel draws, index-aligned with gradients.
    rng : source for the receiver noise.
    """
    if isinstance(gradients, np.ndarray) and gradients.ndim != 2:
        raise ValueError(f"gradients must be a (K, d) array, got shape {gradients.shape}")
    k_devices = len(gradients)
    if k_devices < 1:
        raise ValueError("need at least one device")
    if len(draws) != k_devices:
        raise ValueError(f"{k_devices} gradients but {len(draws)} channel draws")
    dim = gradients[0].shape
    if not isinstance(gradients, np.ndarray) and any(g.shape != dim for g in gradients):
        raise ValueError("gradient dimensions differ across devices")
    if rng is None:
        raise ValueError("rng required: a round that sends draws its receiver noise from it")

    lam = compensation_lambda(gamma_th, rho)
    zeta = scaling_zeta(k_devices, rho, cfg, gamma_th)
    h, h_hat = (np.array([getattr(dr, part) for dr in draws]) for part in ("h", "h_hat"))
    xi, active, sent, g_hat = aggregate_batch(np.asarray(gradients), h, h_hat, gamma_th, lam)
    noise = np.zeros(dim)
    if sent:
        noise = rng.standard_normal(dim) * receiver_noise_scale(cfg.sigma2, zeta)
        g_hat += noise
    return AggregationOutcome(
        g_hat=g_hat,
        active_set=active.nonzero()[0].tolist(),
        xi=xi,
        noise_realization=noise,
        zeta=zeta,
        lam=lam,
        skipped=not sent,
    )
