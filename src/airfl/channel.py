"""Correlated Rayleigh fading with distance path loss and threshold truncation.

The physical channel between a device at distance d and the server is
d^(-alpha/2) * h with h ~ CN(0, 1).  The server only sees an estimate
h_hat; estimation quality is a correlation rho in (0, 1]:

    h = rho * h_hat + sqrt(1 - rho^2) * v,   h_hat, v ~ CN(0, 1) independent.

A device takes part in a round iff |h_hat|^2 >= gamma_th (the boundary
counts as active); |h_hat|^2 is unit-mean exponential, so the activation
probability is exp(-gamma_th).

Randomness comes from substream(seed, *key): numpy's own Generator for a
layered key.  Under stream layout 3 (config.STREAM_LAYOUT) a key names a
block of one Monte-Carlo check's samples or trials, or a training purpose
and round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily; load it with this module, not on the first draw

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class EstimationModel:
    """Channel estimation quality and large-scale propagation."""

    rho: float    # correlation between true channel and estimate, (0, 1]
    alpha: float  # path-loss exponent

    def __post_init__(self) -> None:
        if not (0.0 < self.rho <= 1.0):
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")


@dataclass(frozen=True)
class ChannelDraw:
    """One joint draw of (true channel, estimate, estimation noise).

    Records the distance and path-loss exponent it was drawn under so the
    pre-processing factor can reconstruct d^(alpha/2) without carrying the
    model around.
    """

    h: complex
    h_hat: complex
    v: complex
    d: float
    alpha: float


def substream(seed: int, *key: int) -> np.random.Generator:
    """Child generator for a layered purpose key, independent per key."""
    if not key:
        raise ValueError("substream requires at least one key component")
    # two uint32 words per key part, low word first, after masking to 64 bits
    words = [w for part in key for w in ((int(part) & _MASK32), (int(part) & _MASK64) >> 32)]
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=tuple(words)))


def draw_channel(
    model: EstimationModel, d: float, gen: np.random.Generator
) -> ChannelDraw:
    """Draw (h, h_hat, v) jointly for one device at distance d.

    The one-sample draw_channel_block: it consumes exactly four standard
    normals in the fixed order (Re h_hat, Im h_hat, Re v, Im v); each
    complex variate is CN(0, 1).  At rho = 1 the reconstruction collapses
    to h = h_hat exactly.
    """
    if not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"distance must be positive and finite, got {d}")
    h, h_hat, v = draw_channel_block(model, 1, gen)
    return ChannelDraw(h=complex(h[0]), h_hat=complex(h_hat[0]), v=complex(v[0]), d=d, alpha=model.alpha)


def channel(h_hat, v, rho: float):
    """The true channel rho h_hat + sqrt(1 - rho^2) v, the one statement of
    the CSI model; h_hat and v are complex arrays or numbers of one shape,
    or their real or imaginary parts, which give Re h or Im h: the model is
    linear, so each part rounds as it does inside the complex product."""
    h = np.multiply(h_hat, rho)
    h += math.sqrt(1.0 - rho * rho) * v
    return h


def channel_from_normals(z: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """(h, h_hat) of shape z.shape[:-1] from standard normals z of shape
    (..., 4) in draw_channel's order: draw_channel's values, bit for bit."""
    h_hat, v = np.moveaxis((z * _INV_SQRT2).view(np.complex128), -1, 0)
    return channel(h_hat, v, rho), h_hat


@dataclass(frozen=True)
class ChannelArrays:
    """K devices' channels, estimates and path losses d^alpha as (K,) arrays."""

    h: np.ndarray
    h_hat: np.ndarray
    d_alpha: np.ndarray


def draw_channel_rows(n: int, gen: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """The real rows behind draw_channel_block, for kernels that need no
    complex arrays: shape (4, n), rows (Re h_hat, Im h_hat, Re v, Im v),
    each N(0, 1/2), from one standard_normal((4, n)) call.

    With out, a flat C-contiguous float64 buffer of at least 4n entries,
    the same values fill its first 4n entries and the rows are a view of
    them, so a kernel that draws block after block into one buffer
    allocates nothing per draw.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if out is None:
        z = gen.standard_normal((4, n))
    elif out.ndim == 1 and out.dtype == np.float64 and out.flags.c_contiguous and out.size >= 4 * n:
        z = gen.standard_normal(out=out[: 4 * n].reshape(4, n))
    else:
        raise ValueError(f"out must be a flat C-contiguous float64 buffer of at least {4 * n} entries, "
                         f"got {out.dtype} of shape {out.shape}, C-contiguous {out.flags.c_contiguous}")
    z *= _INV_SQRT2
    return z


def draw_channel_block(model: EstimationModel, n: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized sibling of draw_channel for Monte-Carlo sweeps.

    Returns (h, h_hat, v) as complex arrays of shape (n,), built from
    draw_channel_rows by channel; draw_channel is its n = 1 case.  Distances
    play no role in the coefficient statistics, so none are attached.  The
    Monte-Carlo checks need no complex arrays and read the rows themselves.

    The normals are copied into preallocated complex arrays and freed
    before h is formed (by channel), so the call peaks at 64 B per sample,
    not twice the 48 B it returns.
    """
    z = draw_channel_rows(n, gen)
    h_hat = np.empty(n, dtype=np.complex128)
    v = np.empty(n, dtype=np.complex128)
    h_hat.real, h_hat.imag, v.real, v.imag = z
    del z
    return channel(h_hat, v, model.rho), h_hat, v

