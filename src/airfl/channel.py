"""Correlated Rayleigh fading with distance path loss and threshold truncation.

The physical channel between a device at distance d and the server is
d^(-alpha/2) * h with h ~ CN(0, 1).  The server only sees an estimate
h_hat; estimation quality is a correlation rho in (0, 1]:

    h = rho * h_hat + sqrt(1 - rho^2) * v,   h_hat, v ~ CN(0, 1) independent.

A device takes part in a round iff |h_hat|^2 >= gamma_th (the boundary
counts as active); |h_hat|^2 is unit-mean exponential, so the activation
probability is exp(-gamma_th).

Randomness comes from substream(seed, *key): one numpy Generator per layered
key, seeded by SeedSequence.  substream_states derives the same PCG64 states
for a block of keys that differ in their last one or two parts, without
building a SeedSequence per key; a Reseeder sets one reused generator to
such a state per draw, and substream_rows fills one row of normals per key
that way.
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
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=tuple(_key_words(key)))
    return np.random.default_rng(ss)


def _key_words(key) -> list[int]:
    """Two uint32 words per key part, low word first, after masking to 64 bits."""
    words: list[int] = []
    for part in key:
        part = int(part) & _MASK64
        words.extend((part & _MASK32, part >> 32))
    return words


# numpy's SeedSequence hash (pool of 4 uint32 words) and PCG64's 128-bit
# LCG multiplier, as int literals so that importing costs nothing
_MASK128 = (1 << 128) - 1
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value, hash_const: int):
    """numpy's hashmix: returns the mixed value and the next hash constant."""
    hash_const_next = (hash_const * _MULT_A) & _MASK32
    value = ((value ^ hash_const) * hash_const_next) & _MASK32
    return value ^ (value >> 16), hash_const_next


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def substream_states(
    seed: int, key_prefix: tuple[int, ...], lo: int, hi: int, inner: int | None = None
) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of substream(seed, *key_prefix, t) for t in [lo, hi).

    With `inner`, the key gains a second varying part: the states of
    substream(seed, *key_prefix, t, k) for every t in [lo, hi) and k in
    [0, inner), t-major, so entry (t - lo) * inner + k is key (t, k).

    Replays numpy's SeedSequence(entropy, spawn_key).generate_state(4, uint64)
    and PCG64's srandom step without building either object per key.  Words
    shared by every key (the seed, padded to the pool's 4 words, and the key
    prefix) are hashed once as ints; the words of the varying parts, and
    every pool word they touch, are uint64 columns of one value per key,
    masked to 32 bits.
    """
    t = np.arange(hi - lo, dtype=np.uint64) + np.uint64(int(lo) & _MASK64)
    parts = [t] if inner is None else [
        np.repeat(t, inner), np.tile(np.arange(inner, dtype=np.uint64), hi - lo)
    ]
    # the seed's one or two words, zero-padded to the pool size, then the key
    entropy: list = _key_words((seed,)) + [0, 0] + _key_words(key_prefix)
    for part in parts:
        entropy += [part & np.uint64(_MASK32), part >> np.uint64(32)]

    hash_const = _INIT_A
    pool = []
    for word in entropy[:4]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[4:]:
        for dst in range(4):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)

    hash_const = _INIT_B
    state32 = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state32.append(value ^ (value >> 16))
    # generate_state(4, uint64) pairs the words little-end first; PCG64 seeds
    # with initstate = (w0, w1) and initseq = (w2, w3), high word first
    cols = [(state32[2 * j] | (state32[2 * j + 1] << np.uint64(32))).tolist() for j in range(4)]
    out = []
    for w0, w1, w2, w3 in zip(*cols):
        inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
        out.append(((((inc + ((w0 << 64) | w1)) * _PCG64_MULT) + inc) & _MASK128, inc))
    return out


class Reseeder:
    """One reused PCG64 Generator, set to a substream_states entry per draw.

    Called with a key's (state, inc), it returns the generator in exactly
    the state a fresh substream(...) of that key starts in, so draws from it
    are that substream's draws, bit for bit.  The generator is shared: finish one
    stream's draws before reseeding it for the next.
    """

    def __init__(self):
        self._bit_gen = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bit_gen)
        self._state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}

    def __call__(self, state: tuple[int, int]) -> np.random.Generator:
        s, inc = state
        self._state["state"] = {"state": s, "inc": inc}
        self._bit_gen.state = self._state
        return self._gen


def substream_rows(seed: int, key_prefix: tuple[int, ...], lo: int, hi: int, width: int) -> np.ndarray:
    """Row i is substream(seed, *key_prefix, lo + i).standard_normal(width).

    One Reseeder fills every row, so a block of keyed streams costs one
    vectorised hash and no SeedSequence objects.
    """
    rows = np.empty((hi - lo, width))
    reseed = Reseeder()
    for row, state in zip(rows, substream_states(seed, key_prefix, lo, hi)):
        reseed(state).standard_normal(out=row)
    return rows


def check_substream_states(seed: int, key_prefix: tuple[int, ...], t: int) -> None:
    """Raise RuntimeError unless substream_states reproduces numpy's own
    state for substream(seed, *key_prefix, t)."""
    (s, inc), = substream_states(seed, key_prefix, t, t + 1)
    ref = substream(seed, *key_prefix, t).bit_generator.state
    if ref["bit_generator"] != "PCG64" or ref["state"] != {"state": s, "inc": inc}:
        raise RuntimeError(
            f"numpy {np.__version__} seeds substream{(seed, *key_prefix, t)} differently "
            "from substream_states; derived streams cannot reproduce it"
        )


def draw_channel(
    model: EstimationModel, d: float, gen: np.random.Generator
) -> ChannelDraw:
    """Draw (h, h_hat, v) jointly for one device at distance d.

    Consumes exactly four standard normals in the fixed order
    (Re h_hat, Im h_hat, Re v, Im v); each complex variate is CN(0, 1).
    At rho = 1 the reconstruction collapses to h = h_hat exactly.
    """
    if not (d > 0.0 and math.isfinite(d)):
        raise ValueError(f"distance must be positive and finite, got {d}")
    z = gen.standard_normal(4) * _INV_SQRT2
    h_hat = complex(z[0], z[1])
    v = complex(z[2], z[3])
    h = model.rho * h_hat + math.sqrt(1.0 - model.rho * model.rho) * v
    return ChannelDraw(h=h, h_hat=h_hat, v=v, d=d, alpha=model.alpha)


def channel_from_normals(z: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """(h, h_hat) of shape z.shape[:-1] from standard normals z of shape
    (..., 4) in draw_channel's order: draw_channel's values, bit for bit."""
    h_hat, v = np.moveaxis((z * _INV_SQRT2).view(np.complex128), -1, 0)
    return rho * h_hat + math.sqrt(1.0 - rho * rho) * v, h_hat


@dataclass(frozen=True)
class ChannelArrays:
    """K devices' channels, estimates and path losses d^alpha as (K,) arrays."""

    h: np.ndarray
    h_hat: np.ndarray
    d_alpha: np.ndarray


def draw_channel_rows(n: int, gen: np.random.Generator) -> np.ndarray:
    """The real rows behind draw_channel_block, for kernels that need no
    complex arrays: shape (4, n), rows (Re h_hat, Im h_hat, Re v, Im v),
    each N(0, 1/2), from one standard_normal((4, n)) call."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = gen.standard_normal((4, n))
    z *= _INV_SQRT2
    return z


def draw_channel_block(model: EstimationModel, n: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized sibling of draw_channel for Monte-Carlo sweeps.

    Returns (h, h_hat, v) as complex arrays of shape (n,).  Uses the same
    CN(0, 1) construction as the scalar draw; distances play no role in the
    coefficient statistics, so none are attached.
    """
    z = draw_channel_rows(n, gen)
    h_hat = z[0] + 1j * z[1]
    v = z[2] + 1j * z[3]
    h = model.rho * h_hat + math.sqrt(1.0 - model.rho * model.rho) * v
    return h, h_hat, v

