"""Monte-Carlo verification, threshold sweeps, and CSV/manifest reporting.

Every closed form in the package has a sampling counterpart here: coefficient
moments, the joint law behind the variance derivation, and the frozen-gradient
weight divergence.  Comparisons follow the 4-standard-error rule, so each
estimator also returns its standard error; each check returns the one
SweepResult its command writes as CSV, next to a replayable run manifest.
Verdicts are Gate records that xi_gates, pdf_gates and divergence_gates
build from that result alone, shared by the CLI and the acceptance suite.
Every gate follows one rule: it passes when |estimate - reference| <=
limit * se if it carries an se, and <= limit if not.  A Monte-Carlo gate
also carries n, the count of samples that saw what it tests, and Gate
alone decides testability: a gate whose n is below 2, or whose reference
or se is not finite, fails as untestable.

Every Monte-Carlo check samples through one keyed-block map, _block_map
(stream layout 3): block b of a check reads substream(seed, purpose,
*key, b), and its block function (_xi_blocks, _joint_blocks,
_divergence_blocks) forms each shared quantity once per block.  Blocks
merge exactly, by math.fsum and integer counts, so neither the split among
workers nor jobs changes a byte.  The quadratures run on numpy
and the math module alone: the joint law's bin masses come from one
vectorised, self-refining Gauss-Legendre rule (_bin_mass) and the density's
normalization from a fixed Gauss-Legendre x Gauss-Hermite tensor rule
(pdf_normalization).  scipy serves only the test suite, as their oracle.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import __version__
from .aircomp import (
    _truncated_ratio,
    aggregate_batch,
    compensation_lambda,
    receiver_noise_scale,
    scaling_zeta,
)
from .analysis import (
    conditional_second_moment,
    divergence_bound,
    divergence_exact,
    joint_cdf_xy,
    joint_pdf_xy,
    noise_term_exact,
    skip_probability,
    xi_variance,
)
from .channel import channel, channel_from_normals, draw_channel_rows, substream
from .config import (
    _MANIFEST_HEADER,
    _MIN_TRIALS,
    _fmt,
    STREAM_INIT,
    STREAM_LAYOUT,
    STREAM_MC_DIVERGENCE,
    STREAM_MC_JOINT,
    FD_STEP,
    STREAM_MC_XI,
    SystemConfig,
    VerifyPdfConfig,
    bin_centers,
    config_to_kv,
    objective_coefficients,
    power_config,
    resolve,
)
from .fltrain import (
    SeedDraws,
    gradient_bound,
    ideal_aggregate,
    round_gradients,
    train_cells,
)
from .optimizer import optimal_threshold, threshold_modes
from .specfun import erf

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

_MIN_XI_SAMPLES = 10_000
_MIN_JOINT_SAMPLES = 1_000_000
_MASS_CONSISTENCY_TOL = 1e-9  # bin_mass_cdf gate: largest |quadrature - CDF rectangle| bin mass
# the bin-mass rule (_bin_mass): Gauss-Legendre panels in s = sqrt(-gamma)
_PANEL_NODES = 6
_PANEL_CUTS = np.array([0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0])  # panel cuts at s = k/|t|
_PANEL_WIDTH = 0.5  # widest panel, in s
_PANEL_TOL = 1e-16  # largest |panel rule - rule over its halves| that is accepted
_PANEL_SPLITS = 40  # passes of panel splitting before the rule gives up
_PANEL_BLOCK = 1 << 12  # panels per evaluation: bounds the rule's working set
_S_MAX = 28.0  # e^(-s^2) underflows from s = 27.3 on, so no mass lies past it
_EDGE_BAND = 1e-9  # fractional bin index this close to an edge is checked against the edges
_NORM_GAMMA_MIN = -40.0  # lower gamma edge of the density normalization
_NORM_NODES = 20  # nodes per axis of the normalization's tensor rule
_SCAN_DISTANCE = 100.0  # the K-scan's common device distance, meters
_SCAN_D_MODEL = 10  # the K-scan's model dimension: device k sends basis vector k mod 10
_Z_LIMIT = 4.0  # the 4-standard-error rule of every gate that carries an se
_MIN_GATE_N = 2  # the fewest samples that estimate a variance; a gate on fewer is untestable
# samples or trials per stream block, constants of stream layout 3: block b
# of verify-xi or verify-pdf reads substream(seed, purpose, b), and trial t
# of the divergence is row t mod 256 of substream(seed,
# STREAM_MC_DIVERGENCE, *key, t // 256)
_MC_BLOCK = 1 << 16  # also sizes a run's one draw buffer (2 MiB), and verify-xi's and the histogram's arrays (512 kB each)
_TRIAL_BLOCK = 256
_BLOCK_FLOATS = 1 << 16  # caps a divergence slice's (trials, d) arrays at 512 kB each


# ---------------------------------------------------------------------------
# result containers


def _norm_cell(v):
    if isinstance(v, (bool, np.bool_, np.integer)):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


def _norm_row(row) -> tuple:
    """The row's cells as plain int, float and str, which write_csv writes."""
    return tuple(map(_norm_cell, row))


@dataclass
class SweepResult:
    """Named columns, one row per grid point, scalar summaries in meta.

    Construction enforces the reporting rule that no Monte-Carlo estimate
    travels without its uncertainty: at least one column must be a
    standard-error column (suffix '_se'), and row shapes must match the
    header.  Cells are normalized to plain int/float/str so a CSV round
    trip reproduces the rows exactly.
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    meta: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.columns = tuple(self.columns)
        if not self.columns:
            raise ValueError("SweepResult needs at least one column")
        if not any(name.endswith("_se") for name in self.columns):
            raise ValueError("no standard-error column; estimates must carry one")
        normalized = []
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row {i} has {len(row)} cells for {len(self.columns)} columns"
                )
            normalized.append(_norm_row(row))
        self.rows = normalized

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def records(self) -> list[dict]:
        """Each row as a dict from column name to cell."""
        return [dict(zip(self.columns, row)) for row in self.rows]


def _fixed(v: float, digits: int = 2) -> str:
    # digits decimals, or exponent form with digits + 1 once |v| reaches 1e6
    return f"{v:.{digits + 1}e}" if abs(v) >= 1e6 else f"{v:.{digits}f}"


@dataclass(frozen=True)
class Gate:
    """One verdict: |estimate - reference| <= limit * se for a gate that
    carries an se (the 4-standard-error rule), <= limit for one that does
    not.  n, for a Monte-Carlo gate, counts the samples that saw what it
    tests.  A gate is untestable when n is below _MIN_GATE_N (2), or its
    reference or se is not finite; it then fails, and its summary says why.
    A NaN estimate fails too.  detail says what was measured.
    """

    name: str
    estimate: float
    reference: float
    se: float | None
    limit: float
    detail: str = ""
    n: int | None = None

    @property
    def deviation(self) -> float:
        """|estimate - reference|, in SEs for a gate that carries one (NaN
        where that se is not finite)."""
        gap = abs(self.estimate - self.reference)
        if self.se is None:
            return gap
        if not math.isfinite(self.se):
            return math.nan
        return gap / self.se if self.se > 0.0 else (0.0 if gap == 0.0 else math.inf)

    @property
    def z(self) -> float | None:
        return None if self.se is None else self.deviation

    @property
    def margin(self) -> float:
        return self.limit - self.deviation

    @property
    def untestable(self) -> str | None:
        """Why the gate cannot be tested, or None when it can."""
        if self.n is not None and self.n < _MIN_GATE_N:
            return f"n={self.n} is below {_MIN_GATE_N}"
        for name, v in (("reference", self.reference), ("se", self.se)):
            if v is not None and not math.isfinite(v):
                return f"{name}={v!r} is not finite"
        return None

    @property
    def passed(self) -> bool:
        scale = 1.0 if self.se is None else self.se
        return self.untestable is None and abs(self.estimate - self.reference) <= self.limit * scale

    def summary(self) -> str:
        if self.se is None:
            tail = f"limit={self.limit:g} margin={self.margin:.3g}"
        else:
            tail = f"z={_fixed(self.z)} limit={self.limit:g} margin={_fixed(self.margin)}"
        text = f"{self.detail} {tail}" if self.detail else tail
        return text if self.untestable is None else f"untestable: {self.untestable}; {text}"


def verdict_lines(gates) -> list[str]:
    """One `PASS name: ...` or `FAIL name: ...` line per gate."""
    return [f"{'PASS' if g.passed else 'FAIL'} {g.name}: {g.summary()}" for g in gates]


class TailSums(NamedTuple):
    """The samples of one draw with y <= -gamma: their count and the power
    sums (sum x, sum x^2, sum x^3, sum x^4) of x."""

    gamma: float
    count: int
    sums: tuple[float, float, float, float]

    def second_moment(self, c: float) -> tuple[float, float]:
        """E[(x - c)^2 | y <= -gamma] and its standard error (NaN below 2
        samples), from the sums of (x - c)^2 and (x - c)^4 in powers of x."""
        n = self.count
        if n < 2:
            return math.nan, math.nan
        s1, s2, s3, s4 = self.sums
        c2 = c * c
        s_q = s2 - 2.0 * c * s1 + c2 * n
        s_q2 = s4 - 4.0 * c * s3 + 6.0 * c2 * s2 - 4.0 * c2 * c * s1 + c2 * c2 * n
        mean_q = s_q / n
        var_q = max(s_q2 / n - mean_q * mean_q, 0.0)
        return mean_q, math.sqrt(var_q / n)


@dataclass
class JointLawResult(SweepResult):
    """The joint-law bin table, plus the tail sums of every threshold."""

    tails: tuple[TailSums, ...] = ()


# ---------------------------------------------------------------------------
# coefficient moments


def mc_xi_moments(rho: float, gamma_th: float, n_samples: int, seed: int) -> SweepResult:
    """Sample the effective aggregation coefficient and compare moments.

    Draws n_samples independent channel/estimate pairs, forms xi by
    aircomp's one formula, _truncated_ratio (lambda
    Re{h* h_hat}/|h_hat|^2 on the active event, 0 otherwise), and returns
    the one-row table of mc_xi_moments_grid: the sample mean and unbiased
    variance with standard errors (the variance SE uses the
    fourth-central-moment formula), the closed-form variance, and the
    active fraction next to e^-gamma_th.  Sums are accumulated around the
    known unit mean to keep the moment arithmetic well conditioned.
    """
    return mc_xi_moments_grid([(rho, gamma_th)], n_samples, seed)


def mc_xi_moments_grid(cells, n_samples: int, seed: int, jobs: int = 1) -> SweepResult:
    """The table verify-xi writes and xi_gates reads: one mc_xi_moments row
    per (rho, gamma_th) cell, in cell order, on one shared draw, with
    n_samples in meta.

    Sample block b is drawn from substream(seed, STREAM_MC_XI, b) by
    _block_map, once for every cell (_xi_blocks), and each cell's per-block
    sums are merged in block order by math.fsum, so neither the cell grid
    nor jobs changes a bit of a cell's row: it equals its own
    mc_xi_moments row with the same seed.  Because the cells share their
    draws (common random numbers), their estimates and z-scores are
    correlated, not independent.
    """
    if n_samples < _MIN_XI_SAMPLES:
        raise ValueError(f"need at least {_MIN_XI_SAMPLES} samples (trials), got {n_samples}")
    if not cells:
        raise ValueError("cells must hold one or more (rho, gamma_th) pairs")
    lams = [compensation_lambda(gamma_th, rho) for rho, gamma_th in cells]  # checks gamma_th and rho
    ((blocks, _),) = _block_map(_xi_blocks, [((cells, lams), (STREAM_MC_XI,), n_samples)], seed, _MC_BLOCK, jobs)
    rows = [_xi_row(rho, gamma_th, n_samples, sums) for (rho, gamma_th), sums in zip(cells, zip(*blocks))]
    return SweepResult(columns=tuple(rows[0]), rows=[tuple(row.values()) for row in rows],
                       meta={"n_samples": n_samples})


def _unit(v: float) -> float:
    """The power of two in (v/2, v] (1/2 for v = 0).  Sums of powers of
    x/unit, for x of the order of v, stay finite wherever v is, and dividing
    by a power of two moves no bit of a result that fits the doubles either
    way."""
    return math.ldexp(1.0, math.frexp(v)[1] - 1)


def _block_buffer() -> np.ndarray:
    """The flat float64 buffer of 4 * _MC_BLOCK entries that a run of
    verify-xi or verify-pdf blocks is drawn into (draw_channel_rows' out).

    An array of its size is freed first.  glibc's malloc maps a chunk
    above its mmap threshold afresh and returns free heap above twice that
    threshold to the system; the threshold starts at 128 kB and rises to
    the size of each mapped chunk it frees.  With only a block's 512 kB
    arrays freed, every block's arrays would be returned to the
    system and fault their pages in again, some 70 times the minor faults
    of a fresh verify-xi.  Elsewhere the free costs one short-lived
    allocation.
    """
    np.empty(4 * _MC_BLOCK)
    return np.empty(4 * _MC_BLOCK)


def _xi_blocks(args, blocks):
    """For each (gen, m) of blocks, every cell's active count and sums of
    y, y^2, y^3 and y^4 for y = (xi - 1)/unit on the block, unit =
    _unit(lam) at the compensation lam = e^gamma_th/rho, and no counts.

    Every block is drawn into one buffer (draw_channel_rows' out), and
    _xi_block_sums forms its arrays, which are freed on its return.
    """
    cells, lams = args
    by_rho: dict[float, list[int]] = {}
    for k, (rho, _) in enumerate(cells):
        by_rho.setdefault(rho, []).append(k)
    buf = _block_buffer()
    for gen, m in blocks:
        yield _xi_block_sums(draw_channel_rows(m, gen, out=buf), cells, lams, by_rho), 0


def _xi_block_sums(rows, cells, lams, by_rho) -> list[tuple]:
    """Every cell's (active count, power sums) on one block's real rows.

    Each quantity is formed once for the cells that share it: |h_hat|^2
    once, Re{conj(h) h_hat} = Re h Re h_hat + Im h Im h_hat once per
    distinct rho, with Re h and Im h each by channel on the rows' real or
    imaginary parts, and xi once per cell (_xi_cell_sums).  The values are
    those of draw_channel_block's complex arrays, bit for bit.  One rho's
    arrays are freed before the next rho's are formed.
    """
    h_re, h_im, v_re, v_im = rows
    gain = h_re * h_re + h_im * h_im
    sums = [None] * len(cells)
    for rho, ks in by_rho.items():
        aligned = channel(h_re, v_re, rho)
        aligned *= h_re
        part = channel(h_im, v_im, rho)
        part *= h_im
        aligned += part
        del part
        for k in ks:
            sums[k] = _xi_cell_sums(gain, aligned, cells[k][1], lams[k])
        del aligned
    return sums


def _xi_cell_sums(gain, aligned, gamma_th, lam) -> tuple:
    """The active count and sums of y, y^2, y^3 and y^4 for y = (xi -
    1)/_unit(lam), xi by aircomp's one xi formula (_truncated_ratio) and
    turned into y and its powers in place."""
    # lam/unit scales xi by a power of two, which rounds alike
    unit = _unit(lam)
    y, active = _truncated_ratio(gain, aligned, gamma_th, lam / unit)
    y -= 1.0 / unit
    return (int(np.count_nonzero(active)), *_power_sums(y))


def _power_sums(y: np.ndarray) -> tuple[float, float, float, float]:
    """The sums of y, y^2, y^3 and y^4; y^3 and y^4 overwrite y and y^2, so
    two arrays are held."""
    y2 = y * y
    s1, s2 = float(np.sum(y)), float(np.sum(y2))
    y *= y2
    y2 *= y2
    return s1, s2, float(np.sum(y)), float(np.sum(y2))


def _merge_sums(block_sums) -> tuple[int, tuple[float, ...]]:
    """The total count and the math.fsum of each power sum over blocks of
    (count, s1, s2, s3, s4).  fsum is exactly rounded, so how the blocks
    were split among workers moves no bit."""
    counts, *parts = zip(*block_sums)
    return sum(counts), tuple(math.fsum(p) for p in parts)


def _xi_row(rho, gamma_th, n_samples: int, block_sums) -> dict[str, object]:
    """One cell's row: the moments of xi from the merged sums of y = (xi - 1)/unit."""
    unit = _unit(compensation_lambda(gamma_th, rho))
    n_active, (s1, s2, s3, s4) = _merge_sums(block_sums)
    n = float(n_samples)
    a = s1 / n  # sample mean of y
    m2 = s2 / n - a * a
    m4 = s4 / n - 4.0 * a * s3 / n + 6.0 * a * a * s2 / n - 3.0 * a**4
    var = m2 * n / (n - 1.0)
    se_var = math.sqrt(max(m4 - m2 * m2 * (n - 3.0) / (n - 1.0), 0.0) / n)
    return {
        "rho": rho,
        "gamma_th": gamma_th,
        "n_samples": n_samples,
        "mean_mc": 1.0 + a * unit,
        "mean_se": math.sqrt(var / n) * unit,
        "var_mc": var * unit * unit,
        "var_se": se_var * unit * unit,
        "var_closed": xi_variance(gamma_th, rho),
        "active_fraction": n_active / n,
        "active_expected": math.exp(-gamma_th),
    }


def xi_gates(result: SweepResult) -> list[Gate]:
    """Per row of a mc_xi_moments_grid table, the mean against 1 and the
    variance against the closed form at 4 SEs, each with the cell's active
    count as its n."""
    gates = []
    for row in result.records():
        cell = f"rho={row['rho']:g} gamma={row['gamma_th']:g}"
        active = round(row["active_fraction"] * row["n_samples"])
        mean, var, closed = row["mean_mc"], row["var_mc"], row["var_closed"]
        gates += [
            Gate(f"xi_mean[{cell}]", mean, 1.0, row["mean_se"], _Z_LIMIT,
                 detail=f"mean={_fixed(mean, 6)} se={row['mean_se']:.2e}", n=active),
            Gate(f"xi_var[{cell}]", var, closed, row["var_se"], _Z_LIMIT,
                 detail=f"mc={_fixed(var, 6)} closed={_fixed(closed, 6)} se={row['var_se']:.2e}", n=active),
        ]
    return gates


# ---------------------------------------------------------------------------
# joint law of (x, y) = (Re{v* h_hat}/|h_hat|^2, -|h_hat|^2)


def _elementwise(fn, v: np.ndarray) -> np.ndarray:
    """fn (a math function) applied to every element of v."""
    return np.fromiter(map(fn, v.ravel().tolist()), dtype=float, count=v.size).reshape(v.shape)


def _panel_sums(t: np.ndarray, a: np.ndarray, b: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Gauss-Legendre sum (nodes x, weights w on [-1, 1]) of
    s e^(-s^2) erf(t s) over each panel [a, b] with its own t, _PANEL_BLOCK
    panels at a time.  math.exp and specfun's erf (the standard library's)
    are applied per node and the node sums run in a fixed order, so the
    values do not depend on the CPU (numpy's exp does)."""
    sums = np.empty(a.size)
    for lo in range(0, a.size, _PANEL_BLOCK):
        part = slice(lo, lo + _PANEL_BLOCK)
        half = 0.5 * (b[part] - a[part])
        s = (a[part] + half)[:, None] + half[:, None] * x
        with np.errstate(over="ignore"):  # erf(+-inf) = +-1 past the double range of t s
            ts = t[part, None] * s
        f = s * _elementwise(math.exp, -(s * s)) * _elementwise(erf, ts)
        acc = w[0] * f[:, 0]
        for k in range(1, x.size):
            acc += w[k] * f[:, k]
        sums[part] = half * acc
    return sums


def _bin_mass(t_edges: np.ndarray, g_edges: np.ndarray) -> np.ndarray:
    """Mass of the analytic density over every [t_i, t_i+1] x [g_j, g_j+1]
    bin (g_edges <= 0), as a (t bins, g bins) array.

    The t-integral of the density is available in closed form (a Gaussian
    slice); with g = -s^2 a bin's mass is the integral of
    s e^(-s^2) (erf(t_i+1 s) - erf(t_i s)) over the bin's s interval.  So
    the masses are differences, over the t edges, of I(t, j), the integral
    of s e^(-s^2) erf(t s) over g bin j.  Each I is a sum of Gauss-Legendre
    panels: g bin j is cut at s = k/|t| for k in _PANEL_CUTS, where
    erf(t s) bends, and into panels at most _PANEL_WIDTH wide.  A panel
    whose rule differs from the rule's sum over its two halves by more than
    _PANEL_TOL is split in two and its halves are checked the same way; an
    accepted panel adds the sum over its halves.  Only that error estimate
    refines the rule, so the CDF-rectangle cross-check behind the
    bin_mass_cdf gate stays independent of it.
    """
    t = np.asarray(t_edges, dtype=float)
    # s = sqrt(-g) in increasing order; no mass lies past _S_MAX
    s_edges = np.minimum(np.sqrt(-np.asarray(g_edges, dtype=float)[::-1]), _S_MAX)
    n_g = s_edges.size - 1
    # the points every t edge shares: the s edges, and every multiple of
    # _PANEL_WIDTH between them, so that no panel is wider
    grid = _PANEL_WIDTH * np.arange(1.0, math.ceil(s_edges[-1] / _PANEL_WIDTH))
    shared = np.concatenate((s_edges, np.clip(grid, s_edges[0], s_edges[-1])))
    with np.errstate(divide="ignore", over="ignore"):  # an infinite cut is clipped and places no cut
        cuts = np.clip(_PANEL_CUTS / np.abs(t)[:, None], s_edges[0], s_edges[-1])
    points = np.sort(np.concatenate([np.broadcast_to(shared, (t.size, shared.size)), cuts], axis=1), axis=1)
    a, b = points[:, :-1], points[:, 1:]
    keep = a < b
    row = np.nonzero(keep)[0]
    a, b = a[keep], b[keep]
    # g bin j spans s in [s(g_j+1), s(g_j)]; flat indexes (t edge, g bin)
    flat = row * n_g + (n_g - np.searchsorted(s_edges, a, side="right"))
    t_panel = t[row]
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    integral = np.zeros(t.size * n_g)
    for _ in range(_PANEL_SPLITS):
        mid = 0.5 * (a + b)
        # each panel, then its left and then its right half, in one pass
        whole, left, right = _panel_sums(
            np.tile(t_panel, 3), np.concatenate((a, a, mid)), np.concatenate((b, mid, b)), x, w
        ).reshape(3, -1)
        halves = left + right
        done = np.abs(whole - halves) <= _PANEL_TOL
        integral += np.bincount(flat[done], halves[done], minlength=integral.size)
        if done.all():
            integral = integral.reshape(t.size, n_g)
            return integral[1:] - integral[:-1]
        split = ~done
        flat, t_panel = np.repeat(flat[split], 2), np.repeat(t_panel[split], 2)
        a, mid, b = a[split], mid[split], b[split]
        a, b = np.column_stack((a, mid)).ravel(), np.column_stack((mid, b)).ravel()
    raise RuntimeError(f"the bin-mass rule did not settle within {_PANEL_SPLITS} panel splits")


def cdf_rect_masses(t_edges: np.ndarray, g_edges: np.ndarray) -> np.ndarray:
    """Mass of every [t_i, t_i+1] x [g_j, g_j+1] rectangle from CDF differences,
    F(t1, g1) - F(t0, g1) - F(t1, g0) + F(t0, g0), with F evaluated once per
    grid point."""
    F = np.array([[joint_cdf_xy(t, g) for g in g_edges] for t in t_edges])
    return F[1:, 1:] - F[:-1, 1:] - F[1:, :-1] + F[:-1, :-1]


def _bin_index(v: np.ndarray, edges: np.ndarray) -> np.ndarray:
    # bin of each v in [edges[0], edges[-1]] by np.histogram's rule: v lies
    # in [edges[i], edges[i + 1]), and the last bin is closed on the right
    return np.minimum(np.searchsorted(edges, v, side="right") - 1, edges.size - 2)


def _axis_bins(v: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each v's bin on one axis of uniform edges, as np.histogram assigns it
    (the last bin closed) and clipped to [0, n - 1], and whether v lies in
    [edges[0], edges[-1]].

    The arithmetic index stands for every v whose fractional index lies
    farther than the rounding band from an integer; only the v within it go
    through the exact _bin_index.  The band is _EDGE_BAND, widened for a
    window far from 0 beside its width, where the index and the edges carry
    larger rounding errors (a band of 0.5 or more sends every v through
    _bin_index).
    """
    n = edges.size - 1
    lo, hi = edges[0], edges[-1]
    inside = v >= lo
    inside &= v <= hi
    # near the double range the band may overflow (inf sends every v through
    # _bin_index), and so may a far v's index (clipped, as v lies outside)
    with np.errstate(over="ignore"):
        band = max(_EDGE_BAND, 16.0 * np.finfo(float).eps * n * (1.0 + (abs(lo) + abs(hi)) / (hi - lo)))
        # the fractional index, clipped to [0, n] in place (fmax sends a NaN to 0)
        f = v - lo
        f *= n / (hi - lo)
    np.fmin(np.fmax(f, 0.0, out=f), n, out=f)
    idx = f.astype(np.intp)
    # |f - idx - 1/2|, whose distance from 1/2 is the distance to an edge
    f -= idx
    f -= 0.5
    near = np.flatnonzero(np.abs(f, out=f) >= 0.5 - band)
    near = near[inside[near]]
    np.minimum(idx, n - 1, out=idx)
    idx[near] = _bin_index(v[near], edges)
    return idx, inside


def histogram2d_counts(
    x: np.ndarray, y: np.ndarray, x_edges: np.ndarray, y_edges: np.ndarray
) -> np.ndarray:
    """np.histogram2d(x, y, bins=(x_edges, y_edges))[0] as int64 counts, for
    uniform (np.linspace) edges: values outside the window are dropped and
    the last edge of each axis is closed.  Indexes bins arithmetically
    (_axis_bins) and counts them with one np.bincount, whose last, dropped
    bin takes every sample outside the window."""
    nx, ny = x_edges.size - 1, y_edges.size - 1
    flat, x_inside = _axis_bins(x, x_edges)
    flat *= ny
    y_idx, y_inside = _axis_bins(y, y_edges)
    flat += y_idx
    x_inside &= y_inside
    flat[~x_inside] = nx * ny
    return np.bincount(flat, minlength=nx * ny + 1)[:-1].reshape(nx, ny)


def _joint_blocks(args, blocks):
    """For each (gen, m) of blocks, per threshold the count and the power
    sums of x on the block's tail, and the block's bin counts.  Every block
    is drawn into one buffer (draw_channel_rows' out), and _joint_block_sums
    overwrites the block's rows with x, |h_hat|^2 and -|h_hat|^2; the next
    draw fills them afresh."""
    t_edges, g_edges, tail_gammas = args
    buf = _block_buffer()
    for gen, m in blocks:
        yield _joint_block_sums(draw_channel_rows(m, gen, out=buf), t_edges, g_edges, tail_gammas)


def _joint_block_sums(rows, t_edges, g_edges, tail_gammas) -> tuple[list[tuple], np.ndarray]:
    """Per threshold the tail's count and power sums of x, and the bin
    counts, on one block's real rows, which it overwrites.

    x = Re{v* h_hat}/|h_hat|^2 is divided once per sample and serves the
    histogram and every tail, which is the x where |h_hat|^2 >= gamma.  A
    sample with |h_hat|^2 = 0, which has probability zero, is dropped first.
    Each row is dead once read, so x is formed in the Re v row, |h_hat|^2
    in the Re h_hat row and -|h_hat|^2 in the Im h_hat row, by the
    operations, in the order, of the out-of-place products and sums.
    """
    h_re, h_im, v_re, v_im = rows
    x, gain, neg_gain = v_re, h_re, h_im
    x *= h_re
    v_im *= h_im
    x += v_im
    gain *= h_re
    h_im *= h_im
    gain += h_im
    if not gain.all():  # drop a zero gain before dividing
        pos = gain > 0.0
        gain, x = gain[pos], x[pos]
        neg_gain = neg_gain[: gain.size]
    x /= gain
    counts = histogram2d_counts(x, np.negative(gain, out=neg_gain), t_edges, g_edges)
    tails = []
    for tail_gamma in tail_gammas:
        tail = x.compress(gain >= tail_gamma)  # x[mask]'s values, without its branch per sample
        tails.append((tail.size, *_power_sums(tail)))
    return tails, counts


def mc_joint_distribution_check(
    gamma_range: tuple[float, float],
    t_range: tuple[float, float],
    n_samples: int,
    seed: int,
    bins: int = 40,
    tail_gammas: tuple[float, ...] = (1.0,),
    jobs: int = 1,
) -> JointLawResult:
    """Histogram the sampled (x, y) pair against the analytic density.

    Returns one row per bin with the empirical mass, its binomial standard
    error, and the analytic mass (density integrated over the bin).  meta
    carries the total-variation distance between the binned laws (mass
    outside the window lumped into one cell), both outside masses, the
    first tail's count, and the closed-form cross-checks pdf_gates reads:
    pdf_normalization(), cdf_pdf_consistency at the window's bin centres
    (cdf_pdf_fd_worst), and the worst |analytic mass - CDF rectangle mass|
    over the bins (bin_mass_cdf_gap).  tails holds the count and power sums
    of x on every threshold's tail of the one draw, from which
    E[(x - c)^2 | tail] follows for any c.

    Sample block b is drawn from substream(seed, STREAM_MC_JOINT, b) by
    _block_map and reduced by _joint_blocks; the bin counts are added up and
    the tail sums merged in block order, so jobs changes no bit.  The
    analytic masses come from one vectorised rule (_bin_mass).
    """
    if n_samples < _MIN_JOINT_SAMPLES:
        raise ValueError(f"need at least {_MIN_JOINT_SAMPLES} samples (trials), got {n_samples}")
    gamma_range, t_range = (tuple(float(v) for v in r) for r in (gamma_range, t_range))
    tail_gammas = tuple(float(g) for g in tail_gammas)
    if not tail_gammas:
        raise ValueError("tail_gammas must hold one or more thresholds")
    # the settings meet the rules of the verify_pdf keys that hold them
    for tail_gamma in tail_gammas:
        VerifyPdfConfig(t_range, gamma_range, bins, tail_gamma)
    (g_lo, g_hi), (t_lo, t_hi) = gamma_range, t_range

    t_edges = np.linspace(t_lo, t_hi, bins + 1)
    g_edges = np.linspace(g_lo, g_hi, bins + 1)
    # the pair (x, y) involves only the estimate and the estimation noise,
    # so rho does not enter and h is never formed
    task = ((t_edges, g_edges, tail_gammas), (STREAM_MC_JOINT,), n_samples)
    ((blocks, counts),) = _block_map(_joint_blocks, [task], seed, _MC_BLOCK, jobs)
    tails = [TailSums(g, *_merge_sums(sums)) for g, sums in zip(tail_gammas, zip(*blocks))]

    mass = _bin_mass(t_edges, g_edges)
    n = float(n_samples)
    p_emp = counts / n
    inside_emp = float(p_emp.sum())
    inside_ana = float(mass.sum())
    tv = 0.5 * (float(np.abs(p_emp - mass).sum()) + abs(inside_ana - inside_emp))

    p_se = np.sqrt(p_emp * (1.0 - p_emp) / n)
    # bin (i, j) is row i * bins + j; each column is read out in one tolist
    cols = (np.repeat(t_edges[:-1], bins), np.repeat(t_edges[1:], bins),
            np.tile(g_edges[:-1], bins), np.tile(g_edges[1:], bins), p_emp, p_se, mass)
    rows = list(zip(*(c.ravel().tolist() for c in cols)))

    meta: dict[str, object] = {
        "n_samples": n_samples,
        "tv_distance": tv,
        "outside_mass_mc": 1.0 - inside_emp,
        "outside_mass_analytic": 1.0 - inside_ana,
        "cond_count": tails[0].count,
        "pdf_normalization": pdf_normalization(),
        "cdf_pdf_fd_worst": cdf_pdf_consistency(bin_centers(*t_range, bins), bin_centers(*gamma_range, bins)),
        "bin_mass_cdf_gap": float(np.max(np.abs(mass - cdf_rect_masses(t_edges, g_edges)))),
    }
    return JointLawResult(
        columns=("t_lo", "t_hi", "gamma_lo", "gamma_hi", "mass_mc", "mass_mc_se", "mass_analytic"),
        rows=rows,
        meta=meta,
        tails=tuple(tails),
    )


def pdf_normalization() -> float:
    """Integral of the joint density over t in R, gamma in [-40, 0), by a
    fixed tensor rule.

    With gamma = -s^2 and t = u/s the density's mass element is
    2 f(u/s, -s^2) du ds, whose dependence on u is the Gaussian e^(-u^2).
    So the rule is Gauss-Legendre in s over [0, sqrt(40)] times
    Gauss-Hermite in u, each with _NORM_NODES nodes, and it evaluates
    joint_pdf_xy itself at every node, not its closed-form t-marginal.  The
    mass below -40 is e^-40, negligible.
    """
    x, w = np.polynomial.legendre.leggauss(_NORM_NODES)
    u, v = np.polynomial.hermite.hermgauss(_NORM_NODES)
    half = 0.5 * math.sqrt(-_NORM_GAMMA_MIN)
    return math.fsum(
        float(ws * vk) * 2.0 * joint_pdf_xy(uk / s, -s * s) * math.exp(uk * uk)
        for s, ws in zip((half * (x + 1.0)).tolist(), (half * w).tolist())
        for uk, vk in zip(u.tolist(), v.tolist())
    )


def cdf_pdf_consistency(t_values, gamma_values) -> float:
    """Worst |mixed central difference of the CDF - density| over a grid.

    The CDF is differenced with the standard four-point stencil at spacing
    1e-4 in both arguments; gamma points must stay below -1e-4 so the
    stencil never crosses the support boundary.
    """
    step = FD_STEP
    worst = 0.0
    for g in gamma_values:
        if g + step >= 0.0:
            raise ValueError(f"gamma value {g} too close to 0 for step {step}")
        for t in t_values:
            fd = (
                joint_cdf_xy(t + step, g + step)
                - joint_cdf_xy(t - step, g + step)
                - joint_cdf_xy(t + step, g - step)
                + joint_cdf_xy(t - step, g - step)
            ) / (4.0 * step * step)
            worst = max(worst, abs(fd - joint_pdf_xy(t, g)))
    return worst


def pdf_gates(result: JointLawResult) -> list[Gate]:
    """Gates of the joint-law check, read off its result alone: binned total
    variation at most 0.02, normalization within 1e-6 of 1, CDF/density
    consistency within 1e-4, bin masses within 1e-9 of the CDF rectangles,
    and the tail probability and conditional second moment (c = 0) at the
    first tail threshold, at 4 SEs, each with the tail's count as its n."""
    meta = result.meta
    tv, n = meta["tv_distance"], meta["n_samples"]
    norm, fd_worst, mass_gap = meta["pdf_normalization"], meta["cdf_pdf_fd_worst"], meta["bin_mass_cdf_gap"]
    tail = result.tails[0]
    p_tail = tail.count / n
    se_tail = math.sqrt(p_tail * (1.0 - p_tail) / n)
    p_exp = math.exp(-tail.gamma)
    m2, m2_se = tail.second_moment(0.0)
    m2_exp = conditional_second_moment(tail.gamma, 0.0)
    return [
        Gate("pdf_tv_distance", tv, 0.0, None, 0.02, detail=f"tv={tv:.5f} n={n}"),
        Gate("pdf_normalization", norm, 1.0, None, 1e-6, detail=f"integral={norm!r}"),
        Gate("cdf_pdf_consistency", fd_worst, 0.0, None, 1e-4, detail=f"worst_abs_err={fd_worst:.3e}"),
        Gate("bin_mass_cdf", mass_gap, 0.0, None, _MASS_CONSISTENCY_TOL, detail=f"worst_abs_err={mass_gap:.3e}"),
        Gate("truncation_tail", p_tail, p_exp, se_tail, _Z_LIMIT,
             detail=f"mc={p_tail:.6f} expected={p_exp:.6f} se={se_tail:.2e}", n=tail.count),
        Gate("conditional_second_moment", m2, m2_exp, m2_se, _Z_LIMIT,
             detail=f"mc={m2:.6f} expected={m2_exp:.6f} se={m2_se:.2e}", n=tail.count),
    ]


# ---------------------------------------------------------------------------
# frozen-gradient weight divergence


def _frozen_setup(cfg: SystemConfig):
    """Round zero's K gradients and the power config at the G training uses
    in that round (fltrain.gradient_bound)."""
    draws = SeedDraws(cfg)
    w0 = draws.task.init_params(substream(draws.cfg.seed, STREAM_INIT))
    grads = round_gradients(w0, draws, 0)
    return draws.cfg, grads, power_config(draws.cfg, gradient_bound(draws, grads, 0))


def _divergence_blocks(args, blocks):
    """For each (gen, m) of blocks, the squared divergence and skip flag of
    the block's m trials over frozen gradients, and no counts.

    args is (grads of shape (K, d), power, gamma_th, rho).  A block is an
    (m, 4K + d) normal draw from gen, one row per trial: K x 4 channel
    normals in draw_channel's order, then the d receiver-noise normals that
    one `aggregate` call would add, used only if some device is active.
    numpy fills the draw row by row, so it is drawn in slices of at most
    _BLOCK_FLOATS / d rows, each aggregated by one aircomp.aggregate_batch
    call with its batch axis over trials.
    """
    grads, power, gamma_th, rho = args
    k_devices, d_model = grads.shape
    lam = compensation_lambda(gamma_th, rho)
    noise_scale = receiver_noise_scale(power.sigma2, scaling_zeta(k_devices, rho, power, gamma_th))
    g_ideal = ideal_aggregate(grads)
    step = max(1, _BLOCK_FLOATS // d_model)
    n_channel = 4 * k_devices
    for gen, m in blocks:
        div = np.empty(m)
        skips = np.empty(m, dtype=bool)
        for lo in range(0, m, step):
            rows = gen.standard_normal((min(step, m - lo), n_channel + d_model))
            # the slice's channel arrays live only for the call: (n, K) complex each
            z = rows[:, :n_channel].reshape(len(rows), k_devices, 4)
            _, _, sent, g_hat = aggregate_batch(grads, *channel_from_normals(z, rho), gamma_th, lam,
                                                rows[:, n_channel:] * noise_scale)
            diff = g_hat - g_ideal
            out = slice(lo, lo + len(rows))
            # one stacked (1, d) @ (d, 1) product per trial: numpy's vector dot, as r @ r is
            div[out] = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
            skips[out] = ~sent
        yield (div, skips), 0


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean of x and its standard error, taken of x/_unit(max |x|)
    so that the squared deviations stay finite wherever x is."""
    unit = _unit(float(np.max(np.abs(x))))
    y = x / unit
    return float(np.mean(y)) * unit, float(np.std(y, ddof=1) / math.sqrt(len(x))) * unit


def _pool_size(jobs: int, n_items: int) -> int:
    """Worker processes for n_items tasks: at most jobs and the host's CPUs."""
    return max(1, min(jobs, n_items, os.cpu_count() or 1))


class _PoolScope:
    pool: ProcessPoolExecutor | None = None


_scope: _PoolScope | None = None  # the open worker_pool scope, if any


@contextmanager
def worker_pool():
    """Scope in which every `_pmap` shares one process pool.

    The pool starts at the first map that needs two or more workers, sized
    for that map.  Leaving the outermost scope, on success or on an
    exception, shuts the pool down and joins its workers, so no process
    outlives it; an inner scope reuses the outer one's pool.
    """
    global _scope
    if _scope is not None:
        yield _scope
        return
    _scope = scope = _PoolScope()
    try:
        yield scope
    finally:
        _scope = None
        if scope.pool is not None:
            scope.pool.shutdown(cancel_futures=True)


def _pmap(fn, items, jobs: int) -> list:
    """[fn(it) for it in items], on the open worker_pool's processes when
    jobs and the item count allow two or more; outside a scope, one is
    opened for this call."""
    items = list(items)
    workers = _pool_size(jobs, len(items))
    if workers == 1:
        return [fn(it) for it in items]
    with worker_pool() as scope:
        if scope.pool is None:
            from concurrent.futures import ProcessPoolExecutor  # a --jobs 1 run never loads multiprocessing
            scope.pool = ProcessPoolExecutor(max_workers=workers)
        return list(scope.pool.map(fn, items))


def _block_runs(n: int, block: int, jobs: int) -> list[range]:
    """The blocks of an n-sample task, cut into at most one contiguous run per worker."""
    n_blocks = -(-n // block)
    size = -(-n_blocks // _pool_size(jobs, n_blocks))
    return [range(lo, min(lo + size, n_blocks)) for lo in range(0, n_blocks, size)]


def _draw_run(item) -> tuple[list, object]:
    """fn's results on one run of a task's blocks, in block order, and the
    sum of their counts."""
    fn, args, seed, key, n, block, run = item
    results, counts = [], 0
    for result, block_counts in fn(args, ((substream(seed, *key, b), min(block, n - b * block)) for b in run)):
        results.append(result)
        counts += block_counts
    return results, counts


def _block_map(fn, tasks, seed: int, block: int, jobs: int) -> list[tuple[list, object]]:
    """The one sampling map of every Monte-Carlo check: per task, fn's
    result on each of its blocks in block order, and the sum of their counts.

    A task is (args, key, n): n samples in blocks of `block`, the last one
    shorter if need be.  Block b reads substream(seed, *key, b), so its
    result depends on b alone and a larger n extends a smaller one's full
    blocks.  Each task's blocks are cut into at most one run per worker,
    and every task's runs go through one _pmap.  fn(args, blocks) is a
    generator over a run's (gen, m) pairs that yields each block's (result,
    counts), counts an integer array or 0.  A block function that draws a
    whole block allocates one buffer per run (_block_buffer) and draws
    every block into it (draw_channel_rows' out), and the block's other
    arrays are freed before the next draw, so a run holds one block's
    draw and arrays, and the heap they held is reused rather than returned
    to the system and faulted in again.  Counts are added up within each
    run, exactly, so no per-block array is kept.
    """
    runs = [_block_runs(n, block, jobs) for _, _, n in tasks]
    items = [(fn, args, seed, key, n, block, run)
             for (args, key, n), task_runs in zip(tasks, runs) for run in task_runs]
    done = iter(_pmap(_draw_run, items, jobs))
    out = []
    for task_runs in runs:
        parts = [next(done) for _ in task_runs]
        out.append(([r for results, _ in parts for r in results], sum(counts for _, counts in parts)))
    return out


def _divergence_mc(systems, seed: int, n_trials: int, jobs: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Squared divergences and skip flags, in trial order, of n_trials trials
    of each frozen system (grads, power, gamma_th, rho, key): trial t is row
    t mod 256 of block t // 256 of the stream (STREAM_MC_DIVERGENCE, *key),
    and every system's blocks go through one _block_map, so no barrier
    stands between systems."""
    tasks = [((grads, power, gamma_th, rho), (STREAM_MC_DIVERGENCE, *key), n_trials)
             for grads, power, gamma_th, rho, key in systems]
    return [
        tuple(np.concatenate(part) for part in zip(*blocks))
        for blocks, _ in _block_map(_divergence_blocks, tasks, seed, _TRIAL_BLOCK, jobs)
    ]


def mc_weight_divergence(cfg: SystemConfig, n_trials: int, jobs: int = 1) -> SweepResult:
    """Monte-Carlo E||g_hat - g||^2 with one round's gradients held fixed.

    Freezes the K mini-batch gradients of round zero once, then repeats the
    over-the-air aggregation n_trials times in the block kernel
    `_divergence_blocks`.  Trial t draws its channels and noise from row t
    mod 256 of its block's stream substream(seed, STREAM_MC_DIVERGENCE, t //
    256), so neither the kernel's slices nor jobs changes a byte of the
    serial result.  The row reports the MC estimate with its SE next
    to the exact expectation for those gradients and the a-priori bound.

    Rounds whose active set is empty contribute ||g||^2 and no noise (the
    skipped-round convention); the exact expectation and meta's
    noise_term_exact weight the noise by the probability 1 - p_skip of a
    round that transmits, and p_skip = (1 - e^-g)^K is reported in meta.
    """
    if n_trials < _MIN_TRIALS:
        raise ValueError(f"need at least {_MIN_TRIALS} trials, got {n_trials}")
    cfg, grads, power = _frozen_setup(cfg)
    ((div, skips),) = _divergence_mc([(grads, power, cfg.gamma_th, cfg.rho, ())], cfg.seed, n_trials, jobs)

    energies = [float(g @ g) for g in grads]
    d_model = grads[0].shape[0]
    zeta = scaling_zeta(cfg.k_devices, cfg.rho, power, cfg.gamma_th)
    p_skip = skip_probability(cfg.k_devices, cfg.gamma_th)
    mean, se = _mean_se(div)
    row = {
        "k_devices": cfg.k_devices,
        "rho": cfg.rho,
        "gamma_th": cfg.gamma_th,
        "n_trials": n_trials,
        "divergence_mc": mean,
        "divergence_se": se,
        "divergence_exact": divergence_exact(energies, cfg.k_devices, cfg.gamma_th, cfg.rho, power, d_model),
        "divergence_bound": divergence_bound(cfg.k_devices, cfg.gamma_th, cfg.rho, power),
        "skip_fraction": float(np.mean(skips)),
    }
    meta: dict[str, object] = {
        "d_model": d_model,
        "g_bound": power.g_bound,
        "zeta": zeta,
        "lam": compensation_lambda(cfg.gamma_th, cfg.rho),
        "sum_grad_sq": math.fsum(energies),
        "noise_term_exact": noise_term_exact(cfg.k_devices, cfg.gamma_th, cfg.rho, power, d_model),
        "skip_prob_analytic": p_skip,
    }
    return SweepResult(columns=tuple(row), rows=[tuple(row.values())], meta=meta)


def divergence_gates(result: SweepResult) -> list[Gate]:
    """The Monte-Carlo divergence against its exact expectation at 4 SEs,
    with the trials that transmitted as its n: a skipped trial's divergence
    is exactly ||g||^2, blind to the noise term.  The a-priori bound travels
    in the detail, not in the verdict."""
    gates = []
    for row in result.records():
        detail = (f"mc={row['divergence_mc']:.6e} exact={row['divergence_exact']:.6e} "
                  f"se={row['divergence_se']:.2e} bound={row['divergence_bound']:.6e}")
        gates.append(Gate("divergence_exact_4se", row["divergence_mc"], row["divergence_exact"],
                          row["divergence_se"], _Z_LIMIT, detail=detail,
                          n=round(row["n_trials"] * (1.0 - row["skip_fraction"]))))
    return gates


def _basis_gradients(k_devices: int, d_model: int) -> np.ndarray:
    return np.eye(d_model)[np.arange(k_devices) % d_model]


def k_slope_scan(cfg: SystemConfig, jobs: int = 1) -> SweepResult:
    """Informational K-scaling of the divergence at unit gradient norms.

    Runs cfg.verify_divergence.scan_trials trials at each fleet size K of
    its scan_ks.  Every device transmits a fixed unit-norm gradient from a
    common distance of 100 m, so only the fleet size varies across rows.
    Trials run in the same block kernel as mc_weight_divergence, trial t of
    fleet size K on row t mod 256 of substream(seed, STREAM_MC_DIVERGENCE,
    K, t // 256), so neither the kernel's slices nor jobs changes a byte.
    The fitted log-log slope is reported in meta next to the slopes of the
    exact expression and of the printed bound (-2).  The exact expression's
    variance term scales as 1/K, its noise term as 1/K^2, so the fit lands
    between -1 and -2 depending on which share dominates.
    """
    ks, n_trials = cfg.verify_divergence.scan_ks, cfg.verify_divergence.scan_trials
    gamma_th = resolve(cfg).gamma_th
    # one device at the scan's distance: the power config of every fleet size
    power = power_config(replace(cfg, k_devices=1, distances=(_SCAN_DISTANCE,)), 1.0)
    systems = [(_basis_gradients(k, _SCAN_D_MODEL), power, gamma_th, cfg.rho, (k,)) for k in ks]
    rows = []
    for k, (div, _) in zip(ks, _divergence_mc(systems, cfg.seed, n_trials, jobs)):
        mean, se = _mean_se(div)
        exact = divergence_exact([1.0] * k, k, gamma_th, cfg.rho, power, _SCAN_D_MODEL)
        rows.append((k, mean, se, exact, divergence_bound(k, gamma_th, cfg.rho, power)))

    _, means, _, exacts, _ = zip(*rows)
    log_k = np.log(np.asarray(ks, dtype=float))
    slope_mc = float(np.polyfit(log_k, np.log(means), 1)[0])
    slope_exact = float(np.polyfit(log_k, np.log(exacts), 1)[0])
    return SweepResult(
        columns=("k_devices", "divergence_mc", "divergence_se", "divergence_exact", "divergence_bound"),
        rows=rows,
        meta={
            "n_trials": n_trials,
            "gamma_th": gamma_th,
            "fitted_slope": slope_mc,
            "exact_slope": slope_exact,
            "bound_slope": -2.0,
            "supported_scaling": "1/K" if slope_mc > -1.5 else "1/K^2",
        },
    )


def k_scan_line(scan: SweepResult) -> str:
    """The `INFO k_scaling: ...` line that reports a k_slope_scan's slopes."""
    return ("INFO k_scaling: fitted_slope={fitted_slope:.3f} exact_slope={exact_slope:.3f} "
            "bound_slope={bound_slope} supported={supported_scaling}").format_map(scan.meta)


# ---------------------------------------------------------------------------
# threshold sweep (training runs)


def _train_seed(job) -> list[tuple[float, float, float, float, float]]:
    """Train one seed's experiment at each of its thresholds, in lock-step
    on one SeedDraws: per cell the final accuracy, the mean divergence, the
    threshold, the printed bound at the G it used and the skipped share."""
    cfg, gammas = job  # a resolved config
    rows = []
    for trace in train_cells(SeedDraws(cfg), gammas):
        bound = divergence_bound(cfg.k_devices, trace.gamma_th, cfg.rho, power_config(cfg, trace.g_bound))
        rows.append((trace.final_accuracy, trace.mean_divergence_sq, trace.gamma_th, bound,
                     trace.skipped_rounds / trace.rounds))
    return rows


def sweep_modes(cfg: SystemConfig) -> tuple[str, ...]:
    """cfg.sweep.modes, or when unset every optimizer mode that has a
    threshold at cfg.rho (optimizer.threshold_modes), then 'fixed'."""
    return cfg.sweep.modes or (*threshold_modes(cfg.rho), "fixed")


def sweep_threshold(cfg: SystemConfig, jobs: int = 1) -> SweepResult:
    """Train across a threshold grid and the optimizer's operating points.

    Reads the grid cfg.sweep.gammas, the repetition count cfg.sweep.seeds
    and the modes of sweep_modes(cfg).  'fixed' trains once per grid
    threshold; every other mode trains once at the optimizer's threshold
    for that mode, solved on each repetition seed's resolved config.  Each
    row aggregates the seeds' repetitions into mean and standard error of
    the final test accuracy and of the measured per-round divergence.

    Each seed's config is resolved once, and its cells, which differ only
    in gamma_th, train on one SeedDraws: shards, batches, channel draws and
    the calibrated gradient bound are drawn once per seed, not once per
    cell, and the cells train in lock-step (fltrain.train_cells), one
    gradient call per round for the group.  Only each cell's final accuracy
    is evaluated.  A seed is the parallel unit, so at most cfg.sweep.seeds
    workers run; neither the sharing nor jobs changes a byte of the result.
    """
    grid = [float(g) for g in cfg.sweep.gammas]
    modes, n_seeds = sweep_modes(cfg), cfg.sweep.seeds
    cfgs = [resolve(replace(cfg, seed=cfg.seed + i)) for i in range(n_seeds)]
    # each seed's (mode, threshold) cells
    cells = [
        [(mode, g) for mode in modes
         for g in (grid if mode == "fixed" else [optimal_threshold(objective_coefficients(c), mode).gamma_star])]
        for c in cfgs
    ]
    by_seed = _pmap(_train_seed, [(c, [g for _, g in cs]) for c, cs in zip(cfgs, cells)], jobs)

    rows = []
    for (mode, _), *per_seed in zip(cells[0], *by_seed):
        accs, divs, gams, bounds, skipped = (np.array(column) for column in zip(*per_seed))
        rows.append((mode, float(np.mean(gams)), *_mean_se(accs), *_mean_se(divs),
                     float(np.mean(bounds)), float(np.mean(skipped))))

    return SweepResult(
        columns=("mode", "gamma_th", "accuracy_mean", "accuracy_se", "divergence_mean", "divergence_se",
                 "divergence_bound_mean", "skipped_fraction_mean"),
        rows=rows,
        meta={
            "n_seeds": n_seeds,
            "rounds_m": cfg.train.rounds_m,
            "task": cfg.train.task,
            "modes": ",".join(modes),
            "gamma_grid": ",".join(repr(g) for g in grid),
        },
    )


# ---------------------------------------------------------------------------
# CSV and manifest emission


def write_csv(path: Path, columns, rows) -> None:
    """The header and rows as CSV; the cells are plain int, float and str,
    as SweepResult holds them (_norm_row), and floats are written by repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _git_blob_sha1(data: bytes) -> str:
    h = hashlib.sha1(b"blob %d\x00" % len(data))
    h.update(data)
    return h.hexdigest()


def write_manifest(
    path: Path,
    cfg: SystemConfig,
    section: str | None,
    command: str,
    csv_paths: list[Path],
    meta: dict[str, object],
    notes=(),
) -> None:
    kv = config_to_kv(cfg, section)
    body = "".join(f"{k} = {v}\n" for k, v in kv)
    lines = [
        f"{_MANIFEST_HEADER} the key=value body below replays this run verbatim",
        f"# command: {command}",
        f"# package_version: {__version__}",
        f"# env stream_layout={STREAM_LAYOUT}",
        f"# config_sha1: {_git_blob_sha1(body.encode('utf-8'))}",
    ]
    for p in csv_paths:
        data = p.read_bytes()
        lines.append(f"# output: {p.name} sha1={_git_blob_sha1(data)} bytes={len(data)}")
    for key in sorted(meta):
        lines.append(f"# meta {key} = {_fmt(_norm_cell(meta[key]))}")
    for note in notes:
        lines.append(f"# {note}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n" + body)


def report(
    tables: dict[str, SweepResult | tuple],
    out_dir,
    name: str,
    cfg: SystemConfig,
    command: str,
    section: str | None = None,
    meta: dict[str, object] | None = None,
    notes=(),
) -> dict[str, Path]:
    """Write each table as <stem>.csv plus one <name>_manifest.txt into
    out_dir, an existing directory, which the CLI makes before the run.

    tables maps a CSV stem to a SweepResult or, for a deterministic table,
    a plain (columns, rows) pair, whose cells report normalizes as a
    SweepResult does its own.  The manifest's key=value body is a
    loadable config, with the named config section last, that replays the
    run bit-identically; its comment lines record the command, the stream
    layout (which load_config checks on replay), a git-style blob hash of
    the config body and of each CSV, the meta summaries, and any caller
    notes (gate verdicts, for instance).  Returns the path of each CSV by
    stem, and of the manifest under "manifest".
    """
    out = Path(out_dir)
    paths: dict[str, Path] = {}
    for stem, table in tables.items():
        if isinstance(table, SweepResult):
            columns, rows = table.columns, table.rows
        else:
            columns, rows = table[0], list(map(_norm_row, table[1]))
        if not rows:
            raise ValueError(f"{stem}: empty result; nothing to report")
        paths[stem] = out / f"{stem}.csv"
        write_csv(paths[stem], columns, rows)
    manifest_path = out / f"{name}_manifest.txt"
    write_manifest(manifest_path, cfg, section, command, list(paths.values()), meta or {}, notes)
    paths["manifest"] = manifest_path
    return paths
