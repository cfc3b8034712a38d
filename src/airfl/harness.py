"""Monte-Carlo verification, threshold sweeps, and CSV/manifest reporting.

Every closed form in the package has a sampling counterpart here: coefficient
moments, the joint law behind the variance derivation, and the frozen-gradient
weight divergence.  Comparisons follow the 4-standard-error rule, so each
estimator also returns its standard error; results are tabulated as
SweepResult and written as CSV plus a replayable run manifest.  Verdicts
are Gate records built from the results by xi_gates, pdf_gates and
divergence_gates, shared by the CLI and the acceptance suite.

Divergence trials are keyed by block (stream layout 2): trial t is row
t mod 256 of one draw from substream(seed, STREAM_MC_DIVERGENCE, *key,
t // 256), so neither the kernel's slices nor the jobs split changes a
byte.  The sampling kernels form each shared quantity once per chunk; see
mc_xi_moments_grid, _joint_chunk and TailSums.  scipy's quadrature is
imported only when a quadrature check runs.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .aircomp import (
    PowerConfig,
    _aligned,
    _gain,
    _truncated_ratio,
    aggregate_batch,
    compensation_lambda,
    dbm_to_watts,
    scaling_zeta,
)
from .analysis import (
    LearningConstants,
    conditional_second_moment,
    convergence_bound,
    divergence_bound,
    divergence_exact,
    joint_cdf_xy,
    joint_pdf_xy,
    noise_term_exact,
    skip_probability,
    xi_variance,
)
from .channel import (
    EstimationModel,
    channel_from_normals,
    draw_channel_block,
    draw_channel_rows,
    substream,
)
from .config import (
    _MANIFEST_HEADER,
    _MIN_TRIALS,
    _SWEEP_MODES,
    STREAM_INIT,
    STREAM_LAYOUT,
    STREAM_MC_DIVERGENCE,
    STREAM_MC_JOINT,
    STREAM_MC_XI,
    SystemConfig,
    check_key,
    config_to_kv,
    resolve,
)
from .fltrain import (
    SeedDraws,
    TrainingTrace,
    ideal_aggregate,
    max_grad_norm,
    round_gradients,
    train_cells,
)
from .optimizer import coefficients_from_system, optimal_threshold

_CHUNK = 1 << 20
_MIN_XI_SAMPLES = 10_000
_MIN_JOINT_SAMPLES = 1_000_000
_MASS_CONSISTENCY_TOL = 1e-9  # quadrature vs CDF-rectangle cross-check
_NORM_GAMMA_MIN = -40.0  # lower gamma edge of the density normalization
_FD_STEP = 1e-4  # spacing of the CDF/density finite-difference stencil
_SCAN_DISTANCE = 100.0  # the K-scan's common device distance, meters
_SCAN_D_MODEL = 10  # the K-scan's model dimension: device k sends basis vector k mod 10
_Z_LIMIT = 4.0  # the 4-standard-error rule of every 'z' gate
# divergence trials per stream, a constant of stream layout 2: trial t is
# row t mod 256 of substream(seed, STREAM_MC_DIVERGENCE, *key, t // 256)
_TRIAL_BLOCK = 256
_BLOCK_FLOATS = 1 << 16  # caps a kernel slice's (trials, d) arrays at 512 kB each
# samples per slice of a joint-law chunk: keeps its temporaries at 512 kB each
_JOINT_SLICE = 1 << 16


# ---------------------------------------------------------------------------
# result containers


def _norm_cell(v):
    if isinstance(v, (bool, np.bool_, np.integer)):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


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
            normalized.append(tuple(_norm_cell(v) for v in row))
        self.rows = normalized

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


_GATE_KINDS = ("z", "abs", "rel", "tv")


def _fixed(v: float) -> str:
    # two decimals, or exponent form once the fixed form would run past 10 digits
    return f"{v:.3e}" if abs(v) >= 1e6 else f"{v:.2f}"


@dataclass(frozen=True)
class Gate:
    """One verdict: an estimate against its reference under a limit.

    kind 'z' is the 4-standard-error rule, |estimate - reference| <= limit * se;
    'abs' is |estimate - reference| <= limit; 'rel' is
    |estimate - reference| / |reference| < limit; 'tv' is a distance,
    |estimate - reference| < limit.  Only a 'z' gate carries an se.  A NaN
    estimate fails every kind; detail says what was measured.
    """

    name: str
    estimate: float
    reference: float
    se: float | None
    limit: float
    kind: str = "z"
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _GATE_KINDS:
            raise ValueError(f"gate kind must be one of {_GATE_KINDS}, got {self.kind!r}")
        if (self.se is None) == (self.kind == "z"):
            raise ValueError("a 'z' gate needs an se and no other kind takes one")

    @property
    def deviation(self) -> float:
        """|estimate - reference| in the gate's unit (SEs for 'z')."""
        gap = abs(self.estimate - self.reference)
        if self.kind == "z":
            return gap / self.se if self.se > 0.0 else (0.0 if gap == 0.0 else math.inf)
        if self.kind == "rel":
            return gap / abs(self.reference)
        return gap

    @property
    def z(self) -> float | None:
        return self.deviation if self.kind == "z" else None

    @property
    def margin(self) -> float:
        return self.limit - self.deviation

    @property
    def passed(self) -> bool:
        gap = abs(self.estimate - self.reference)
        if self.kind == "z":
            return gap <= self.limit * self.se
        if self.kind == "abs":
            return gap <= self.limit
        return self.deviation < self.limit

    def summary(self) -> str:
        if self.kind == "z":
            tail = f"z={_fixed(self.z)} limit={self.limit:g} margin={_fixed(self.margin)}"
        else:
            tail = f"limit={self.limit:g} margin={self.margin:.3g}"
        return f"{self.detail} {tail}" if self.detail else tail


def verdict_lines(gates) -> list[str]:
    """One `PASS name: ...` or `FAIL name: ...` line per gate name.

    Gates sharing a name (a cell's z-score and relative checks) make one
    line that passes only when all of them pass.
    """
    by_name: dict[str, list[Gate]] = {}
    for g in gates:
        by_name.setdefault(g.name, []).append(g)
    return [
        f"{'PASS' if all(g.passed for g in group) else 'FAIL'} {name}: "
        + "; ".join(g.summary() for g in group)
        for name, group in by_name.items()
    ]


@dataclass(frozen=True)
class XiMomentsResult:
    """Sample moments of the effective coefficient with standard errors."""

    rho: float
    gamma_th: float
    n_samples: int
    mean: float
    variance: float
    se_mean: float
    se_var: float
    variance_closed: float
    active_fraction: float
    se_active: float
    active_expected: float


class TailSums(NamedTuple):
    """The samples of one draw with y <= -gamma: their count and the power
    sums (sum x, sum x^2, sum x^3, sum x^4) of x."""

    gamma: float
    count: int
    sums: tuple[float, float, float, float]

    def second_moment(self, c: float) -> tuple[float, float]:
        """E[(x - c)^2 | y <= -gamma] and its standard error, from the sums
        of (x - c)^2 and (x - c)^4 expanded in powers of x."""
        n = self.count
        if n < 2:
            raise RuntimeError(f"only {n} samples cleared gamma_th={self.gamma!r}; cannot estimate")
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


def mc_xi_moments(
    rho: float, gamma_th: float, n_samples: int, seed: int, chunk: int = _CHUNK
) -> XiMomentsResult:
    """Sample the effective aggregation coefficient and compare moments.

    Draws n_samples independent channel/estimate pairs, forms xi by
    aircomp's one formula, that of effective_coefficients (lambda
    Re{h* h_hat}/|h_hat|^2 on the active event, 0 otherwise), and returns
    the sample mean and unbiased variance with standard errors (the
    variance SE uses the fourth-central-moment formula).  Sums are
    accumulated around the known unit mean to keep the moment arithmetic
    well conditioned.  The one-cell case of mc_xi_moments_grid, which
    verify-xi uses: there all cells share one draw, so their z-scores are
    correlated.
    """
    return mc_xi_moments_grid([(rho, gamma_th)], n_samples, seed, chunk)[0]


def mc_xi_moments_grid(
    cells, n_samples: int, seed: int, chunk: int = _CHUNK
) -> list[XiMomentsResult]:
    """mc_xi_moments for every (rho, gamma_th) cell, on one shared draw.

    Each chunk of substream(seed, STREAM_MC_XI) is drawn once, and each
    quantity is formed once for the cells that share it: |h_hat|^2 once
    per chunk, h and Re{conj(h) h_hat} once per distinct rho, and xi once
    per cell, by aircomp's one xi formula (_truncated_ratio).  Every cell's
    result equals its own mc_xi_moments call with the same seed and chunk.
    Because the cells share their draws (common random numbers), their
    estimates and z-scores are correlated, not independent.
    """
    if n_samples < _MIN_XI_SAMPLES:
        raise ValueError(f"need at least {_MIN_XI_SAMPLES} samples (trials), got {n_samples}")
    lams = []
    by_rho: dict[float, list[int]] = {}
    for k, (rho, gamma_th) in enumerate(cells):
        lams.append(compensation_lambda(gamma_th, rho))  # checks gamma_th and rho
        by_rho.setdefault(rho, []).append(k)
    if not cells:
        return []
    # alpha plays no role in the coefficient; any valid value works here
    first = EstimationModel(rho=cells[0][0], alpha=2.0)
    gen = substream(seed, STREAM_MC_XI)

    # each array is deleted before the next one is formed, so that no step
    # holds more than the draw itself did
    chunk_sums: list[list[tuple]] = [[] for _ in cells]
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        h_first, h_hat, v = draw_channel_block(first, m, gen)
        gain = _gain(h_hat)
        for rho, ks in by_rho.items():
            # draw_channel_block's own expression, so each cell sees the h of its own call
            h = h_first if rho == first.rho else rho * h_hat + math.sqrt(1.0 - rho * rho) * v
            aligned = _aligned(h, h_hat)
            del h
            for k in ks:
                chunk_sums[k].append(_xi_cell_sums(gain, aligned, cells[k][1], lams[k]))
            del aligned
        del h_first, h_hat, v, gain
        done += m
    return [
        _xi_result(rho, gamma_th, n_samples, chunk_sums[k])
        for k, (rho, gamma_th) in enumerate(cells)
    ]


def _xi_cell_sums(gain, aligned, gamma_th: float, lam: float) -> tuple[int, float, float, float, float]:
    """One cell on one chunk: the active count and the sums of y, y^2, y^3
    and y^4 for y = xi - 1, formed in place over xi's own array, whose
    temporaries are gone when the next cell starts."""
    y, active = _truncated_ratio(gain, aligned, gamma_th, lam)
    y -= 1.0
    return int(np.count_nonzero(active)), *_power_sums(y)


def _power_sums(y: np.ndarray) -> tuple[float, float, float, float]:
    """The sums of y, y^2, y^3 and y^4; y^3 and y^4 overwrite y and y^2, so
    two arrays are held."""
    y2 = y * y
    s1, s2 = float(np.sum(y)), float(np.sum(y2))
    y *= y2
    y2 *= y2
    return s1, s2, float(np.sum(y)), float(np.sum(y2))


def _merge_sums(chunk_sums) -> tuple[int, tuple[float, ...]]:
    """The total count and the math.fsum of each power sum over chunks of
    (count, s1, s2, s3, s4)."""
    counts, *parts = zip(*chunk_sums)
    return sum(counts), tuple(math.fsum(p) for p in parts)


def _xi_result(rho, gamma_th, n_samples: int, chunk_sums) -> XiMomentsResult:
    n_active, (s1, s2, s3, s4) = _merge_sums(chunk_sums)
    n = float(n_samples)
    a = s1 / n  # sample mean of xi - 1
    m2 = s2 / n - a * a
    m4 = s4 / n - 4.0 * a * s3 / n + 6.0 * a * a * s2 / n - 3.0 * a**4
    var = m2 * n / (n - 1.0)
    se_mean = math.sqrt(var / n)
    se_var = math.sqrt(max(m4 - m2 * m2 * (n - 3.0) / (n - 1.0), 0.0) / n)
    p_act = n_active / n
    return XiMomentsResult(
        rho=rho,
        gamma_th=gamma_th,
        n_samples=n_samples,
        mean=1.0 + a,
        variance=var,
        se_mean=se_mean,
        se_var=se_var,
        variance_closed=xi_variance(gamma_th, rho),
        active_fraction=p_act,
        se_active=math.sqrt(p_act * (1.0 - p_act) / n),
        active_expected=math.exp(-gamma_th),
    )


def xi_gates(results) -> list[Gate]:
    """Per cell: the mean against 1 and the variance against the closed form
    at 4 SEs; where the closed variance exceeds 0.1 the variance must also
    sit within 2 % of it."""
    gates = []
    for r in results:
        cell = f"rho={r.rho:g} gamma={r.gamma_th:g}"
        gates.append(
            Gate(f"xi_mean[{cell}]", r.mean, 1.0, r.se_mean, _Z_LIMIT,
                 detail=f"mean={r.mean:.6f} se={r.se_mean:.2e}")
        )
        gates.append(
            Gate(f"xi_var[{cell}]", r.variance, r.variance_closed, r.se_var, _Z_LIMIT,
                 detail=f"mc={r.variance:.6f} closed={r.variance_closed:.6f} se={r.se_var:.2e}")
        )
        if r.variance_closed > 0.1:
            rel = abs(r.variance - r.variance_closed) / r.variance_closed
            gates.append(
                Gate(f"xi_var[{cell}]", r.variance, r.variance_closed, None, 0.02,
                     kind="rel", detail=f"rel={rel:.4f}")
            )
    return gates


# ---------------------------------------------------------------------------
# joint law of (x, y) = (Re{v* h_hat}/|h_hat|^2, -|h_hat|^2)


def _bin_mass(t0: float, t1: float, g0: float, g1: float) -> float:
    """Mass of the analytic density over [t0,t1] x [g0,g1], g1 <= 0.

    The t-integral of the density is available in closed form (a Gaussian
    slice), leaving the smooth 1-D integrand e^g (erf(t1 s) - erf(t0 s))/2
    with s = sqrt(-g), which adaptive quadrature handles to ~1e-13.
    """
    from scipy.integrate import quad  # deferred: scipy costs ~0.6 s at import

    def integrand(g: float) -> float:
        s = math.sqrt(-g)
        return 0.5 * math.exp(g) * (math.erf(t1 * s) - math.erf(t0 * s))

    val, _ = quad(integrand, g0, g1, epsabs=1e-13, epsrel=1e-12)
    return val


def cdf_rect_masses(t_edges: np.ndarray, g_edges: np.ndarray) -> np.ndarray:
    """Mass of every [t_i, t_i+1] x [g_j, g_j+1] rectangle from CDF differences,
    F(t1, g1) - F(t0, g1) - F(t1, g0) + F(t0, g0), with F evaluated once per
    grid point."""
    F = np.array([[joint_cdf_xy(t, g) for g in g_edges] for t in t_edges])
    return F[1:, 1:] - F[:-1, 1:] - F[1:, :-1] + F[:-1, :-1]


def _bin_index(v: np.ndarray, edges: np.ndarray) -> np.ndarray:
    # bin of each v in [edges[0], edges[-1]] for uniform edges, assigned as
    # np.histogram does: arithmetic index, then a one-step correction
    # against the edges themselves, with the last bin closed on the right
    n = edges.size - 1
    idx = ((v - edges[0]) * (n / (edges[-1] - edges[0]))).astype(np.intp)
    np.minimum(idx, n - 1, out=idx)
    idx -= v < edges[idx]
    idx += (v >= edges[idx + 1]) & (idx != n - 1)
    return idx


def histogram2d_counts(
    x: np.ndarray, y: np.ndarray, x_edges: np.ndarray, y_edges: np.ndarray
) -> np.ndarray:
    """np.histogram2d(x, y, bins=(x_edges, y_edges))[0] as int64 counts, for
    uniform (np.linspace) edges: values outside the window are dropped and
    the last edge of each axis is closed.  Indexes bins arithmetically and
    counts them with np.bincount instead of searchsorted."""
    keep = (x >= x_edges[0]) & (x <= x_edges[-1]) & (y >= y_edges[0]) & (y <= y_edges[-1])
    x, y = x[keep], y[keep]
    ny = y_edges.size - 1
    flat = _bin_index(x, x_edges)
    flat *= ny
    flat += _bin_index(y, y_edges)
    return np.bincount(flat, minlength=(x_edges.size - 1) * ny).reshape(-1, ny)


def _joint_chunk(z: np.ndarray, t_edges, g_edges, tail_gammas) -> tuple[np.ndarray, list[tuple]]:
    """The bin counts of one chunk of draw_channel_rows, and per threshold
    the count and the power sums of x on the chunk's tail in draw order.

    Works in slices of _JOINT_SLICE samples: x = Re{v* h_hat}/|h_hat|^2 is
    divided once per slice, and each tail is the slice's x where
    |h_hat|^2 >= gamma.
    """
    counts = np.zeros((t_edges.size - 1, g_edges.size - 1), dtype=np.int64)
    x_parts: list[list[np.ndarray]] = [[] for _ in tail_gammas]
    for lo in range(0, z.shape[1], _JOINT_SLICE):
        h_re, h_im, v_re, v_im = z[:, lo:lo + _JOINT_SLICE]
        gain = h_re * h_re + h_im * h_im
        x = v_re * h_re + v_im * h_im
        if not gain.all():  # zero gain has probability zero; drop it before dividing
            pos = gain > 0.0
            gain, x = gain[pos], x[pos]
        x /= gain
        counts += histogram2d_counts(x, -gain, t_edges, g_edges)
        for parts, tail_gamma in zip(x_parts, tail_gammas):
            parts.append(x[gain >= tail_gamma])
    # one sum per power over the chunk's tail
    tail_sums = []
    for parts in x_parts:
        x = np.concatenate(parts)
        tail_sums.append((x.size, *_power_sums(x)))
    return counts, tail_sums


def mc_joint_distribution_check(
    gamma_range: tuple[float, float],
    t_range: tuple[float, float],
    n_samples: int,
    seed: int,
    bins: int = 40,
    tail_gammas: tuple[float, ...] = (1.0,),
    chunk: int = _CHUNK,
) -> JointLawResult:
    """Histogram the sampled (x, y) pair against the analytic density.

    Returns one row per bin with the empirical mass, its binomial standard
    error, and the analytic mass (density integrated over the bin).  meta
    carries the total-variation distance between the binned laws (mass
    outside the window lumped into one cell) and, at the first of
    tail_gammas, the tail probability Pr{y <= -tail_gamma} against
    exp(-tail_gamma) and E[x^2 | tail] against the closed form.  tails
    holds the count and power sums of x on every threshold's tail of the
    one draw, from which E[(x - c)^2 | tail] follows for any c.

    The draw is made chunk by chunk, and a chunk's arrays are gone before
    the next is drawn.  Within a chunk x is divided once per sample and
    serves the histogram and every tail (_joint_chunk); a sample with
    |h_hat|^2 = 0, which has probability zero, is dropped first.
    """
    if n_samples < _MIN_JOINT_SAMPLES:
        raise ValueError(f"need at least {_MIN_JOINT_SAMPLES} samples (trials), got {n_samples}")
    gamma_range, t_range = (tuple(float(v) for v in r) for r in (gamma_range, t_range))
    tail_gammas = tuple(float(g) for g in tail_gammas)
    if not tail_gammas:
        raise ValueError("tail_gammas must hold one or more thresholds")
    # each setting meets the rule of the verify_pdf key that holds it
    for key, value in (("verify_pdf.gamma_range", gamma_range), ("verify_pdf.t_range", t_range),
                       ("verify_pdf.bins", bins), *(("verify_pdf.tail_gamma", g) for g in tail_gammas)):
        check_key(key, value)
    (g_lo, g_hi), (t_lo, t_hi) = gamma_range, t_range

    t_edges = np.linspace(t_lo, t_hi, bins + 1)
    g_edges = np.linspace(g_lo, g_hi, bins + 1)
    # the pair (x, y) involves only the estimate and the estimation noise,
    # so rho does not enter and h is never formed
    gen = substream(seed, STREAM_MC_JOINT)

    counts = np.zeros((bins, bins), dtype=np.int64)
    chunk_tails = []
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        # the chunk's arrays are freed when the pass returns, before the next draw
        chunk_counts, tail_sums = _joint_chunk(draw_channel_rows(m, gen), t_edges, g_edges, tail_gammas)
        counts += chunk_counts
        chunk_tails.append(tail_sums)
        done += m
    tails = [TailSums(g, *_merge_sums(sums)) for g, sums in zip(tail_gammas, zip(*chunk_tails))]

    mass = np.empty((bins, bins))
    for i in range(bins):
        for j in range(bins):
            mass[i, j] = _bin_mass(t_edges[i], t_edges[i + 1], g_edges[j], g_edges[j + 1])
    worst_gap = float(np.max(np.abs(mass - cdf_rect_masses(t_edges, g_edges))))
    if worst_gap > _MASS_CONSISTENCY_TOL:
        raise RuntimeError(
            f"density and CDF disagree on a bin mass by {worst_gap}; internal inconsistency"
        )

    n = float(n_samples)
    p_emp = counts / n
    inside_emp = float(p_emp.sum())
    inside_ana = float(mass.sum())
    tv = 0.5 * (float(np.abs(p_emp - mass).sum()) + abs(inside_ana - inside_emp))

    p_se = np.sqrt(p_emp * (1.0 - p_emp) / n)
    rows = [
        (float(t_edges[i]), float(t_edges[i + 1]), float(g_edges[j]), float(g_edges[j + 1]),
         float(p_emp[i, j]), float(p_se[i, j]), float(mass[i, j]))
        for i in range(bins) for j in range(bins)
    ]

    first = tails[0]
    p_tail = first.count / n
    meta: dict[str, object] = {
        "n_samples": n_samples,
        "bins": bins,
        "tv_distance": tv,
        "outside_mass_mc": 1.0 - inside_emp,
        "outside_mass_analytic": 1.0 - inside_ana,
        "tail_gamma": first.gamma,
        "tail_prob_mc": p_tail,
        "tail_prob_se": math.sqrt(p_tail * (1.0 - p_tail) / n),
        "tail_prob_expected": math.exp(-first.gamma),
    }
    if first.count > 1:
        meta["cond_m2_mc"], meta["cond_m2_se"] = first.second_moment(0.0)
        meta["cond_m2_expected"] = conditional_second_moment(first.gamma, 0.0)
        meta["cond_count"] = first.count
    return JointLawResult(
        columns=("t_lo", "t_hi", "gamma_lo", "gamma_hi", "mass_mc", "mass_mc_se", "mass_analytic"),
        rows=rows,
        meta=meta,
        tails=tuple(tails),
    )


def pdf_normalization() -> float:
    """Quadrature of the joint density over t in R, gamma in [-40, 0).

    Substituting gamma = -s^2 removes the square-root singularity at the
    origin; the remaining integrand is smooth and dblquad resolves it well
    below the 1e-6 acceptance tolerance.  The mass below -40 is e^-40,
    negligible.
    """
    from scipy.integrate import dblquad  # deferred, as in _bin_mass

    s_max = math.sqrt(-_NORM_GAMMA_MIN)
    val, _ = dblquad(
        lambda t, s: 2.0 * s * joint_pdf_xy(t, -s * s),
        0.0,
        s_max,
        -np.inf,
        np.inf,
        epsabs=1e-9,
        epsrel=1e-9,
    )
    return float(val)


def cdf_pdf_consistency(t_values, gamma_values) -> float:
    """Worst |mixed central difference of the CDF - density| over a grid.

    The CDF is differenced with the standard four-point stencil at spacing
    1e-4 in both arguments; gamma points must stay below -1e-4 so the
    stencil never crosses the support boundary.
    """
    step = _FD_STEP
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


def pdf_gates(result: SweepResult, norm: float, fd_worst: float) -> list[Gate]:
    """Gates of the joint-law check: binned total variation below 0.02,
    density normalization within 1e-6 of 1, CDF/density consistency within
    1e-4, and the tail probability and conditional second moment (c = 0) at
    the first tail threshold, at 4 SEs.  A tail too thin to estimate the
    conditional moment fails that gate."""
    meta = result.meta
    tv = meta["tv_distance"]
    p_tail, se_tail, p_exp = meta["tail_prob_mc"], meta["tail_prob_se"], meta["tail_prob_expected"]
    m2_exp = conditional_second_moment(meta["tail_gamma"], 0.0)
    if "cond_m2_mc" in meta:
        m2, m2_se = meta["cond_m2_mc"], meta["cond_m2_se"]
        m2_detail = f"mc={m2:.6f} expected={m2_exp:.6f} se={m2_se:.2e}"
    else:
        m2 = m2_se = math.nan
        m2_detail = (
            f"fewer than 2 of {meta['n_samples']} samples cleared "
            f"tail_gamma={meta['tail_gamma']!r}; cannot estimate"
        )
    return [
        Gate("pdf_tv_distance", tv, 0.0, None, 0.02, kind="tv",
             detail=f"tv={tv:.5f} n={meta['n_samples']}"),
        Gate("pdf_normalization", norm, 1.0, None, 1e-6, kind="abs",
             detail=f"integral={norm!r}"),
        Gate("cdf_pdf_consistency", fd_worst, 0.0, None, 1e-4, kind="abs",
             detail=f"worst_abs_err={fd_worst:.3e}"),
        Gate("truncation_tail", p_tail, p_exp, se_tail, _Z_LIMIT,
             detail=f"mc={p_tail:.6f} expected={p_exp:.6f} se={se_tail:.2e}"),
        Gate("conditional_second_moment", m2, m2_exp, m2_se, _Z_LIMIT, detail=m2_detail),
    ]


# ---------------------------------------------------------------------------
# frozen-gradient weight divergence


def _frozen_setup(cfg: SystemConfig):
    """Round zero's K gradients and the power config at the G training would
    use in that round: the round's largest norm under genie power control,
    else the pinned or the calibrated bound."""
    exp = resolve(cfg)
    draws = SeedDraws(exp)
    w0 = draws.task.init_params(substream(exp.seed, STREAM_INIT))
    grads = round_gradients(w0, draws, 0)
    g_bound = max_grad_norm(grads) if cfg.g_mode == "genie" else cfg.g_bound or draws.calibrated_g_bound()
    return exp, grads, exp.power_config(g_bound)


def _trial_rows(seed: int, stream: tuple[int, ...], lo: int, hi: int, width: int, step: int):
    """(t, rows) slices of at most `step` rows covering trials [lo, hi).
    Trial t's row is row t mod B of one (B, width) normal draw from
    substream(seed, *stream, t // B); numpy fills it row by row, so a block
    is drawn in slices from its one generator, rows before lo dropped."""
    for block in range(lo // _TRIAL_BLOCK, -(-hi // _TRIAL_BLOCK)):
        gen = substream(seed, *stream, block)
        t = block * _TRIAL_BLOCK
        stop = min(hi, t + _TRIAL_BLOCK)
        while t < stop:
            n = min(step, (lo if t < lo else stop) - t)
            rows = gen.standard_normal((n, width))
            if t >= lo:
                yield t, rows
            t += n


def _divergence_trials(args) -> tuple[np.ndarray, np.ndarray]:
    """Squared divergence and skip flag of trials [lo, hi) over frozen gradients.

    args is (grads of shape (K, d), power, gamma_th, rho, seed, key, lo, hi).
    Trial t reads its row of normals from `_trial_rows` on the stream
    (STREAM_MC_DIVERGENCE, *key): K x 4 channel normals in draw_channel's
    order, then, when sigma2 > 0, the d receiver-noise normals that one
    `aggregate` call would add, used only if some device is active.  Each
    slice of trials is aggregated by one aircomp.aggregate_batch call, its
    batch axis over trials.  A trial's row depends on t alone, so the slice
    and chunk bounds change no bit.
    """
    grads, power, gamma_th, rho, seed, key, lo, hi = args
    k_devices, d_model = grads.shape
    lam = compensation_lambda(gamma_th, rho)
    zeta = scaling_zeta(k_devices, rho, power, gamma_th)
    noise_scale = math.sqrt(power.sigma2) / (math.sqrt(2.0) * zeta)
    g_ideal = ideal_aggregate(grads)
    step = max(1, min(_TRIAL_BLOCK, _BLOCK_FLOATS // d_model))
    n_channel = 4 * k_devices
    width = n_channel + (d_model if power.sigma2 > 0.0 else 0)
    div = np.empty(hi - lo)
    skips = np.empty(hi - lo, dtype=bool)
    for t, rows in _trial_rows(seed, (STREAM_MC_DIVERGENCE, *key), lo, hi, width, step):
        noise = rows[:, n_channel:] * noise_scale if power.sigma2 > 0.0 else None
        # the slice's channel arrays live only for the call: (n, K) complex each
        z = rows[:, :n_channel].reshape(len(rows), k_devices, 4)
        _, _, sent, g_hat = aggregate_batch(grads, *channel_from_normals(z, rho), gamma_th, lam, noise)
        diff = g_hat - g_ideal
        out = slice(t - lo, t - lo + len(rows))
        # one stacked (1, d) @ (d, 1) product per trial: numpy's vector dot, as r @ r is
        div[out] = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
        skips[out] = ~sent
    return div, skips


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean of x and its standard error."""
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(len(x)))


def _pool_size(jobs: int, n_items: int) -> int:
    """Worker processes for n_items tasks: at most jobs and the host's CPUs."""
    return max(1, min(jobs, n_items, os.cpu_count() or 1))


def _trial_chunks(n: int, jobs: int) -> list[tuple[int, int]]:
    # whole trial blocks per chunk, so that no block's stream is drawn twice
    size = -(-n // _pool_size(jobs, n))
    size = -(-size // _TRIAL_BLOCK) * _TRIAL_BLOCK
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


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
            scope.pool = ProcessPoolExecutor(max_workers=workers)
        return list(scope.pool.map(fn, items))


def mc_weight_divergence(cfg: SystemConfig, n_trials: int, jobs: int = 1) -> SweepResult:
    """Monte-Carlo E||g_hat - g||^2 with one round's gradients held fixed.

    Freezes the K mini-batch gradients of round zero once, then repeats the
    over-the-air aggregation n_trials times in the block kernel
    `_divergence_trials`.  Trial t draws its channels and noise from row t
    mod 256 of its block's stream substream(seed, STREAM_MC_DIVERGENCE, t //
    256), so neither the kernel's slices nor the jobs split changes a byte
    of the serial result.  The
    row reports the MC estimate with its SE next to the exact expectation
    for those gradients and the a-priori bound.

    Rounds whose active set is empty contribute ||g||^2 and no noise (the
    skipped-round convention); the exact expectation and meta's
    noise_term_exact weight the noise by the probability 1 - p_skip of a
    round that transmits, and p_skip = (1 - e^-g)^K is reported in meta.
    """
    if n_trials < _MIN_TRIALS:
        raise ValueError(f"need at least {_MIN_TRIALS} trials, got {n_trials}")
    exp, grads, power = _frozen_setup(cfg)
    frozen = (grads, power, exp.gamma_th, exp.rho, exp.seed, ())
    results = _pmap(_divergence_trials, [(*frozen, lo, hi) for lo, hi in _trial_chunks(n_trials, jobs)], jobs)
    div = np.concatenate([r[0] for r in results])
    skips = np.concatenate([r[1] for r in results])

    energies = [float(g @ g) for g in grads]
    d_model = grads[0].shape[0]
    zeta = scaling_zeta(exp.k_devices, exp.rho, power, exp.gamma_th)
    p_skip = skip_probability(exp.k_devices, exp.gamma_th)
    mean, se = _mean_se(div)
    row = {
        "k_devices": exp.k_devices,
        "rho": exp.rho,
        "gamma_th": exp.gamma_th,
        "n_trials": n_trials,
        "divergence_mc": mean,
        "divergence_se": se,
        "divergence_exact": divergence_exact(energies, exp.k_devices, exp.gamma_th, exp.rho, power, d_model),
        "divergence_bound": divergence_bound(exp.k_devices, exp.gamma_th, exp.rho, power),
        "skip_fraction": float(np.mean(skips)),
    }
    meta: dict[str, object] = {
        "d_model": d_model,
        "g_bound": power.g_bound,
        "zeta": zeta,
        "lam": compensation_lambda(exp.gamma_th, exp.rho),
        "sum_grad_sq": math.fsum(energies),
        "noise_term_exact": noise_term_exact(exp.k_devices, exp.gamma_th, exp.rho, power, d_model),
        "skip_prob_analytic": p_skip,
    }
    return SweepResult(columns=tuple(row), rows=[tuple(row.values())], meta=meta)


def divergence_gates(result: SweepResult) -> list[Gate]:
    """The Monte-Carlo divergence against its exact expectation at 4 SEs;
    the a-priori bound travels in the detail, not in the verdict."""
    return [
        Gate("divergence_exact_4se", row["divergence_mc"], row["divergence_exact"],
             row["divergence_se"], _Z_LIMIT,
             detail=f"mc={row['divergence_mc']:.6e} exact={row['divergence_exact']:.6e} "
             f"se={row['divergence_se']:.2e} bound={row['divergence_bound']:.6e}")
        for row in (dict(zip(result.columns, r)) for r in result.rows)
    ]


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
    try:
        d_max_alpha = _SCAN_DISTANCE**cfg.alpha
    except OverflowError:
        raise ValueError(f"alpha = {cfg.alpha!r} overflows the scan's path loss {_SCAN_DISTANCE} ** alpha") from None
    power = PowerConfig(p_max=cfg.p_max, sigma2=dbm_to_watts(cfg.sigma2_dbm), g_bound=1.0, d_max_alpha=d_max_alpha)
    # one map over every (K, chunk) unit: no barrier between fleet sizes
    chunks = _trial_chunks(n_trials, jobs)
    units = []
    for k in ks:
        frozen = (_basis_gradients(k, _SCAN_D_MODEL), power, gamma_th, cfg.rho, cfg.seed, (k,))
        units += [(*frozen, lo, hi) for lo, hi in chunks]
    results = _pmap(_divergence_trials, units, jobs)
    rows = []
    for i, k in enumerate(ks):
        per_k = results[i * len(chunks) : (i + 1) * len(chunks)]
        mean, se = _mean_se(np.concatenate([r[0] for r in per_k]))
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


# ---------------------------------------------------------------------------
# threshold sweep (training runs)


def _cell_row(exp, trace: TrainingTrace) -> tuple[float, float, float, float, float]:
    power = exp.power_config(trace.g_bound)
    bound = divergence_bound(exp.k_devices, exp.gamma_th, exp.rho, power)
    return (
        trace.final_accuracy,
        trace.mean_divergence_sq,
        float(trace.gamma_th),
        bound,
        trace.skipped_rounds / trace.rounds,
    )


def _train_seed_cells(cfgs: list[SystemConfig]) -> list[tuple[float, float, float, float, float]]:
    """Train cells that share a seed in lock-step on one SeedDraws."""
    exps = [resolve(c) for c in cfgs]
    traces = train_cells(exps, SeedDraws(exps[0]))
    return [_cell_row(exp, trace) for exp, trace in zip(exps, traces)]


def _computation_gamma(cfg: SystemConfig) -> float:
    # k2 never enters the computation-oriented objective; the probe power
    # config only feeds the k1 = (1 - rho^2)/(2 rho^2) path
    probe = PowerConfig(
        p_max=cfg.p_max, sigma2=dbm_to_watts(cfg.sigma2_dbm), g_bound=1.0, d_max_alpha=1.0
    )
    coef = coefficients_from_system(cfg.rho, probe)
    return optimal_threshold(coef, mode="computation_oriented").gamma_star


def sweep_modes(cfg: SystemConfig) -> tuple[str, ...]:
    """cfg.sweep.modes, or when unset every mode that applies at cfg.rho:
    under perfect CSI the computation term is monotone, so
    'computation_oriented' has no threshold there."""
    return cfg.sweep.modes or tuple(m for m in _SWEEP_MODES if cfg.rho < 1.0 or m != "computation_oriented")


def sweep_threshold(cfg: SystemConfig, jobs: int = 1) -> SweepResult:
    """Train across a threshold grid and the optimizer's operating points.

    Reads the grid cfg.sweep.gammas, the repetition count cfg.sweep.seeds
    and the modes of sweep_modes(cfg).  'fixed' trains once per grid
    threshold; 'joint' resolves gamma* per repetition seed (the optimum
    depends on the drawn distances); 'communication_oriented' pins 0.5 and
    'computation_oriented' minimizes the CSI-error term alone.  Each row
    aggregates the seeds' repetitions into mean and standard error of the
    final test accuracy and of the measured per-round divergence.

    The cells that share a seed differ only in gamma_th, so they train on
    one SeedDraws: shards, batches, channel draws and the calibrated
    gradient bound are drawn once per seed, not once per cell, and the
    cells train in lock-step (fltrain.train_cells), one gradient call per
    round for the group.  Only each cell's final accuracy is evaluated.  A
    seed group is the parallel unit, so at most cfg.sweep.seeds workers run;
    neither the sharing nor jobs changes a byte of the result.
    """
    gammas = [float(g) for g in cfg.sweep.gammas]
    modes, n_seeds = sweep_modes(cfg), cfg.sweep.seeds

    def seeded(gamma_th) -> list[SystemConfig]:
        return [replace(cfg, gamma_th=gamma_th, seed=cfg.seed + i) for i in range(n_seeds)]

    groups: list[tuple[str, list[SystemConfig]]] = []
    for mode in modes:
        if mode == "fixed":
            groups += [(mode, seeded(g)) for g in gammas]
        else:
            pinned = {"joint": "optimize", "communication_oriented": 0.5}.get(mode)
            groups.append((mode, seeded(pinned or _computation_gamma(cfg))))

    # every group lists its cells in seed order, so cells[i::n_seeds] are
    # the cells of seed cfg.seed + i
    cells = [c for _, cfgs in groups for c in cfgs]
    results = [None] * len(cells)
    by_seed = _pmap(_train_seed_cells, [cells[i::n_seeds] for i in range(n_seeds)], jobs)
    for i, part in enumerate(by_seed):
        results[i::n_seeds] = part

    rows = []
    idx = 0
    for mode, cfgs in groups:
        part = results[idx : idx + len(cfgs)]
        idx += len(cfgs)
        accs, divs, gams, bounds, skipped = (np.array(column) for column in zip(*part))
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
            "gamma_grid": ",".join(repr(g) for g in gammas),
        },
    )


# ---------------------------------------------------------------------------
# training summary (convergence-bound report with estimated constants)


def _mean_sq_row_norm(x: np.ndarray) -> float:
    """Mean squared row norm of x, inf when it exceeds the double range.

    x is scaled by a power of two before squaring, so a sum over many rows
    cannot overflow on the way to a finite mean; the scaling is exact, and
    the terms it pushes below the normal range are far under the rounding
    of the sum, so it changes no bit of a result that fits.
    """
    _, e = np.frexp(np.max(np.abs(x)))
    e = int(e)
    with np.errstate(under="ignore"):
        scaled = np.ldexp(x, -e)
        mean = float(np.mean(np.sum(scaled * scaled, axis=1)))
    try:
        return math.ldexp(mean, 2 * e)
    except OverflowError:
        return math.inf


def convergence_report(draws: SeedDraws, trace: TrainingTrace) -> dict[str, float] | None:
    """Convergence-bound evaluation with empirically estimated constants.

    `draws` are the run's own (`train(..., draws=draws)`), so the report
    reads the run's shards and, for a trace without a gradient bound (ideal
    mode), calibrates on them once.  Only the logistic task admits an honest
    smoothness constant (a quarter of the mean squared feature norm bounds
    the Hessian); the optimality gap is taken from the zero-initialization
    loss log 2 down to the best observed loss, and the gradient-variance
    level from the measured per-round spread.  Every entry is an estimate,
    not a certificate.
    """
    exp = draws.exp
    if exp.train.task != "synthetic_logistic":
        return None
    l_hat = _mean_sq_row_norm(draws.all_train.features) / 4.0
    if not (math.isfinite(l_hat) and exp.cfg.eta < 2.0 / l_hat):
        return None
    gap = max(math.log(2.0) - min(r.loss for r in trace.records), 1e-12)
    g_bound = trace.g_bound
    if g_bound is None:
        g_bound = draws.calibrated_g_bound()
    lc = LearningConstants(
        lipschitz_l=l_hat,
        eta=exp.cfg.eta,
        delta2=trace.delta2_hat,
        g_bound2=g_bound * g_bound,
        rounds_m=trace.rounds,
        f0_minus_fstar=gap,
    )
    delta2_total = trace.mean_divergence_sq + trace.delta2_hat
    return {
        "lipschitz_estimate": l_hat,
        "f0_gap_estimate": gap,
        "delta2_estimate": trace.delta2_hat,
        "divergence_mean": trace.mean_divergence_sq,
        "convergence_bound_estimate": convergence_bound(lc, delta2_total),
    }


# ---------------------------------------------------------------------------
# CSV and manifest emission


def _cell_text(v) -> str:
    v = _norm_cell(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell_text(v) for v in row])


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
        lines.append(f"# meta {key} = {_cell_text(meta[key])}")
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
    """Write each table as <stem>.csv plus one <name>_manifest.txt.

    tables maps a CSV stem to a SweepResult or, for a deterministic table,
    a plain (columns, rows) pair.  The manifest's key=value body is a
    loadable config, with the named config section last, that replays the
    run bit-identically; its comment lines record the command, the stream
    layout (which load_config checks on replay), a git-style blob hash of
    the config body and of each CSV, the meta summaries, and any caller
    notes (gate verdicts, for instance).  Returns the path of each CSV by
    stem, and of the manifest under "manifest".
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for stem, table in tables.items():
        columns, rows = (table.columns, table.rows) if isinstance(table, SweepResult) else table
        if not rows:
            raise ValueError(f"{stem}: empty result; nothing to report")
        paths[stem] = out / f"{stem}.csv"
        write_csv(paths[stem], columns, rows)
    manifest_path = out / f"{name}_manifest.txt"
    write_manifest(manifest_path, cfg, section, command, list(paths.values()), meta or {}, notes)
    paths["manifest"] = manifest_path
    return paths
