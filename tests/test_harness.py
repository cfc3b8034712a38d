"""Monte-Carlo estimators, sweeps, and CSV/manifest reporting."""

import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

import oracles
from oracles import read_sweep_csv
import airfl
from airfl import harness
from airfl.aircomp import PowerConfig, aggregate_batch, compensation_lambda, scaling_zeta
from airfl.analysis import conditional_second_moment, joint_cdf_xy, joint_pdf_xy, xi_mean_offset, xi_variance
from airfl.channel import EstimationModel, draw_channel_block, draw_channel_rows, substream
from airfl.config import (
    STREAM_MC_DIVERGENCE,
    STREAM_MC_JOINT,
    STREAM_MC_XI,
    SweepConfig,
    SystemConfig,
    TrainConfig,
    VerifyDivergenceConfig,
    VerifyXiConfig,
    load_config,
)
from airfl.harness import (
    _MC_BLOCK,
    _TRIAL_BLOCK,
    Gate,
    SweepResult,
    _basis_gradients,
    _block_map,
    _block_runs,
    _divergence_mc,
    _draw_run,
    _frozen_setup,
    _git_blob_sha1,
    _pool_size,
    cdf_pdf_consistency,
    cdf_rect_masses,
    divergence_gates,
    histogram2d_counts,
    k_slope_scan,
    mc_joint_distribution_check,
    mc_weight_divergence,
    mc_xi_moments,
    mc_xi_moments_grid,
    pdf_gates,
    pdf_normalization,
    report,
    sweep_modes,
    sweep_threshold,
    verdict_lines,
    write_csv,
    xi_gates,
)
from airfl.fltrain import SeedDraws, ideal_aggregate, train, train_cells

SMALL_TRAIN = TrainConfig(
    task="synthetic_logistic",
    batch_size=8,
    rounds_m=3,
    data_per_device=40,
    n_features=5,
    test_size=100,
)


def small_cfg(**kw):
    base = dict(k_devices=5, train=SMALL_TRAIN, seed=13, g_bound=2.0)
    base.update(kw)
    return SystemConfig(**base)


class TestSweepResult:
    def test_requires_a_standard_error_column(self):
        with pytest.raises(ValueError, match="standard-error"):
            SweepResult(columns=("a", "b"), rows=[(1, 2)])

    def test_requires_columns(self):
        with pytest.raises(ValueError, match="column"):
            SweepResult(columns=(), rows=[])

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="row 1"):
            SweepResult(columns=("a", "a_se"), rows=[(1, 2), (1, 2, 3)])

    def test_normalizes_numpy_cells(self):
        res = SweepResult(
            columns=("a", "a_se"),
            rows=[(np.int64(3), np.float64(0.5)), (np.bool_(True), np.float32(1.0))],
        )
        assert res.rows[0] == (3, 0.5)
        assert type(res.rows[0][0]) is int
        assert type(res.rows[0][1]) is float
        assert res.rows[1][0] == 1 and type(res.rows[1][0]) is int

    def test_column_accessor(self):
        res = SweepResult(columns=("a", "a_se"), rows=[(1, 0.1), (2, 0.2)])
        assert res.column("a") == [1, 2]
        with pytest.raises(ValueError):
            res.column("missing")

    def test_records_give_each_row_by_column_name(self):
        res = SweepResult(columns=("a", "a_se"), rows=[(1, 0.1), (2, 0.2)])
        assert res.records() == [{"a": 1, "a_se": 0.1}, {"a": 2, "a_se": 0.2}]


class TestXiMoments:
    def test_minimum_sample_count(self):
        with pytest.raises(ValueError, match="at least"):
            mc_xi_moments(0.8, 0.5, 100, seed=0)

    def test_moments_agree_with_closed_forms(self):
        res = mc_xi_moments(0.8, 0.5, 100_000, seed=3)
        (row,) = res.records()
        assert res.meta == {"n_samples": 100_000} and row["n_samples"] == 100_000
        assert abs(row["mean_mc"] - 1.0) <= 4.0 * row["mean_se"]
        assert abs(row["var_mc"] - row["var_closed"]) <= 4.0 * row["var_se"]
        assert row["var_closed"] == xi_variance(0.5, 0.8)
        # the active fraction against its binomial standard error
        p = row["active_fraction"]
        assert abs(p - row["active_expected"]) <= 4.0 * math.sqrt(p * (1.0 - p) / 100_000)
        assert row["active_expected"] == math.exp(-0.5)

    def test_deterministic_under_seed(self):
        a = mc_xi_moments(0.8, 0.5, 20_000, seed=9)
        b = mc_xi_moments(0.8, 0.5, 20_000, seed=9)
        c = mc_xi_moments(0.8, 0.5, 20_000, seed=10)
        assert a == b
        assert a.column("mean_mc") != c.column("mean_mc")

    def test_perfect_csi_cell(self):
        (row,) = mc_xi_moments(1.0, 1.0, 50_000, seed=4).records()
        assert abs(row["var_mc"] - math.expm1(1.0)) <= 4.0 * row["var_se"]


def _per_cell_sums(rho, gamma, n, seed):
    # each cell drawing its own copy of every block's stream: the sums of
    # y = xi - 1 and of its powers y^2, y^3, y^4 per block, merged by fsum,
    # and the active count
    model = EstimationModel(rho=rho, alpha=2.0)
    lam = compensation_lambda(gamma, rho)
    sums, n_active = ([], [], [], []), 0
    for lo in range(0, n, _MC_BLOCK):
        gen = substream(seed, STREAM_MC_XI, lo // _MC_BLOCK)
        h, h_hat, _ = draw_channel_block(model, min(_MC_BLOCK, n - lo), gen)
        xi, active, _, _ = aggregate_batch(np.zeros((1, 1)), h[:, None], h_hat[:, None], gamma, lam)
        xi, active = xi[:, 0], active[:, 0]
        y = xi - 1.0
        y2 = y * y
        for part, power in zip(sums, (y, y2, y2 * y, y2 * y2)):
            part.append(float(np.sum(power)))
        n_active += int(np.count_nonzero(active))
    return (*(math.fsum(part) for part in sums), n_active)


def _with_cells(result, **cells):
    """The one-row result with the named cells of its row replaced."""
    (row,) = result.records()
    return replace(result, rows=[tuple({**row, **cells}.values())])


class TestXiMomentsGrid:
    CELLS = [(rho, gamma) for rho in (0.5, 0.95, 1.0) for gamma in (0.1, 2.0)]

    @pytest.mark.parametrize("n", [50_000, 3 * _MC_BLOCK + 7])
    def test_equals_the_per_cell_calls(self, n):
        grid = mc_xi_moments_grid(self.CELLS, n, seed=5)
        assert grid.rows == [mc_xi_moments(r, g, n, seed=5).rows[0] for r, g in self.CELLS]
        assert grid.meta == {"n_samples": n}

    def test_shares_the_stream_each_cell_would_draw(self):
        n = 2 * _MC_BLOCK + 9_000
        grid = mc_xi_moments_grid(self.CELLS, n, seed=11)
        for (rho, gamma), row in zip(self.CELLS, grid.records(), strict=True):
            s1, s2, s3, s4, n_active = _per_cell_sums(rho, gamma, n, 11)
            a = s1 / n
            m2 = s2 / n - a * a
            m4 = s4 / n - 4.0 * a * s3 / n + 6.0 * a * a * s2 / n - 3.0 * a**4
            assert (row["rho"], row["gamma_th"]) == (rho, gamma)
            assert row["mean_mc"] == 1.0 + a
            assert row["var_mc"] == m2 * n / (n - 1.0)
            assert row["var_se"] == math.sqrt(max(m4 - m2 * m2 * (n - 3.0) / (n - 1.0), 0.0) / n)
            assert row["var_se"] > 0.0
            assert row["active_fraction"] == n_active / n

    def test_validation(self):
        with pytest.raises(ValueError, match="at least"):
            mc_xi_moments_grid(self.CELLS, 100, seed=0)
        with pytest.raises(ValueError, match="rho"):
            mc_xi_moments_grid([(0.8, 0.5), (1.5, 0.5)], 20_000, seed=0)
        with pytest.raises(ValueError, match="gamma_th"):
            mc_xi_moments_grid([(0.8, -1.0)], 20_000, seed=0)
        with pytest.raises(ValueError, match="one or more"):
            mc_xi_moments_grid([], 20_000, seed=0)


class TestHistogramCounts:
    T_EDGES = np.linspace(-3.0, 3.0, 41)
    G_EDGES = np.linspace(-4.0, -0.1, 41)

    def check(self, x, y):
        want = np.histogram2d(x, y, bins=(self.T_EDGES, self.G_EDGES))[0]
        got = histogram2d_counts(x, y, self.T_EDGES, self.G_EDGES)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_random_values(self):
        rng = np.random.default_rng(3)
        self.check(rng.normal(0.0, 2.0, 200_000), -rng.exponential(1.5, 200_000))

    def test_values_on_every_edge(self):
        # every edge of one axis against every edge of the other, including
        # the closed rightmost edge of both
        x, y = (a.ravel() for a in np.meshgrid(self.T_EDGES, self.G_EDGES))
        self.check(x, y)

    def test_values_next_to_every_edge(self):
        below = np.nextafter(self.T_EDGES, -np.inf)
        above = np.nextafter(self.T_EDGES, np.inf)
        gb = np.nextafter(self.G_EDGES, -np.inf)
        ga = np.nextafter(self.G_EDGES, np.inf)
        for x in (below, above):
            for y in (gb, ga, self.G_EDGES):
                self.check(*(a.ravel() for a in np.meshgrid(x, y)))

    def test_values_outside_the_window_are_dropped(self):
        t_lo, t_hi, g_lo, g_hi = -3.0, 3.0, -4.0, -0.1
        x = np.array([t_lo, t_hi, np.nextafter(t_lo, -9), np.nextafter(t_hi, 9), 0.0, 0.0, -50.0])
        y = np.array([g_lo, g_hi, -1.0, -1.0, np.nextafter(g_lo, -9), np.nextafter(g_hi, 9), -1.0])
        self.check(x, y)
        assert histogram2d_counts(x, y, self.T_EDGES, self.G_EDGES).sum() == 2

    def test_empty_input(self):
        self.check(np.array([]), np.array([]))

    @pytest.mark.parametrize(
        "t_range, gamma_range, bins",
        [((0.0, 1e-305), (-4.0, -0.1), 40), ((-1e-310, 1.0), (-4.0, -0.1), 40),
         ((-1e308, 0.0), (-1.7e308, 0.0), 2)],
    )
    def test_windows_near_the_double_range(self, t_range, gamma_range, bins):
        # the index scale bins / (hi - lo), or the band, is near the double
        # range, so a far sample's fractional index overflows: it is dropped
        t_edges, g_edges = np.linspace(*t_range, bins + 1), np.linspace(*gamma_range, bins + 1)
        rng = np.random.default_rng(5)
        x = np.concatenate((rng.uniform(*t_range, 1000), t_edges, [-1.7e308, 1.7e308, -math.inf, math.inf]))
        y = np.concatenate((rng.uniform(*gamma_range, 1000), g_edges, np.full(4, g_edges[0])))
        got = histogram2d_counts(x, y, t_edges, g_edges)
        np.testing.assert_array_equal(got, np.histogram2d(x, y, bins=(t_edges, g_edges))[0])
        assert got.sum() == 1000 + bins + 1

    def test_values_next_to_every_edge_of_a_window_far_from_zero(self):
        # the edges and the arithmetic index carry rounding errors of about
        # 1e-5 bins here, so the band checked against the edges must widen
        t_edges, g_edges = np.linspace(1e6, 1e6 + 1e-3, 41), self.G_EDGES
        for x in (np.nextafter(t_edges, -np.inf), t_edges, np.nextafter(t_edges, np.inf)):
            for y in (g_edges, np.nextafter(g_edges, np.inf)):
                x_all, y_all = (a.ravel() for a in np.meshgrid(x, y))
                want = np.histogram2d(x_all, y_all, bins=(t_edges, g_edges))[0]
                np.testing.assert_array_equal(histogram2d_counts(x_all, y_all, t_edges, g_edges), want)


class TestGate:
    def test_z_gate_at_its_limit(self):
        g = Gate("cell", 1.5, 1.0, 0.125, 4.0)
        assert g.passed and g.z == 4.0 and g.margin == 0.0
        assert not Gate("cell", 1.5 + 1e-12, 1.0, 0.125, 4.0).passed

    def test_a_gate_without_se_is_inclusive(self):
        g = Gate("a", 0.25, 0.0, None, 0.25)
        assert g.passed and g.deviation == 0.25 and g.margin == 0.0 and g.z is None
        assert not Gate("a", 0.25 + 1e-12, 0.0, None, 0.25).passed

    def test_zero_se_passes_only_an_exact_match(self):
        assert Gate("c", 1.0, 1.0, 0.0, 4.0).passed
        assert Gate("c", 1.0, 1.0, 0.0, 4.0).z == 0.0
        missed = Gate("c", 1.0 + 1e-15, 1.0, 0.0, 4.0)
        assert not missed.passed and missed.z == math.inf

    @pytest.mark.parametrize("se", [None, 0.5])
    def test_nan_estimate_fails(self, se):
        assert not Gate("c", math.nan, 1.0, se, 4.0).passed

    @pytest.mark.parametrize("se", [math.inf, math.nan])
    def test_non_finite_se_fails_as_untestable(self, se):
        # an infinite se would otherwise pass any estimate at z = 0
        g = Gate("c", 2.0, 1.0, se, 4.0, detail="d")
        assert not g.passed and math.isnan(g.z)
        assert g.summary() == f"untestable: se={se!r} is not finite; d z=nan limit=4 margin=nan"

    @pytest.mark.parametrize("reference", [math.inf, -math.inf, math.nan])
    def test_non_finite_reference_fails_as_untestable(self, reference):
        # an estimate equal to an infinite reference is no test of it
        for se in (None, 0.5):
            g = Gate("c", reference, reference, se, 4.0, detail="d")
            assert not g.passed
            assert g.summary().startswith(f"untestable: reference={reference!r} is not finite; d ")

    def test_a_count_below_two_fails_as_untestable(self):
        # n = 1 cannot pass, however close the estimate; from n = 2 the rule alone decides
        for se in (None, 0.5):
            one, two = (Gate("c", 1.0, 1.0, se, 4.0, detail="d", n=n) for n in (1, 2))
            assert not one.passed and one.untestable == "n=1 is below 2"
            assert one.summary().startswith("untestable: n=1 is below 2; d ")
            assert two.passed and two.untestable is None and two.summary().startswith("d ")
        assert not Gate("c", 1.0, 1.0, 0.5, 4.0, n=0).passed
        assert Gate("c", 1.0, 1.0, 0.5, 4.0).untestable is None  # a gate without a count

    def test_the_count_is_the_first_reason(self):
        g = Gate("c", math.nan, math.inf, math.inf, 4.0, n=0)
        assert g.summary().startswith("untestable: n=0 is below 2; ")
        assert Gate("c", 1.0, math.nan, math.inf, 4.0, n=5).untestable == "reference=nan is not finite"

    def test_large_values_print_in_exponent_form(self):
        # below 1e6 two decimals; from there three significant digits
        assert Gate("c", 999_999.99, 0.0, 1.0, 4.0).summary() == "z=999999.99 limit=4 margin=-999995.99"
        assert Gate("c", 3e29, 0.0, 1.0, 4.0).summary() == "z=3.000e+29 limit=4 margin=-3.000e+29"
        assert Gate("c", -2e6, 0.0, 1.0, 4.0, detail="d").summary() == "d z=2.000e+06 limit=4 margin=-2.000e+06"
        assert Gate("c", 1.0, 0.0, 0.0, 4.0).summary() == "z=inf limit=4 margin=-inf"

    def test_verdict_lines_print_one_line_per_gate(self):
        lines = verdict_lines(
            [
                Gate("m", 1.0, 1.0, 0.5, 4.0, detail="mean=1"),
                Gate("v", 2.0, 1.0, 0.125, 4.0),
                Gate("t", 0.5, 0.0, None, 0.02, detail="tv=0.5"),
            ]
        )
        assert lines == [
            "PASS m: mean=1 z=0.00 limit=4 margin=4.00",
            "FAIL v: z=8.00 limit=4 margin=-4.00",
            "FAIL t: tv=0.5 limit=0.02 margin=-0.48",
        ]

    def test_xi_gates_give_each_cell_a_mean_and_a_variance_gate(self):
        cells = ((0.95, 0.5), (1.0, 0.05))
        gates = xi_gates(mc_xi_moments_grid(cells, 20_000, seed=3))
        assert [g.name for g in gates] == [
            "xi_mean[rho=0.95 gamma=0.5]", "xi_var[rho=0.95 gamma=0.5]",
            "xi_mean[rho=1 gamma=0.05]", "xi_var[rho=1 gamma=0.05]",
        ]
        assert all(g.limit == 4.0 and g.se is not None for g in gates)
        assert not any("untestable" in g.detail for g in gates)

    def test_xi_gates_label_a_cell_without_active_samples_untestable(self):
        # P(active) = e^-30: no sample of 10^4 clears the threshold, so the
        # cell's mean is 0 at se 0 and both verdicts FAIL without testing xi
        mean, var = xi_gates(mc_xi_moments(0.8, 30.0, 10_000, seed=3))
        for g in (mean, var):
            assert not g.passed and g.n == 0
            assert g.summary().startswith("untestable: n=0 is below 2; ")
        assert mean.detail == "mean=0.000000 se=0.00e+00"

    def test_xi_gates_carry_the_active_count(self):
        r = mc_xi_moments(0.8, 0.5, 20_000, seed=3)
        active = round(r.column("active_fraction")[0] * 20_000)
        assert 0 < active < 20_000
        assert [g.n for g in xi_gates(r)] == [active, active]
        # one active sample of 10^4 cannot be tested, two can
        one, two = (_with_cells(r, n_samples=10_000, active_fraction=k / 10_000) for k in (1, 2))
        assert [g.untestable for g in xi_gates(one)] == ["n=1 is below 2"] * 2
        assert [g.n for g in xi_gates(two)] == [2, 2]

    def test_xi_gates_print_large_values_in_exponent_form(self):
        # below 1e6 six decimals, as before; from there exponent form
        r = mc_xi_moments(0.8, 0.5, 20_000, seed=3)
        mean, var = xi_gates(_with_cells(r, mean_mc=-9.4638364514111399e151, var_mc=2e6, var_closed=999_999.5))
        assert mean.detail.startswith("mean=-9.4638365e+151 se=")
        assert var.detail.startswith("mc=2.0000000e+06 closed=999999.500000 se=")

    def test_divergence_gate_counts_the_trials_that_transmitted(self):
        res = mc_weight_divergence(small_cfg(gamma_th=2.0), n_trials=1000)
        (gate,) = divergence_gates(res)
        row = dict(zip(res.columns, res.rows[0]))
        assert 0.0 < row["skip_fraction"] < 1.0
        assert gate.n == round(1000 * (1.0 - row["skip_fraction"]))
        # one transmitting trial of 1000 cannot be tested, two can
        for skip, n in ((0.999, 1), (0.998, 2)):
            (gate,) = divergence_gates(replace(res, rows=[tuple({**row, "skip_fraction": skip}.values())]))
            assert gate.n == n and (gate.untestable is None) == (n == 2)

    def test_divergence_gate_reads_the_row(self):
        res = mc_weight_divergence(small_cfg(), n_trials=1000)
        (gate,) = divergence_gates(res)
        row = dict(zip(res.columns, res.rows[0]))
        assert gate.estimate == row["divergence_mc"]
        assert gate.reference == row["divergence_exact"]
        assert gate.se == row["divergence_se"]
        assert gate.name == "divergence_exact_4se" and "bound=" in gate.detail


class TestMeanSe:
    def test_se_stays_finite_where_the_values_are(self):
        # the squared deviations of values near 1e199 overflow the doubles;
        # taken in a power-of-two unit they do not, and nothing else moves
        x = np.random.default_rng(8).standard_normal(1000)
        plain = (float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(1000)))
        assert harness._mean_se(x) == plain
        mean, se = harness._mean_se(x * 2.0**660)
        assert (mean, se) == (plain[0] * 2.0**660, plain[1] * 2.0**660)
        assert math.isfinite(se) and se > 1e190


class TestPoolSize:
    def test_clamped_to_cpus_items_and_one(self, monkeypatch):
        monkeypatch.setattr("airfl.harness.os.cpu_count", lambda: 2)
        assert _pool_size(10**6, 10**6) == 2
        assert _pool_size(8, 1) == 1
        assert _pool_size(0, 5) == 1
        assert _pool_size(-3, 5) == 1
        monkeypatch.setattr("airfl.harness.os.cpu_count", lambda: None)
        assert _pool_size(4, 4) == 1


class TestWorkerPool:
    def test_a_scope_shares_one_lazy_pool(self, pools):
        with harness.worker_pool():
            assert harness._pmap(abs, [-1, -2, -3], jobs=1) == [1, 2, 3]
            assert pools == []  # one worker needs no pool
            assert harness._pmap(abs, [-1, -2, -3], jobs=2) == [1, 2, 3]
            with harness.worker_pool():  # an inner scope reuses the outer pool
                assert harness._pmap(abs, range(-5, 0), jobs=2) == [5, 4, 3, 2, 1]
            assert multiprocessing.active_children()  # the pool lives until the scope ends
        assert pools == [2]
        assert multiprocessing.active_children() == []

    def test_a_map_outside_a_scope_joins_its_own_pool(self, pools):
        assert harness._pmap(abs, [-1, -2], jobs=2) == [1, 2]
        assert harness._pmap(abs, [-1, -2], jobs=2) == [1, 2]
        assert pools == [2, 2]
        assert multiprocessing.active_children() == []

    def test_an_exception_joins_the_pool(self, pools):
        with pytest.raises(ZeroDivisionError):
            with harness.worker_pool():
                harness._pmap(abs, [-1, -2], jobs=2)
                1 / 0
        assert pools == [2]
        assert multiprocessing.active_children() == []

    def test_k_scan_makes_one_map(self, monkeypatch):
        calls = []
        pmap = harness._pmap

        def counting(fn, items, jobs):
            calls.append(len(items))
            return pmap(fn, items, jobs)

        monkeypatch.setattr(harness, "_pmap", counting)
        k_slope_scan(scan_cfg(scan_ks=(2, 3, 4), scan_trials=1000), jobs=2)
        assert calls == [3 * len(_block_runs(1000, _TRIAL_BLOCK, 2))]


def joint_rows(seed, n):
    """The four rows of verify-pdf's n samples: block b is draw_channel_rows
    of substream(seed, STREAM_MC_JOINT, b)."""
    return np.concatenate([
        draw_channel_rows(min(_MC_BLOCK, n - lo), substream(seed, STREAM_MC_JOINT, lo // _MC_BLOCK))
        for lo in range(0, n, _MC_BLOCK)
    ], axis=1)


def joint_tails(seed, tail_gammas, n=1_000_000):
    # the joint check with a coarse histogram: only its tail pass is read
    return mc_joint_distribution_check((-2.0, -0.2), (-2.0, 2.0), n, seed, bins=2, tail_gammas=tail_gammas)


class TestConditionalMoment:
    def test_agrees_with_closed_form(self):
        res = joint_tails(5, (1.0,))
        (tail,) = res.tails
        est, se = tail.second_moment(0.3)
        assert abs(est - conditional_second_moment(1.0, 0.3)) <= 4.0 * se
        assert 0 < tail.count < 1_000_000 and tail.gamma == 1.0

    def test_zero_offset_reference(self):
        res = joint_tails(6, (1.0,))
        est, se = res.tails[0].second_moment(0.0)
        assert abs(est - oracles.COND_M2_G1_C0) <= 4.0 * se
        # the gate's moment is the fold at c = 0
        (gate,) = [g for g in pdf_gates(res) if g.name == "conditional_second_moment"]
        assert (gate.estimate, gate.se) == (est, se)
        assert res.meta["cond_count"] == res.tails[0].count

    def test_unreachable_threshold(self):
        # an empty tail cannot be estimated, whichever threshold it is
        res = joint_tails(0, (1.0, 30.0))
        assert res.tails[1].count == 0
        assert all(math.isnan(v) for v in res.tails[1].second_moment(0.0))
        assert res.tails[0].second_moment(0.0)[1] > 0.0

        res = joint_tails(0, (30.0, 1.0))
        assert res.tails[0].count == res.meta["cond_count"] == 0
        for gate in pdf_gates(res)[4:]:
            assert not gate.passed and gate.n == 0
            assert gate.summary().startswith("untestable: n=0 is below 2; ")
        assert all(math.isnan(v) for v in res.tails[0].second_moment(0.5))
        assert res.tails[1].second_moment(0.0)[1] > 0.0

    def test_a_single_tail_sample_has_no_moment(self):
        # one sample gives no spread: the moment is NaN, not 0 at se 0
        tail = harness.TailSums(1.0, 1, (0.5, 0.25, 0.125, 0.0625))
        assert all(math.isnan(v) for v in tail.second_moment(0.0))
        assert harness.TailSums(1.0, 2, (0.5, 0.25, 0.125, 0.0625)).second_moment(0.0)[1] >= 0.0

    def test_pdf_gates_carry_the_first_tail_count(self):
        res = joint_tails(5, (1.0, 2.0))
        gates = pdf_gates(res)
        assert [g.n for g in gates] == [None] * 4 + [res.tails[0].count] * 2
        # the first tail with one sample: both of its gates are untestable, the rest stand
        one = replace(res, tails=(res.tails[0]._replace(count=1),))
        assert [g.untestable for g in pdf_gates(one)] == [None] * 4 + ["n=1 is below 2"] * 2

    def test_validation(self):
        # each threshold meets the rule of the config key verify_pdf.tail_gamma
        for tails in [(1.0, -1.0), (0.0,), (1.0, math.inf), (math.nan,), (800.0,)]:
            with pytest.raises(ValueError, match=r"config key 'verify_pdf\.tail_gamma'"):
                joint_tails(0, tails)
        with pytest.raises(ValueError, match="one or more thresholds"):
            joint_tails(0, ())

    def test_fold_is_the_direct_estimate_on_the_same_draw(self):
        gammas = (0.1, 0.5, 1.0, 2.0)
        res = joint_tails(777, gammas)
        # the same 10^6 samples, drawn block by block
        h_re, h_im, v_re, v_im = joint_rows(777, 1_000_000)
        gain = h_re * h_re + h_im * h_im
        x_all = (v_re * h_re + v_im * h_im) / gain
        for tail, gamma in zip(res.tails, gammas):
            x = x_all[gain >= gamma]
            assert tail.gamma == gamma and tail.count == x.size
            for rho in (0.5, 0.8, 0.95):
                c = xi_mean_offset(gamma, rho)
                q = (x - c) ** 2
                est, se = tail.second_moment(c)
                assert est == pytest.approx(np.mean(q), rel=1e-12, abs=0.0)
                assert se == pytest.approx(math.sqrt(np.var(q) / x.size), rel=1e-12, abs=0.0)


class TestJointDistribution:
    def test_validation(self):
        # each setting meets the rule of the verify_pdf key that holds it
        def rejects(key, *args, **kw):
            with pytest.raises(ValueError, match=f"config key 'verify_pdf\\.{key}'"):
                mc_joint_distribution_check(*args, 1_000_000, seed=0, **kw)

        with pytest.raises(ValueError, match="at least"):
            mc_joint_distribution_check((-2.0, -0.1), (-2.0, 2.0), 10, seed=0)
        rejects("gamma_range", (-0.1, -2.0), (-2.0, 2.0))
        rejects("gamma_range", (-2.0, 0.5), (-2.0, 2.0))
        rejects("gamma_range", (-3.0, -2.0, -1.0), (-2.0, 2.0))
        rejects("t_range", (-2.0, -0.1), (2.0, -2.0))
        rejects("t_range", (-2.0, -0.1), (0.0, 1e-320))
        rejects("gamma_range", (-1e-320, 0.0), (-2.0, 2.0))
        rejects("t_range", (-2.0, -0.1), (-2.0, math.inf))
        rejects("bins", (-2.0, -0.1), (-2.0, 2.0), bins=1)
        rejects("tail_gamma", (-2.0, -0.1), (-2.0, 2.0), tail_gammas=(-1.0,))

    def test_small_window_run(self):
        res = mc_joint_distribution_check(
            (-2.0, -0.2), (-2.0, 2.0), 1_000_000, seed=7, bins=8
        )
        assert len(res.rows) == 64
        # the binomial standard error of each bin's mass, as one scalar expression
        assert all(r[5] == math.sqrt(r[4] * (1.0 - r[4]) / 1_000_000) for r in res.rows)
        assert res.meta["tv_distance"] < 0.05
        # binned masses sum to at most one on both sides
        assert 0.0 < res.meta["outside_mass_mc"] < 1.0
        assert 0.0 < res.meta["outside_mass_analytic"] < 1.0
        # the tail statistics travel in the gates, not in meta
        assert sorted(res.meta) == ["bin_mass_cdf_gap", "cdf_pdf_fd_worst", "cond_count", "n_samples",
                                    "outside_mass_analytic", "outside_mass_mc", "pdf_normalization",
                                    "tv_distance"]
        tail, cond = pdf_gates(res)[4:]
        assert abs(tail.estimate - tail.reference) <= 5.0 * tail.se
        assert tail.reference == math.exp(-1.0)
        assert tail.estimate == res.meta["cond_count"] / 1_000_000
        assert abs(cond.estimate - cond.reference) <= 5.0 * cond.se

    def test_zero_gain_samples_are_dropped(self, monkeypatch):
        # h_hat = 0 has probability zero, so the draw is patched to hold some:
        # in the first and a later block, on a block edge and at the end;
        # two more samples sit exactly on the threshold 1 and stay in its tail
        n, seed, gammas = 1_000_000, 9, (0.5, 1.0, 2.0)
        zero = [0, 17, _MC_BLOCK, 3 * _MC_BLOCK + 5, n - 1]
        on_threshold = [18, 2 * _MC_BLOCK]
        real_rows = harness.draw_channel_rows
        drawn = [0]  # samples drawn by earlier blocks

        def rows_with_zero_gain(m, gen):
            z = real_rows(m, gen)
            lo, drawn[0] = drawn[0], drawn[0] + m
            for row, on in zip(z[:2], (1.0, 0.0)):
                row[[p - lo for p in zero if lo <= p < lo + m]] = 0.0
                row[[p - lo for p in on_threshold if lo <= p < lo + m]] = on
            return z

        monkeypatch.setattr(harness, "draw_channel_rows", rows_with_zero_gain)
        t_edges, g_edges = np.linspace(-2.0, 2.0, 9), np.linspace(-2.0, -0.2, 9)
        res = mc_joint_distribution_check((-2.0, -0.2), (-2.0, 2.0), n, seed, bins=8, tail_gammas=gammas)
        assert drawn == [n]

        z = joint_rows(seed, n)
        z[:2, on_threshold] = [[1.0], [0.0]]
        keep = np.ones(n, dtype=bool)
        keep[zero] = False
        xs, gains = [], []
        block_sums = {gamma: [] for gamma in gammas}
        for lo in range(0, n, _MC_BLOCK):
            block = slice(lo, lo + _MC_BLOCK)
            h_re, h_im, v_re, v_im = z[:, block][:, keep[block]]
            gain = h_re * h_re + h_im * h_im
            x = (v_re * h_re + v_im * h_im) / gain
            xs.append(x)
            gains.append(gain)
            for gamma in gammas:
                xt = x[gain >= gamma]
                x2 = xt * xt
                block_sums[gamma].append((xt.size, *(float(np.sum(p)) for p in (xt, x2, xt * x2, x2 * x2))))
        x, gain = np.concatenate(xs), np.concatenate(gains)
        counts = np.histogram2d(x, -gain, bins=(t_edges, g_edges))[0]
        assert [r[4] for r in res.rows] == (counts / n).ravel().tolist()
        for tail, gamma in zip(res.tails, gammas):
            count, *parts = zip(*block_sums[gamma])
            assert tail == (gamma, sum(count), tuple(math.fsum(p) for p in parts))
            assert tail.count == int(np.count_nonzero(gain >= gamma))

    def test_deterministic_under_seed(self):
        kw = dict(bins=4)
        a = mc_joint_distribution_check((-1.0, -0.5), (-1.0, 1.0), 1_000_000, seed=8, **kw)
        b = mc_joint_distribution_check((-1.0, -0.5), (-1.0, 1.0), 1_000_000, seed=8, **kw)
        assert a.rows == b.rows


def _quad_bin_mass(quad, t0, t1, g0, g1):
    # the mass of one bin by adaptive quadrature in g, as an oracle
    def integrand(g):
        s = math.sqrt(-g)
        return 0.5 * math.exp(g) * (math.erf(t1 * s) - math.erf(t0 * s))

    return quad(integrand, g0, g1, epsabs=1e-13, epsrel=1e-12)[0]


# (t_range, gamma_range, bins): the default window, windows the config
# accepts where adaptive quadrature misses the 1e-9 cross-check (the first
# two) or a plain 16-node rule per bin does (the third), and windows near the
# double range, where a panel cut k/|t| or a product t s overflows (the last three)
_MASS_WINDOWS = [
    ((-3.0, 3.0), (-4.0, -0.1), 40),
    ((-50.0, 50.0), (-40.0, -1e-6), 2),
    ((-1000.0, 1000.0), (-1.0, 0.0), 3),
    ((-5.0, 5.0), (-30.0, 0.0), 5),
    ((0.0, 1e-3), (-1e-3, 0.0), 2),
    ((0.0, 1e-305), (-4.0, -0.1), 40),
    ((-1e-310, 1.0), (-4.0, -0.1), 40),
    ((-1e308, 0.0), (-1.7e308, 0.0), 2),
]


class TestDensityQuadrature:
    def test_pdf_integrates_to_one(self):
        assert abs(pdf_normalization() - 1.0) < 1e-6

    def test_pdf_normalization_matches_dblquad(self):
        dblquad = pytest.importorskip("scipy.integrate").dblquad
        want, _ = dblquad(
            lambda t, s: 2.0 * s * joint_pdf_xy(t, -s * s), 0.0, math.sqrt(40.0), -np.inf, np.inf,
            epsabs=1e-9, epsrel=1e-9,
        )
        got = pdf_normalization()
        # a plain float, so that the verdict line prints its digits
        assert type(got) is float
        assert abs(got - want) <= 1e-10

    @pytest.mark.parametrize("t_range, gamma_range, bins", _MASS_WINDOWS)
    def test_bin_mass_rule_matches_the_cdf_rectangles(self, t_range, gamma_range, bins):
        t_edges, g_edges = np.linspace(*t_range, bins + 1), np.linspace(*gamma_range, bins + 1)
        mass = harness._bin_mass(t_edges, g_edges)
        assert mass.shape == (bins, bins)
        assert np.max(np.abs(mass - cdf_rect_masses(t_edges, g_edges))) <= 1e-9

    def test_bin_mass_rule_matches_adaptive_quadrature_per_bin(self):
        quad = pytest.importorskip("scipy.integrate").quad
        t_edges, g_edges = np.linspace(-3.0, 3.0, 41), np.linspace(-4.0, -0.1, 41)
        mass = harness._bin_mass(t_edges, g_edges)
        for i in range(40):
            for j in range(40):
                want = _quad_bin_mass(quad, t_edges[i], t_edges[i + 1], g_edges[j], g_edges[j + 1])
                assert abs(mass[i, j] - want) <= 1e-15, (i, j)

    @pytest.mark.parametrize("t_range, gamma_range, bins", _MASS_WINDOWS)
    def test_bin_mass_rule_refines_on_its_own_error_estimate(self, monkeypatch, t_range, gamma_range, bins):
        # with no cuts at s = k/|t| and no width limit, each g bin starts as
        # one panel, and splitting alone brings the rule to the cross-check
        monkeypatch.setattr(harness, "_PANEL_CUTS", np.array([]))
        monkeypatch.setattr(harness, "_PANEL_WIDTH", math.inf)
        t_edges, g_edges = np.linspace(*t_range, bins + 1), np.linspace(*gamma_range, bins + 1)
        mass = harness._bin_mass(t_edges, g_edges)
        assert np.max(np.abs(mass - cdf_rect_masses(t_edges, g_edges))) <= 1e-9

    def test_bin_mass_rule_gives_up_without_splits(self, monkeypatch):
        monkeypatch.setattr(harness, "_PANEL_CUTS", np.array([]))
        monkeypatch.setattr(harness, "_PANEL_WIDTH", math.inf)
        monkeypatch.setattr(harness, "_PANEL_SPLITS", 1)
        with pytest.raises(RuntimeError, match="bin-mass rule"):
            harness._bin_mass(np.linspace(-5.0, 5.0, 6), np.linspace(-30.0, 0.0, 6))

    def test_bin_mass_past_the_underflow_is_zero(self):
        # e^(-s^2) underflows past s = 27.3: bins beyond it hold no mass
        t_edges, g_edges = np.linspace(-3.0, 3.0, 5), np.array([-1e300, -1e3, -800.0, -1.0])
        mass = harness._bin_mass(t_edges, g_edges)
        assert np.all(mass[:, :2] == 0.0)
        assert np.max(np.abs(mass - cdf_rect_masses(t_edges, g_edges))) <= 1e-9

    def test_rect_masses_match_the_four_call_form(self):
        t_edges = np.linspace(-3.0, 3.0, 9)
        g_edges = np.linspace(-4.0, -0.1, 7)
        got = cdf_rect_masses(t_edges, g_edges)
        assert got.shape == (8, 6)
        for i in range(8):
            for j in range(6):
                t0, t1, g0, g1 = t_edges[i], t_edges[i + 1], g_edges[j], g_edges[j + 1]
                want = (
                    joint_cdf_xy(t1, g1)
                    - joint_cdf_xy(t0, g1)
                    - joint_cdf_xy(t1, g0)
                    + joint_cdf_xy(t0, g0)
                )
                assert got[i, j] == want

    def test_cdf_pdf_consistency_small_grid(self):
        worst = cdf_pdf_consistency((-2.0, 0.0, 1.0), (-3.0, -1.0, -0.5))
        assert worst < 1e-4

    def test_consistency_validation(self):
        with pytest.raises(ValueError, match="too close"):
            cdf_pdf_consistency((0.0,), (-1e-5,))


class TestWeightDivergence:
    def test_minimum_trials(self):
        with pytest.raises(ValueError, match="at least"):
            mc_weight_divergence(small_cfg(), n_trials=10)

    def test_matches_exact_expectation(self):
        res = mc_weight_divergence(small_cfg(), n_trials=4000)
        (row,) = res.rows
        cols = dict(zip(res.columns, row))
        assert cols["k_devices"] == 5
        assert abs(cols["divergence_mc"] - cols["divergence_exact"]) <= 4.0 * cols["divergence_se"]
        skip_se = math.sqrt(res.meta["skip_prob_analytic"] / 4000)
        assert abs(cols["skip_fraction"] - res.meta["skip_prob_analytic"]) <= 6.0 * skip_se
        for key in ("d_model", "g_bound", "zeta", "lam", "sum_grad_sq", "noise_term_exact"):
            assert key in res.meta
        assert res.meta["d_model"] == 5
        assert res.meta["g_bound"] == 2.0

    def test_parallel_split_is_bit_identical(self):
        serial = mc_weight_divergence(small_cfg(), n_trials=1200, jobs=1)
        split = mc_weight_divergence(small_cfg(), n_trials=1200, jobs=3)
        assert serial.rows == split.rows

    def test_genie_g_is_the_g_training_uses(self, monkeypatch):
        # genie power control sizes zeta from the round's largest gradient
        # norm, in training and here alike, not the calibrated bound
        cfg = SystemConfig(g_bound="genie", train=TrainConfig(rounds_m=3))
        seen = []
        real = airfl.fltrain._assert_power_feasible

        def recording(grads, channels, active, cells, p_max):
            seen.append(float(cells.g_bound[0, 0]))
            return real(grads, channels, active, cells, p_max)

        monkeypatch.setattr(airfl.fltrain, "_assert_power_feasible", recording)
        train(cfg, mode="aircomp")
        resolved, grads, power = _frozen_setup(cfg)
        assert power.g_bound == seen[0] == max(float(np.linalg.norm(g)) for g in grads)
        assert power.g_bound != SeedDraws(cfg).calibrated_g_bound()
        res = mc_weight_divergence(cfg, n_trials=1000)
        assert res.meta["g_bound"] == seen[0]
        assert res.meta["zeta"] == scaling_zeta(resolved.k_devices, resolved.rho, power, resolved.gamma_th)

    def test_noise_term_scales_with_sigma2(self):
        quiet = mc_weight_divergence(small_cfg(sigma2_dbm=-40.0), n_trials=1000)
        loud = mc_weight_divergence(small_cfg(sigma2_dbm=-20.0), n_trials=1000)
        ratio = loud.meta["noise_term_exact"] / quiet.meta["noise_term_exact"]
        assert abs(ratio - 100.0) < 1e-9


def scan_cfg(**kw):
    return small_cfg(verify_divergence=VerifyDivergenceConfig(**kw))


class TestKSlopeScan:
    def test_slope_lands_between_the_two_scalings(self):
        res = k_slope_scan(scan_cfg(scan_ks=(5, 20), scan_trials=2000))
        assert res.meta["bound_slope"] == -2.0
        slope = res.meta["fitted_slope"]
        assert -2.2 < slope < -0.8
        expected_tag = "1/K" if slope > -1.5 else "1/K^2"
        assert res.meta["supported_scaling"] == expected_tag
        div = res.column("divergence_mc")
        assert div[1] < div[0]
        assert res.column("k_devices") == [5, 20]
        assert res.meta["n_trials"] == 2000


def divergence_rows(seed, key, lo, hi, width):
    """(t, row) for trials [lo, hi): trial t's row is row t mod 256 of one
    (256, width) draw from substream(seed, STREAM_MC_DIVERGENCE, *key,
    t // 256), drawn whole here (stream layouts 2 and 3 alike)."""
    blocks = {}
    for t in range(lo, hi):
        b = t // _TRIAL_BLOCK
        if b not in blocks:
            blocks[b] = substream(seed, STREAM_MC_DIVERGENCE, *key, b).standard_normal((_TRIAL_BLOCK, width))
        yield t, blocks[b][t % _TRIAL_BLOCK]


def row_width(grads):
    """K x 4 channel normals, then d noise normals, whatever sigma2 is."""
    k_devices, d_model = np.shape(grads)
    return 4 * k_devices + d_model


def physical_trials(grads, power, gamma_th, rho, seed, key, lo, hi):
    """Reference for the block kernel: the same trials through
    oracles.physical_round_ref, the round from the superposed receive
    signal, with the devices spread out to d_max at alpha = 2.2.  Each
    trial's row gives the channel normals and the real part of the
    receiver noise; the imaginary part, which Re(y) drops, comes from a
    fixed generator."""
    k_devices, d_model = grads.shape
    alpha = 2.2
    d_max = power.d_max_alpha ** (1.0 / alpha)
    distances = [d_max * (k + 1) / k_devices for k in range(k_devices)]
    imaginary = np.random.default_rng(0)
    g_ideal = ideal_aggregate(grads)
    div, skips = [], []
    for _, row in divergence_rows(seed, key, lo, hi, row_width(grads)):
        noise = np.stack([row[4 * k_devices :], imaginary.standard_normal(d_model)], axis=1)
        g_hat, _, active = oracles.physical_round_ref(
            grads, row[: 4 * k_devices].reshape(k_devices, 4), noise, distances, alpha, rho, gamma_th, power.p_max,
            power.g_bound, power.sigma2,
        )
        diff = g_hat - g_ideal
        div.append(float(diff @ diff))
        skips.append(not active.any())
    return np.array(div), np.array(skips)


def oracle_trials(grads, power, gamma_th, rho, seed, key, lo, hi):
    """The same trials through oracles.air_round_ref, which shares no code
    with the package: K rows of 4 channel normals, then d noise normals,
    from each trial's row."""
    k_devices, d_model = grads.shape
    g_ideal = np.zeros(d_model)
    for g in grads:
        g_ideal += g
    g_ideal /= k_devices
    div, skips = [], []
    for _, row in divergence_rows(seed, key, lo, hi, row_width(grads)):
        normals = row[: 4 * k_devices].reshape(k_devices, 4)
        g_hat, _, active, _ = oracles.air_round_ref(
            grads, normals, row[4 * k_devices :], rho, gamma_th, power.p_max, power.g_bound,
            power.d_max_alpha, power.sigma2,
        )
        diff = g_hat - g_ideal
        div.append(float(diff @ diff))
        skips.append(not active.any())
    return np.array(div), np.array(skips)


def frozen(cfg, key=()):
    resolved, grads, power = _frozen_setup(cfg)
    return (np.array(grads), power, resolved.gamma_th, resolved.rho, resolved.seed, key)


def kernel_trials(args, n):
    """The block kernel's squared divergences and skip flags of trials
    [0, n) of one frozen system (grads, power, gamma_th, rho, seed, key)."""
    grads, power, gamma_th, rho, seed, key = args
    ((div, skips),) = _divergence_mc([(grads, power, gamma_th, rho, key)], seed, n, jobs=1)
    return div, skips


SCAN_POWER = PowerConfig(p_max=0.1, sigma2=1e-7, g_bound=1.0, d_max_alpha=100.0**2.2)


class TestDivergenceKernel:
    @pytest.mark.parametrize(
        "case",
        ["defaults", "mlp", "rho=1", "K=1", "skipping", "sigma2=0", "kscan", "sliced"],
    )
    def test_matches_the_scalar_loop(self, case):
        if case == "defaults":
            args = frozen(SystemConfig())
        elif case == "mlp":
            cfg = SystemConfig()
            args = frozen(replace(cfg, train=replace(cfg.train, task="small_mlp")))
            assert args[0].shape == (10, 193)
        elif case == "rho=1":
            args = frozen(small_cfg(rho=1.0))
        elif case == "K=1":
            args = frozen(small_cfg(k_devices=1))
        elif case == "skipping":
            args = frozen(small_cfg(gamma_th=3.0))
        elif case == "sigma2=0":
            grads, power, *rest = frozen(small_cfg())
            args = (grads, replace(power, sigma2=0.0), *rest)
        elif case == "kscan":
            args = (_basis_gradients(20, 10), SCAN_POWER, 0.5, 0.8, 2026, (20,))
        else:
            # d = 300 > 256: the kernel draws each block's rows in slices
            args = (_basis_gradients(4, 300), SCAN_POWER, 0.5, 0.8, 2026, (4,))
            assert harness._BLOCK_FLOATS // 300 < _TRIAL_BLOCK
        div, skips = kernel_trials(args, 300)
        ref_div, ref_skips = oracle_trials(*args, 0, 300)
        assert np.array_equal(div, ref_div)
        assert np.array_equal(skips, ref_skips)
        ref_div, ref_skips = physical_trials(*args, 0, 300)
        assert div == pytest.approx(ref_div, rel=1e-12, abs=0.0)
        assert np.array_equal(skips, ref_skips)
        if case == "skipping":
            assert 0 < skips.sum() < skips.size

    @pytest.mark.parametrize("d_model", [10, 193])
    def test_stacked_squared_norms_are_the_row_dots(self, d_model):
        # the kernel's one stacked product per block gives each trial's
        # diff @ diff bit for bit (both reach numpy's vector dot)
        diff = np.random.default_rng(d_model).standard_normal((_TRIAL_BLOCK, d_model))
        stacked = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
        assert np.array_equal(stacked, [float(r @ r) for r in diff])

    def test_short_last_block(self):
        args = frozen(small_cfg())
        n = 2 * _TRIAL_BLOCK + 45
        div, skips = kernel_trials(args, n)
        ref_div, ref_skips = oracle_trials(*args, 0, n)
        assert np.array_equal(div, ref_div)
        assert np.array_equal(skips, ref_skips)

    @pytest.mark.parametrize("sigma2", [0.0, 1e-7])
    def test_stream_consumption(self, sigma2):
        # trial t reads its K x 4 channel normals from the head of its row,
        # then adds the row's next d normals times the noise scale (0 at
        # sigma2 = 0) when some device is active; a skipped trial adds none
        k_devices, d_model, gamma_th, rho, seed = 3, 4, 1.5, 0.8, 5
        grads = _basis_gradients(k_devices, d_model)
        power = replace(SCAN_POWER, sigma2=sigma2)
        lam = compensation_lambda(gamma_th, rho)
        zeta = scaling_zeta(k_devices, rho, power, gamma_th)
        noise_scale = math.sqrt(sigma2) / (math.sqrt(2.0) * zeta)
        g_ideal = ideal_aggregate(list(grads))
        div, skips = kernel_trials((grads, power, gamma_th, rho, seed, ()), 300)
        assert 0 < skips.sum() < 300
        for t, row in divergence_rows(seed, (), 0, 300, row_width(grads)):
            assert row.size == 4 * k_devices + d_model
            z = row[: 4 * k_devices].reshape(k_devices, 4) * (1.0 / math.sqrt(2.0))
            h_hat = z[:, 0] + 1j * z[:, 1]
            h = rho * h_hat + math.sqrt(1.0 - rho * rho) * (z[:, 2] + 1j * z[:, 3])
            xi, active, _, _ = aggregate_batch(np.zeros((k_devices, 1)), h, h_hat, gamma_th, lam)
            g_hat = np.zeros(d_model)
            for k in range(k_devices):
                g_hat += xi[k] * grads[k]
            g_hat /= k_devices
            if not active.any():
                g_hat[:] = 0.0
            else:
                g_hat += row[4 * k_devices :] * noise_scale
            diff = g_hat - g_ideal
            assert skips[t] == (not active.any())
            assert div[t] == float(diff @ diff)



XI_CELLS = [(rho, gamma) for rho in (0.5, 1.0) for gamma in (0.1, 2.0)]
XI_ARGS = (XI_CELLS, [compensation_lambda(gamma, rho) for rho, gamma in XI_CELLS])
JOINT_ARGS = (np.linspace(-2.0, 2.0, 9), np.linspace(-2.0, -0.2, 9), (0.5, 1.0))


def block_task(check):
    """(block function, args, key, block size) of one Monte-Carlo check."""
    if check == "xi":
        return harness._xi_blocks, XI_ARGS, (STREAM_MC_XI,), _MC_BLOCK
    if check == "joint":
        return harness._joint_blocks, JOINT_ARGS, (STREAM_MC_JOINT,), _MC_BLOCK
    return harness._divergence_blocks, frozen(small_cfg(gamma_th=2.0))[:4], (STREAM_MC_DIVERGENCE,), _TRIAL_BLOCK


CHECKS = ["xi", "joint", "divergence"]


def same_results(a, b):
    """Block results equal bit for bit: tuples of numbers or of arrays."""
    return len(a) == len(b) and all(
        all(np.array_equal(p, q) for p, q in zip(x, y)) if isinstance(x[0], np.ndarray) else x == y
        for x, y in zip(a, b)
    )


class TestBlockMap:
    @pytest.mark.parametrize("n, block, jobs", [(1000, 256, 2), (300, 256, 2), (2 * 256 + 1, 256, 3),
                                                (100, 256, 4), (10**7, _MC_BLOCK, 2), (5, 1, 8)])
    def test_runs_cover_the_blocks_once(self, monkeypatch, n, block, jobs):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        runs = _block_runs(n, block, jobs)
        assert [b for run in runs for b in run] == list(range(-(-n // block)))
        assert all(len(run) > 0 for run in runs)
        assert len(runs) <= jobs

    @pytest.mark.parametrize("check", CHECKS)
    def test_the_run_split_changes_no_bit(self, check):
        # blocks 0-3 of a task with a short last block, as one run and as
        # runs cut at every place
        fn, args, key, block = block_task(check)
        n = 3 * block + block // 3
        whole = _draw_run((fn, args, 7, key, n, block, range(4)))
        for cut in (1, 2, 3):
            head = _draw_run((fn, args, 7, key, n, block, range(cut)))
            tail = _draw_run((fn, args, 7, key, n, block, range(cut, 4)))
            assert same_results(whole[0], head[0] + tail[0])
            assert np.array_equal(whole[1], head[1] + tail[1])

    @pytest.mark.parametrize("check", CHECKS)
    def test_a_larger_n_extends_the_full_blocks(self, check):
        # n = 3 blocks gives the first three blocks of n = 5 blocks
        fn, args, key, block = block_task(check)
        ((small, small_counts),) = _block_map(fn, [(args, key, 3 * block)], 7, block, 1)
        ((large, large_counts),) = _block_map(fn, [(args, key, 5 * block)], 7, block, 1)
        assert len(small) == 3 and len(large) == 5
        assert same_results(small, large[:3])
        rest = _draw_run((fn, args, 7, key, 5 * block, block, range(3, 5)))
        assert np.array_equal(small_counts + rest[1], large_counts)


def sweep_cfg(**kw):
    return small_cfg(**kw.pop("system", {}), sweep=SweepConfig(**kw))


class TestThresholdSweep:
    GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)

    def test_modes_that_apply_at_rho(self):
        assert sweep_modes(small_cfg()) == ("joint", "communication_oriented", "computation_oriented", "fixed")
        # under perfect CSI the computation term is monotone: no computation-oriented optimum
        assert sweep_modes(small_cfg(rho=1.0)) == ("joint", "communication_oriented", "fixed")
        assert sweep_modes(sweep_cfg(modes=("fixed", "joint"), system={"rho": 1.0})) == ("fixed", "joint")

    def test_perfect_csi_runs_the_modes_that_apply(self):
        res = sweep_threshold(sweep_cfg(gammas=self.GRID, system={"rho": 1.0}))
        assert res.meta["modes"] == "joint,communication_oriented,fixed"
        assert res.column("mode") == ["joint", "communication_oriented"] + ["fixed"] * 8

    def test_reads_the_sweep_section(self):
        grid = (0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 1 / 3)
        res = sweep_threshold(sweep_cfg(gammas=grid, modes=("fixed", "joint"), seeds=4))
        assert res.meta["n_seeds"] == 4 and res.meta["modes"] == "fixed,joint"
        assert res.meta["gamma_grid"] == ",".join(repr(g) for g in grid)
        assert res.column("mode") == ["fixed"] * 8 + ["joint"]

    def test_row_layout(self):
        res = sweep_threshold(
            sweep_cfg(gammas=self.GRID, modes=("joint", "communication_oriented", "computation_oriented"), seeds=3)
        )
        assert len(res.rows) == 3
        assert res.column("mode") == [
            "joint",
            "communication_oriented",
            "computation_oriented",
        ]
        comm = res.rows[1]
        assert dict(zip(res.columns, comm))["gamma_th"] == 0.5
        assert res.meta["n_seeds"] == 3

    def test_fixed_mode_one_row_per_threshold(self):
        res = sweep_threshold(sweep_cfg(gammas=self.GRID, modes=("fixed",), seeds=3))
        assert len(res.rows) == 8
        # the column holds the per-seed mean, so identical cells can pick up
        # one ulp of rounding from the mean
        got = res.column("gamma_th")
        assert all(abs(g - want) < 1e-15 for g, want in zip(got, self.GRID))

    def test_resolves_each_seed_once(self, monkeypatch):
        # a cell is a threshold, not a config: one resolve per seed, and one
        # solve per seed and optimizer mode
        calls = {"resolve": 0, "optimal_threshold": 0}

        def counting(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module in (airfl.config, harness):
            counting(module, "resolve")
            counting(module, "optimal_threshold")
        res = sweep_threshold(sweep_cfg())
        assert res.meta["n_seeds"] == 3 and len(res.rows) == 11
        assert calls == {"resolve": 3, "optimal_threshold": 3 * 3}

    def test_parallel_cells_match_serial(self):
        cfg = sweep_cfg(gammas=self.GRID, modes=("communication_oriented",), seeds=3)
        serial = sweep_threshold(cfg, jobs=1)
        split = sweep_threshold(cfg, jobs=2)
        assert serial.rows == split.rows


class TestSharedSeedDraws:
    GRID = (0.05, 0.1, 0.3, 0.5, 0.8, 1.5, 2.0, 3.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"g_bound": "calibrate"},
            {"g_bound": "genie"},
            {"g_bound": 2.0},
            {"g_bound": "calibrate", "train": replace(SMALL_TRAIN, task="small_mlp", hidden_units=4)},
        ],
        ids=["calibrated", "genie", "fixed_g_bound", "small_mlp"],
    )
    def test_seed_groups_equal_private_runs(self, monkeypatch, kw):
        # every cell of a lock-step group equals a run of its own config:
        # the seed's config at the cell's threshold, 'optimize' for the
        # joint cell, which comes first
        groups = []

        def recording_train_cells(draws, gammas, *args):
            traces = train_cells(draws, gammas, *args)
            groups.append([(replace(draws.cfg, gamma_th="optimize" if c == 0 else gamma), trace)
                           for c, (gamma, trace) in enumerate(zip(gammas, traces))])
            return traces

        monkeypatch.setattr(harness, "train_cells", recording_train_cells)
        sweep_threshold(sweep_cfg(gammas=self.GRID, system=kw))
        assert [len(g) for g in groups] == [11, 11, 11]
        assert len({cfg.seed for g in groups for cfg, _ in g}) == 3
        runs = [run for g in groups for run in g]
        assert any(t.skipped_rounds for _, t in runs)
        for cfg, trace in runs:
            private = train(cfg, mode="aircomp")
            assert trace.gamma_th == private.gamma_th
            assert np.array_equal(trace.final, private.final)
            assert trace.records == private.records
            assert trace.g_bound == private.g_bound

    def test_sweep_evaluates_one_loss_per_cell(self, monkeypatch):
        # the sweep reads only each cell's final accuracy
        calls = []
        real = airfl.fltrain._bce_loss

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(airfl.fltrain, "_bce_loss", counted)
        sweep_threshold(sweep_cfg(gammas=self.GRID))
        assert len(calls) == 11 * 3

    def test_jobs_split_matches_serial(self):
        cfg = sweep_cfg(gammas=self.GRID, system={"g_bound": "calibrate"})
        serial = sweep_threshold(cfg, jobs=1)
        split = sweep_threshold(cfg, jobs=2)
        assert serial.rows == split.rows
        assert serial.meta == split.meta


class TestCsvAndManifest:
    def test_csv_round_trip_is_bit_exact(self, tmp_path):
        columns = ("name", "value", "value_se")
        rows = [("cell", 0.1, 1e-300), ("other", -3, 2.5000000000000004)]
        path = tmp_path / "out.csv"
        write_csv(path, columns, rows)
        cols2, rows2 = read_sweep_csv(path)
        assert cols2 == columns
        assert rows2 == rows

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_sweep_csv(path)

    def test_git_blob_hash_of_empty_input(self):
        assert _git_blob_sha1(b"") == oracles.EMPTY_BLOB_SHA1

    def test_report_writes_csv_and_replayable_manifest(self, tmp_path):
        res = SweepResult(columns=("x", "x_se"), rows=[(1.5, 0.25)], meta={"note": 7})
        cfg = small_cfg(verify_xi=VerifyXiConfig(rhos=(1.0,)), sweep=SweepConfig(seeds=4))
        paths = report(
            {"unit": res},
            tmp_path,
            "unit",
            cfg,
            command="verify-xi",
            section="verify_xi",
            meta=res.meta,
            notes=("gate: PASS",),
        )
        assert paths["unit"].name == "unit.csv"
        assert paths["manifest"].name == "unit_manifest.txt"

        text = paths["manifest"].read_text()
        assert "# command: verify-xi" in text
        assert "# meta note = 7" in text
        assert "# gate: PASS" in text

        # the key=value body is itself a loadable config that replays the run
        # with the named section, not the others
        assert load_config(str(paths["manifest"])) == replace(cfg, sweep=SweepConfig())
        assert "verify_xi.rhos = 1.0\n" in text
        assert "sweep.seeds" not in text

        # recorded hashes match the body and the emitted CSV
        body = "".join(
            line for line in text.splitlines(keepends=True) if not line.startswith("#")
        )
        (config_line,) = [l for l in text.splitlines() if l.startswith("# config_sha1: ")]
        assert config_line.split(": ")[1] == _git_blob_sha1(body.encode())
        (output_line,) = [l for l in text.splitlines() if l.startswith("# output: ")]
        recorded = dict(part.split("=", 1) for part in output_line.split() if "=" in part)
        assert recorded["sha1"] == _git_blob_sha1(paths["unit"].read_bytes())
        assert int(recorded["bytes"]) == len(paths["unit"].read_bytes())

    def test_manifest_records_the_package_version(self, tmp_path):
        res = SweepResult(columns=("x", "x_se"), rows=[(1.5, 0.25)])
        paths = report({"unit": res}, tmp_path, "unit", small_cfg(), command="verify-xi")
        lines = paths["manifest"].read_text().splitlines()
        assert f"# package_version: {airfl.__version__}" in lines

    def test_report_rejects_empty_rows(self, tmp_path):
        res = SweepResult(columns=("x", "x_se"), rows=[(1.0, 0.1)])
        res.rows = []
        with pytest.raises(ValueError, match="empty"):
            report({"unit": res}, tmp_path, "unit", small_cfg(), command="verify-xi")
