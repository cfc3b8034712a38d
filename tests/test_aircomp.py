"""Aggregation arithmetic: scaling constants, pre-processing, power budget."""

import math

import numpy as np
import pytest

import oracles
from airfl.aircomp import (
    AggregationOutcome,
    PowerConfig,
    _aligned,
    _gain,
    _truncated_ratio,
    aggregate,
    aggregate_batch,
    compensation_lambda,
    dbm_to_watts,
    preprocessing_beta,
    scaling_zeta,
)
from airfl.channel import ChannelDraw, EstimationModel, draw_channel, substream

DEFAULT_POWER = PowerConfig(p_max=0.1, sigma2=1e-7, g_bound=1.0, d_max_alpha=oracles.D500_POW_22)


def make_draw(h_hat: complex, h: complex | None = None, d: float = 100.0, alpha: float = 2.2) -> ChannelDraw:
    return ChannelDraw(h=h_hat if h is None else h, h_hat=h_hat, v=0j, d=d, alpha=alpha)


class TestUnitConversion:
    def test_minus_40_dbm(self):
        assert abs(dbm_to_watts(-40.0) - 1e-7) < 1e-22

    def test_zero_dbm_is_one_milliwatt(self):
        assert abs(dbm_to_watts(0.0) - 1e-3) < 1e-18

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dbm_to_watts(float("-inf"))


class TestPowerConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"p_max": 0.0},
            {"sigma2": -1e-9},
            {"g_bound": 0.0},
            {"d_max_alpha": 0.0},
            {"p_max": math.inf},
        ],
    )
    def test_rejects_bad_fields(self, kw):
        base = {"p_max": 0.1, "sigma2": 1e-7, "g_bound": 1.0, "d_max_alpha": 1.0}
        with pytest.raises(ValueError):
            PowerConfig(**{**base, **kw})

    def test_zero_noise_allowed(self):
        assert PowerConfig(p_max=0.1, sigma2=0.0, g_bound=1.0, d_max_alpha=1.0).sigma2 == 0.0


class TestCompensationLambda:
    def test_reference_value(self):
        assert abs(compensation_lambda(0.5, 0.8) - oracles.LAMBDA_G05_R08) < 1e-15

    def test_perfect_csi(self):
        assert compensation_lambda(0.5, 1.0) == math.exp(0.5)

    @pytest.mark.parametrize("g, r", [(0.0, 0.8), (-1.0, 0.8), (0.5, 0.0), (0.5, 1.1)])
    def test_rejects_bad_arguments(self, g, r):
        with pytest.raises(ValueError):
            compensation_lambda(g, r)


class TestScalingZeta:
    def test_hand_formula(self):
        got = scaling_zeta(10, 0.8, DEFAULT_POWER, 0.5)
        want = 10 * 0.8 * math.sqrt(0.1 * 0.5) / (1.0 * math.sqrt(oracles.D500_POW_22) * math.exp(0.5))
        assert abs(got - want) < 1e-18

    def test_scales_linearly_in_k(self):
        z1 = scaling_zeta(1, 0.8, DEFAULT_POWER, 0.5)
        z10 = scaling_zeta(10, 0.8, DEFAULT_POWER, 0.5)
        assert abs(z10 - 10 * z1) < 1e-18

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            scaling_zeta(0, 0.8, DEFAULT_POWER, 0.5)


def xi_and_active(h: np.ndarray, h_hat: np.ndarray, gamma_th: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """aggregate_batch's (xi, active) on channels h, h_hat of shape (..., K)."""
    xi, active, _, _ = aggregate_batch(np.zeros((h.shape[-1], 1)), h, h_hat, gamma_th, lam)
    return xi, active


def coefficient(h_hat: complex, gamma_th: float, lam: float, h: complex | None = None) -> float:
    xi, _ = xi_and_active(np.array([h_hat if h is None else h]), np.array([h_hat]), gamma_th, lam)
    return float(xi[0])


class TestEffectiveXi:
    def test_truncated_device_contributes_zero(self):
        assert coefficient(complex(0.1, 0.0), 0.5, 2.0) == 0.0

    def test_perfect_csi_active_equals_lambda(self):
        lam = compensation_lambda(0.5, 1.0)
        assert coefficient(complex(1.0, 1.0), 0.5, lam) == lam

    def test_misaligned_channel(self):
        # h orthogonal to h_hat -> Re{h* h_hat} = 0 -> xi = 0 despite activity
        assert coefficient(complex(1.0, 0.0), 0.5, 2.0, h=complex(0.0, 1.0)) == 0.0

    def test_elementwise_over_a_block(self):
        h_hat = np.array([[2.0 + 0j, 0.1 + 0j], [0.5 + 0j, 1.0 + 1.0j]])
        h = np.array([[1.0 + 1.0j, 2.0 + 0j], [0.5 + 0j, 0.0 + 1.0j]])
        xi, active = xi_and_active(h, h_hat, 0.25, 2.0)
        assert active.tolist() == [[True, False], [True, True]]
        assert xi.tolist() == [[1.0, 0.0], [2.0, 1.0]]

    def test_ratio_of_the_part_products_is_the_coefficient(self):
        # thresholds taken from the sample's own gains, so some gains lie
        # exactly on gamma_th (and count as active); one column per cell too
        gen = np.random.default_rng(4)
        h_hat, h = (gen.standard_normal(1000) + 1j * gen.standard_normal(1000) for _ in range(2))
        gain, aligned = _gain(h_hat), _aligned(h, h_hat)
        gammas = [0.05, *np.sort(gain)[[10, 500, 990]], 3.0]
        lams = [compensation_lambda(g, 0.7) for g in gammas]
        for gamma_th, lam in zip(gammas, lams):
            xi, active = _truncated_ratio(gain, aligned, gamma_th, lam)
            want_xi, want_active = xi_and_active(h, h_hat, gamma_th, lam)
            assert np.array_equal(xi, want_xi) and np.array_equal(active, want_active)
            assert active[gain == gamma_th].all()
        xi, active = _truncated_ratio(gain, aligned, np.array(gammas)[:, None], np.array(lams)[:, None])
        for row, (gamma_th, lam) in enumerate(zip(gammas, lams)):
            want_xi, want_active = xi_and_active(h, h_hat, gamma_th, lam)
            assert np.array_equal(xi[row], want_xi) and np.array_equal(active[row], want_active)


class TestPreprocessingBeta:
    def test_worst_case_meets_budget_with_equality(self):
        # gain == gamma_th and d^alpha == d_max_alpha saturate the power
        # constraint at exactly P_max for a gradient of norm G
        gamma_th = 0.25
        draw = make_draw(complex(0.5, 0.0), d=500.0, alpha=2.2)
        zeta = scaling_zeta(10, 0.8, DEFAULT_POWER, gamma_th)
        lam = compensation_lambda(gamma_th, 0.8)
        beta = preprocessing_beta(draw, zeta, lam, 10)
        sent = abs(beta) ** 2 * DEFAULT_POWER.g_bound**2
        assert abs(sent - DEFAULT_POWER.p_max) < 1e-12 * DEFAULT_POWER.p_max

    def test_budget_holds_over_random_active_draws(self):
        model = EstimationModel(rho=0.8, alpha=2.2)
        gamma_th = 0.5
        zeta = scaling_zeta(10, 0.8, DEFAULT_POWER, gamma_th)
        lam = compensation_lambda(gamma_th, 0.8)
        gen = substream(17, 6)
        checked = 0
        while checked < 300:
            d = 500.0 - 499.9 * gen.random()
            draw = draw_channel(model, d, gen)
            gain = abs(draw.h_hat) ** 2
            if gain < gamma_th:
                continue
            beta = preprocessing_beta(draw, zeta, lam, 10)
            sent = abs(beta) ** 2 * DEFAULT_POWER.g_bound**2
            assert sent <= DEFAULT_POWER.p_max * (1.0 + 1e-12)
            checked += 1

    def test_inverts_the_estimate(self):
        # beta * h_hat must be real and positive: the estimated channel is
        # rotated away entirely
        draw = make_draw(complex(0.8, -1.1))
        beta = preprocessing_beta(draw, 0.01, 2.0, 10)
        rotated = beta * draw.h_hat
        assert abs(rotated.imag) < 1e-15 * abs(rotated)
        assert rotated.real > 0.0

    def test_rejects_bad_scalars(self):
        draw = make_draw(complex(1.0, 0.0))
        with pytest.raises(ValueError):
            preprocessing_beta(draw, 0.0, 2.0, 10)
        with pytest.raises(ValueError):
            preprocessing_beta(draw, 0.01, -1.0, 10)
        with pytest.raises(ValueError):
            preprocessing_beta(draw, 0.01, 2.0, 0)


class TestAggregate:
    def grads(self, k=4, dim=3, seed=9):
        gen = substream(seed, 99)
        return [gen.standard_normal(dim) for _ in range(k)]

    def draws(self, k=4, seed=13, rho=0.8):
        model = EstimationModel(rho=rho, alpha=2.2)
        gen = substream(seed, 6)
        return [draw_channel(model, 100.0 + 10.0 * i, gen) for i in range(k)]

    def test_reconstruction_identity(self):
        # g_hat == (1/K) sum_k xi_k g_k + noise, the documented invariant
        grads, draws = self.grads(), self.draws()
        out = aggregate(grads, draws, 0.5, 0.8, DEFAULT_POWER, substream(1, 7))
        recon = sum(out.xi[k] * grads[k] for k in range(4)) / 4 + out.noise_realization
        assert np.max(np.abs(out.g_hat - recon)) < 1e-12

    def test_zero_noise_is_exact(self):
        power = PowerConfig(p_max=0.1, sigma2=0.0, g_bound=1.0, d_max_alpha=oracles.D500_POW_22)
        grads, draws = self.grads(), self.draws()
        out = aggregate(grads, draws, 0.5, 0.8, power, substream(1, 7))
        recon = sum(out.xi[k] * grads[k] for k in range(4)) / 4
        assert np.array_equal(out.noise_realization, np.zeros(3))
        assert np.max(np.abs(out.g_hat - recon)) == 0.0

    def test_perfect_everything_recovers_mean(self):
        # rho = 1, sigma2 = 0, all devices active: xi_k = lambda exp(-g)...
        # no: xi_k = lambda exactly, so g_hat = lambda * mean(g)
        power = PowerConfig(p_max=0.1, sigma2=0.0, g_bound=1.0, d_max_alpha=1.0)
        grads = self.grads()
        draws = [make_draw(complex(2.0, i * 0.5)) for i in range(4)]
        out = aggregate(grads, draws, 0.5, 1.0, power, substream(1, 7))
        lam = compensation_lambda(0.5, 1.0)
        want = lam * sum(grads) / 4
        assert np.max(np.abs(out.g_hat - want)) < 1e-15

    def test_truncated_devices_excluded(self):
        power = PowerConfig(p_max=0.1, sigma2=0.0, g_bound=1.0, d_max_alpha=1.0)
        grads = self.grads(k=3)
        draws = [
            make_draw(complex(2.0, 0.0)),
            make_draw(complex(0.1, 0.0)),  # below threshold
            make_draw(complex(1.5, 0.0)),
        ]
        out = aggregate(grads, draws, 0.5, 1.0, power, substream(1, 7))
        assert out.active_set == [0, 2]
        assert out.xi[1] == 0.0
        assert not out.skipped

    def test_empty_active_set_skips_without_noise(self):
        # a fully truncated round draws nothing from rng
        grads = self.grads(k=2)
        draws = [make_draw(complex(0.1, 0.0)), make_draw(complex(0.2, 0.0))]
        rng = substream(1, 7)
        state = rng.bit_generator.state
        out = aggregate(grads, draws, 0.5, 0.8, DEFAULT_POWER, rng)
        assert rng.bit_generator.state == state
        assert out.skipped
        assert out.active_set == []
        assert np.array_equal(out.g_hat, np.zeros(3))
        assert np.array_equal(out.noise_realization, np.zeros(3))

    def test_noise_requires_rng(self):
        grads, draws = self.grads(), self.draws()
        with pytest.raises(ValueError):
            aggregate(grads, draws, 0.5, 0.8, DEFAULT_POWER, None)

    def test_noise_scale(self):
        # per-entry noise std is sqrt(sigma2)/(sqrt(2) zeta); estimate it
        # over many entries with a single big round
        power = PowerConfig(p_max=0.1, sigma2=1e-7, g_bound=1.0, d_max_alpha=oracles.D500_POW_22)
        dim = 40_000
        grads = [np.zeros(dim)]
        draws = [make_draw(complex(2.0, 0.0))]
        out = aggregate(grads, draws, 0.5, 1.0, power, substream(3, 7))
        zeta = scaling_zeta(1, 1.0, power, 0.5)
        want = math.sqrt(1e-7) / (math.sqrt(2.0) * zeta)
        got = float(np.std(out.noise_realization))
        assert abs(got - want) / want < 0.05

    def test_shape_and_count_validation(self):
        grads, draws = self.grads(), self.draws()
        with pytest.raises(ValueError):
            aggregate([], [], 0.5, 0.8, DEFAULT_POWER, None)
        with pytest.raises(ValueError):
            aggregate(grads, draws[:-1], 0.5, 0.8, DEFAULT_POWER, None)
        bad = grads[:3] + [np.zeros(7)]
        with pytest.raises(ValueError, match="differ across devices"):
            aggregate(bad, draws, 0.5, 0.8, DEFAULT_POWER, None)

    @pytest.mark.parametrize("shape", [(4,), (4, 3, 1)])
    def test_gradient_array_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match=r"\(K, d\) array"):
            aggregate(np.zeros(shape), self.draws(), 0.5, 0.8, DEFAULT_POWER, None)

    def test_array_and_list_of_rows_agree(self):
        grads, draws = self.grads(), self.draws()
        rows = aggregate(grads, draws, 0.5, 0.8, DEFAULT_POWER, substream(1, 7))
        stacked = aggregate(np.array(grads), draws, 0.5, 0.8, DEFAULT_POWER, substream(1, 7))
        assert np.array_equal(rows.g_hat, stacked.g_hat)
        assert rows.active_set == stacked.active_set

    def test_unbiased_over_many_rounds(self):
        # mean of g_hat over repeated channel draws approaches the ideal
        # mean gradient (4-SE gate per coordinate norm)
        model = EstimationModel(rho=0.8, alpha=2.2)
        power = PowerConfig(p_max=0.1, sigma2=0.0, g_bound=1.0, d_max_alpha=1.0)
        grads = self.grads(k=3, dim=2)
        ideal = sum(grads) / 3
        gen, noise_gen = substream(21, 8), substream(21, 7)
        trials = 4000
        acc = np.zeros((trials, 2))
        for t in range(trials):
            draws = [draw_channel(model, 50.0, gen) for _ in range(3)]
            acc[t] = aggregate(grads, draws, 0.5, 0.8, power, noise_gen).g_hat
        se = np.std(acc, axis=0, ddof=1) / math.sqrt(trials)
        assert np.all(np.abs(acc.mean(axis=0) - ideal) < 4 * se)


def test_outcome_fields_travel_through():
    out = AggregationOutcome(
        g_hat=np.zeros(2),
        active_set=[0],
        xi=np.ones(1),
        noise_realization=np.zeros(2),
        zeta=0.5,
        lam=2.0,
        skipped=False,
    )
    assert out.zeta == 0.5 and out.lam == 2.0
