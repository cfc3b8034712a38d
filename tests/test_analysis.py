"""Closed forms: coefficient variance, joint law and divergence."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from airfl.aircomp import PowerConfig, compensation_lambda, scaling_zeta
from airfl.analysis import (
    conditional_second_moment,
    divergence_bound,
    divergence_exact,
    divergence_exact_always_noise,
    joint_cdf_xy,
    joint_pdf_xy,
    noise_term_exact,
    xi_mean_offset,
    xi_variance,
)

POWER = PowerConfig(p_max=0.1, sigma2=1e-7, g_bound=1.0, d_max_alpha=oracles.D500_POW_22)

gammas = st.floats(min_value=1e-3, max_value=10.0)
rhos = st.floats(min_value=0.05, max_value=0.999)


class TestXiVariance:
    def test_reference_values(self):
        assert abs(xi_variance(0.5, 0.8) - oracles.XI_VAR_G05_R08) < 1e-14
        assert abs(xi_variance(0.5, 1.0) - oracles.XI_VAR_G05_R1) < 1e-16

    def test_grid_against_oracle(self):
        for g in (0.01, 0.1, 0.5, 1.0, 2.0, 5.0):
            for r in (0.3, 0.5, 0.8, 0.95, 1.0):
                got = xi_variance(g, r)
                want = oracles.xi_variance_ref(g, r)
                assert abs(got - want) < 1e-13 * abs(want), (g, r)

    def test_perfect_csi_reduces_to_expm1(self):
        assert xi_variance(0.7, 1.0) == math.expm1(0.7)

    @given(gammas)
    def test_increasing_in_gamma_under_perfect_csi(self, g):
        # only rho = 1 is monotone; with CSI error the variance dips to an
        # interior minimum first, which is what threshold optimization exploits
        assert xi_variance(g * 1.5, 1.0) > xi_variance(g, 1.0)

    def test_interior_minimum_with_csi_error(self):
        v = [xi_variance(g, 0.5) for g in (0.01, 0.7, 8.0)]
        assert v[1] < v[0] and v[1] < v[2]

    @given(gammas, rhos)
    def test_positive(self, g, r):
        assert xi_variance(g, r) > 0.0

    @given(gammas, rhos)
    def test_decreasing_in_rho(self, g, r):
        assert xi_variance(g, r) > xi_variance(g, min(r * 1.2, 1.0))

    def test_rho_sweep_matches_reference_order(self):
        # fixed threshold, improving CSI shrinks the variance monotonically
        vals = [xi_variance(0.5, r) for r in (0.5, 0.7, 0.9, 1.0)]
        assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize("g, r", [(0.0, 0.8), (-1.0, 0.8), (0.5, 0.0), (0.5, 1.5)])
    def test_rejects_bad_arguments(self, g, r):
        with pytest.raises(ValueError):
            xi_variance(g, r)


class TestOffsetAndConditionalMoment:
    def test_offset_formula(self):
        for g in (0.1, 0.5, 2.0):
            for r in (0.3, 0.8, 0.99):
                want = oracles.xi_mean_offset_ref(g, r)
                assert abs(xi_mean_offset(g, r) - want) < 1e-13 * max(abs(want), 1.0)

    def test_offset_undefined_at_perfect_csi(self):
        with pytest.raises(ValueError):
            xi_mean_offset(0.5, 1.0)

    def test_conditional_moment_reference(self):
        assert abs(conditional_second_moment(1.0, 0.0) - oracles.COND_M2_G1_C0) < 1e-15

    def test_conditional_moment_shifts_by_c_squared(self):
        base = conditional_second_moment(0.7, 0.0)
        assert abs(conditional_second_moment(0.7, 2.0) - (base + 4.0)) < 1e-14

    def test_variance_assembles_from_conditional_moment(self):
        # Var[xi] = e^-g lam^2 (1-rho^2) (E[(x-c)^2 | act] - c^2 + rho^2/(1-rho^2)) - 1
        # ties the three public pieces together for rho < 1
        for g in (0.1, 0.5, 1.5):
            for r in (0.4, 0.8, 0.95):
                lam = compensation_lambda(g, r)
                c = xi_mean_offset(g, r)
                x2 = conditional_second_moment(g, c) - c * c
                assembled = (
                    math.exp(-g) * lam * lam * (1 - r * r) * (x2 + r * r / (1 - r * r)) - 1.0
                )
                assert abs(assembled - xi_variance(g, r)) < 1e-12, (g, r)

    def test_rejects_nonfinite_c(self):
        with pytest.raises(ValueError):
            conditional_second_moment(0.5, math.inf)


class TestJointLaw:
    def test_cdf_matches_oracle_on_grid(self):
        for t in (-3.0, -0.7, 0.0, 0.4, 2.5):
            for g in (-4.0, -1.0, -0.1, 0.0, 2.0):
                got = joint_cdf_xy(t, g)
                want = oracles.joint_cdf_ref(t, g)
                assert abs(got - want) < 1e-13, (t, g)

    def test_nonnegative_gamma_is_the_x_marginal(self):
        t = 0.8
        want = 0.5 + t / (2.0 * math.sqrt(1.0 + t * t))
        assert joint_cdf_xy(t, 0.0) == want
        assert joint_cdf_xy(t, 50.0) == want

    def test_continuous_at_gamma_zero(self):
        assert abs(joint_cdf_xy(0.8, -1e-12) - joint_cdf_xy(0.8, 0.0)) < 1e-6

    def test_large_t_recovers_y_marginal(self):
        # F(t -> inf, g) = Pr{y < g} = e^g for g < 0
        for g in (-2.0, -0.5, -0.1):
            assert abs(joint_cdf_xy(60.0, g) - math.exp(g)) < 1e-10

    def test_t_past_the_square_range_is_the_limit(self):
        # t * t overflows past |t| = 1.34e154, where the x marginal is 0 or 1
        for t in (1e154, 1e200, 1.7e308):
            assert joint_cdf_xy(t, 0.0) == 1.0 and joint_cdf_xy(-t, 0.0) == 0.0
            assert joint_cdf_xy(t, -1e-300) == 1.0 and joint_cdf_xy(-t, -1e-300) == 0.0
            assert joint_cdf_xy(t, -0.5) == math.exp(-0.5) and joint_cdf_xy(-t, -0.5) == 0.0

    def test_x_marginal_saturates_slowly(self):
        # the x marginal has Cauchy-like tails: even at t = 50 about 1e-4 of
        # the mass is still outside, so the CDF sits measurably below 1
        val = joint_cdf_xy(50.0, 50.0)
        assert 0.999 < val < 1.0 - 1e-5

    @given(
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=-6.0, max_value=-1e-3),
    )
    def test_monotone_in_both_arguments(self, t, g):
        assert joint_cdf_xy(t + 0.5, g) >= joint_cdf_xy(t, g)
        assert joint_cdf_xy(t, g + (-g) / 2) >= joint_cdf_xy(t, g)

    def test_pdf_zero_outside_support(self):
        assert joint_pdf_xy(0.3, 0.0) == 0.0
        assert joint_pdf_xy(0.3, 1.0) == 0.0

    def test_pdf_matches_oracle(self):
        for t in (-2.0, 0.0, 1.3):
            for g in (-3.0, -0.5, -0.01):
                assert abs(joint_pdf_xy(t, g) - oracles.joint_pdf_ref(t, g)) < 1e-15

    def test_pdf_is_mixed_derivative_of_cdf(self):
        step = 1e-4
        for t, g in ((-1.0, -2.0), (0.5, -0.3), (2.0, -1.5)):
            fd = (
                joint_cdf_xy(t + step, g + step)
                - joint_cdf_xy(t - step, g + step)
                - joint_cdf_xy(t + step, g - step)
                + joint_cdf_xy(t - step, g - step)
            ) / (4.0 * step * step)
            assert abs(fd - joint_pdf_xy(t, g)) < 1e-6

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            joint_cdf_xy(math.nan, -1.0)
        with pytest.raises(ValueError):
            joint_pdf_xy(0.0, math.inf)


class TestDivergence:
    def test_bound_reference_value(self):
        got = divergence_bound(10, 0.5, 0.8, POWER)
        assert abs(got - oracles.DIV_BOUND_DEFAULTS_G1) < 1e-13 * oracles.DIV_BOUND_DEFAULTS_G1

    def test_bound_scales_as_inverse_k_squared(self):
        b10 = divergence_bound(10, 0.5, 0.8, POWER)
        b20 = divergence_bound(20, 0.5, 0.8, POWER)
        assert abs(b10 / b20 - 4.0) < 1e-12

    def test_bound_noise_floor_in_p_max(self):
        # P_max -> inf leaves only the CSI-error floor (G^2/K^2) Var[xi]
        rich = PowerConfig(p_max=1e12, sigma2=1e-7, g_bound=1.0, d_max_alpha=oracles.D500_POW_22)
        floor = xi_variance(0.5, 0.8) / 100.0
        assert abs(divergence_bound(10, 0.5, 0.8, rich) - floor) < 1e-12

    def test_exact_formula_by_hand(self):
        energies = [1.0, 4.0, 0.25]
        got = divergence_exact_always_noise(energies, 3, 0.5, 0.8, POWER, d_model=7)
        zeta = scaling_zeta(3, 0.8, POWER, 0.5)
        want = xi_variance(0.5, 0.8) * sum(energies) / 9 + 7 * 1e-7 / (2 * zeta * zeta)
        assert abs(got - want) < 1e-15 * want

    def test_exact_noise_term_scales_with_dimension(self):
        energies = [1.0] * 5
        d1 = divergence_exact_always_noise(energies, 5, 0.5, 0.8, POWER, d_model=1)
        d11 = divergence_exact_always_noise(energies, 5, 0.5, 0.8, POWER, d_model=11)
        zeta = scaling_zeta(5, 0.8, POWER, 0.5)
        noise1 = 1e-7 / (2 * zeta * zeta)
        assert abs((d11 - d1) - 10 * noise1) < 1e-15

    @pytest.mark.parametrize("gamma", [0.05, 0.5, 1.0, 2.0, 4.0])
    def test_exact_counts_noise_only_in_rounds_that_transmit(self, gamma):
        # Var[xi] sum_k ||g_k||^2 / K^2 + (1 - p_skip) d sigma2 / (2 zeta^2):
        # a round with every device truncated adds no receiver noise
        energies = [1.0, 4.0, 0.25]
        got = divergence_exact(energies, 3, gamma, 0.8, POWER, d_model=7)
        zeta = scaling_zeta(3, 0.8, POWER, gamma)
        p_skip = (1.0 - math.exp(-gamma)) ** 3
        csi = xi_variance(gamma, 0.8) * sum(energies) / 9
        noise = 7 * 1e-7 / (2 * zeta * zeta)
        want = csi + (1.0 - p_skip) * noise
        assert abs(got - want) < 1e-15 * want
        paper = divergence_exact_always_noise(energies, 3, gamma, 0.8, POWER, d_model=7)
        assert abs((paper - got) - p_skip * noise) < 1e-12 * paper

    @pytest.mark.parametrize("gamma", [0.05, 2.0])
    def test_noise_term_exact_is_the_skip_weighted_noise(self, gamma):
        # the noise term of divergence_exact, which verify-divergence reports
        zeta = scaling_zeta(3, 0.8, POWER, gamma)
        p_skip = (1.0 - math.exp(-gamma)) ** 3
        want = (1.0 - p_skip) * (7 * 1e-7 / (2 * zeta * zeta))
        got = noise_term_exact(3, gamma, 0.8, POWER, 7)
        assert abs(got - want) <= 1e-15 * want
        assert divergence_exact([0.0] * 3, 3, gamma, 0.8, POWER, 7) == got

    def test_exact_validation(self):
        with pytest.raises(ValueError):
            divergence_exact([1.0, 2.0], 3, 0.5, 0.8, POWER, 4)
        with pytest.raises(ValueError):
            divergence_exact([1.0, -2.0], 2, 0.5, 0.8, POWER, 4)
        with pytest.raises(ValueError):
            divergence_exact([1.0], 1, 0.5, 0.8, POWER, 0)
        with pytest.raises(ValueError):
            divergence_exact_always_noise([1.0, 2.0], 3, 0.5, 0.8, POWER, 4)


class TestClosedFormReport:
    """The divergence closed forms side by side at one configuration, and the
    convention behind the printed bound."""

    def test_consistent_with_parts(self):
        g2, k, gamma, rho, d = POWER.g_bound**2, 10, 0.5, 0.8, 10
        var = xi_variance(gamma, rho)
        zeta = scaling_zeta(k, rho, POWER, gamma)
        noise = d * POWER.sigma2 / (2.0 * zeta * zeta)
        p_skip = (1.0 - math.exp(-gamma)) ** k
        exact = divergence_exact([g2] * k, k, gamma, rho, POWER, d)
        assert exact == pytest.approx(var * g2 / k + (1.0 - p_skip) * noise, rel=1e-15)
        noise_bound = (POWER.sigma2 * POWER.d_max_alpha * math.exp(2.0 * gamma)
                       / (2.0 * POWER.p_max * rho * rho * gamma))
        bound = divergence_bound(k, gamma, rho, POWER)
        assert bound == pytest.approx(g2 / k**2 * (var + noise_bound), rel=1e-15)

    def test_exact_exceeds_bound_flag(self):
        # under the per-device G used here the exact CSI term keeps K times
        # the bound's, so at the defaults the "bound" sits below the exact value
        exact = divergence_exact([1.0] * 10, 10, 0.5, 0.8, POWER, 10)
        assert exact > divergence_bound(10, 0.5, 0.8, POWER)
        # with one device the two conventions agree and the bound holds
        assert divergence_exact([1.0], 1, 0.5, 0.8, POWER, 1) < divergence_bound(1, 0.5, 0.8, POWER)

    @pytest.mark.parametrize("k", [1, 5, 10, 40])
    @pytest.mark.parametrize("g_bound", [0.3, 2.0])
    def test_bound_is_the_always_noise_value_under_a_total_energy_g(self, k, g_bound):
        # energies summing to G^2 and scalar noise: the printed bound is exact
        cfg = PowerConfig(p_max=0.1, sigma2=1e-7, g_bound=g_bound, d_max_alpha=oracles.D500_POW_22)
        for gamma in (0.05, 0.5, 3.0):
            for rho in (0.1, 0.5, 1.0):
                always = divergence_exact_always_noise([g_bound**2 / k] * k, k, gamma, rho, cfg, 1)
                assert divergence_bound(k, gamma, rho, cfg) == pytest.approx(always, rel=1e-12, abs=0.0)

    def test_scalar_noise_variant(self):
        # the noise term is per coordinate: d = 10 adds nine scalar noise terms
        zeta = scaling_zeta(10, 0.8, POWER, 0.5)
        transmit = 1.0 - (1.0 - math.exp(-0.5)) ** 10
        d1 = divergence_exact([1.0] * 10, 10, 0.5, 0.8, POWER, 1)
        d10 = divergence_exact([1.0] * 10, 10, 0.5, 0.8, POWER, 10)
        assert d10 - d1 == pytest.approx(9.0 * transmit * POWER.sigma2 / (2.0 * zeta * zeta), rel=1e-9)
