"""Truncation-threshold objective: derivatives, convexity, and the solver."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

import oracles
from airfl.aircomp import PowerConfig
from airfl.analysis import divergence_bound
from airfl.config import SystemConfig, objective_coefficients, power_config, resolve
from airfl.optimizer import (
    ObjectiveCoefficients,
    ThresholdSolution,
    coefficients_from_system,
    derivative_h,
    objective_h,
    optimal_threshold,
    second_derivative_h,
    threshold_modes,
)

COEF_SPEC = ObjectiveCoefficients(k1=0.0, k2=1.0)
COEF_MIX = ObjectiveCoefficients(k1=0.3, k2=0.8)

k1s = st.floats(min_value=0.0, max_value=5.0)
k2s = st.floats(min_value=1e-4, max_value=5.0)


class TestCoefficients:
    def test_formulas(self):
        power = PowerConfig(
            p_max=0.1, sigma2=1e-7, g_bound=1.0, d_max_alpha=oracles.D500_POW_22
        )
        coef = coefficients_from_system(0.8, power)
        assert abs(coef.k1 - (1 - 0.64) / (2 * 0.64)) < 1e-15
        assert abs(coef.k2 - 1e-7 * oracles.D500_POW_22 / (2 * 0.1 * 0.64)) < 1e-15

    def test_perfect_csi_kills_k1(self):
        power = PowerConfig(p_max=0.1, sigma2=1e-7, g_bound=1.0, d_max_alpha=1.0)
        assert coefficients_from_system(1.0, power).k1 == 0.0

    def test_noiseless_system_rejected(self):
        power = PowerConfig(p_max=0.1, sigma2=0.0, g_bound=1.0, d_max_alpha=1.0)
        with pytest.raises(ValueError):
            coefficients_from_system(0.8, power)

    def test_modes_that_have_a_threshold(self):
        # k1 = 0 exactly at rho = 1, where the computation term is monotone
        assert threshold_modes(0.8) == ("joint", "communication_oriented", "computation_oriented")
        assert threshold_modes(1.0 - 2.0**-53) == threshold_modes(0.8)
        assert threshold_modes(1.0) == ("joint", "communication_oriented")
        power = PowerConfig(p_max=0.1, sigma2=1e-7, g_bound=1.0, d_max_alpha=1.0)
        for rho in (0.8, 1.0 - 2.0**-53, 1.0):
            coef = coefficients_from_system(rho, power)
            assert (coef.k1 > 0.0) == ("computation_oriented" in threshold_modes(rho))
            for mode in threshold_modes(rho):
                assert optimal_threshold(coef, mode).gamma_star > 0.0
        with pytest.raises(ValueError, match="monotone"):
            optimal_threshold(coefficients_from_system(1.0, power), "computation_oriented")

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveCoefficients(k1=0.0, k2=0.0)
        with pytest.raises(ValueError):
            ObjectiveCoefficients(k1=-0.1, k2=1.0)


class TestObjectiveValues:
    @pytest.mark.parametrize("coef", [COEF_SPEC, COEF_MIX, ObjectiveCoefficients(2.0, 0.01)])
    def test_h_matches_oracle(self, coef):
        for x in (0.01, 0.1, 0.438, 1.0, 3.0, 8.0):
            want = oracles.objective_h_ref(x, coef.k1, coef.k2)
            assert abs(objective_h(x, coef) - want) < 1e-12 * abs(want)

    def test_reference_minimum_value(self):
        got = objective_h(oracles.GAMMA_STAR_K10_K21, COEF_SPEC)
        assert abs(got - oracles.H_AT_GAMMA_STAR_K10_K21) < 1e-12

    @pytest.mark.parametrize("coef", [COEF_SPEC, COEF_MIX])
    def test_first_derivative_matches_oracle(self, coef):
        for x in (0.05, 0.3, 1.0, 4.0):
            want = oracles.derivative_h_ref(x, coef.k1, coef.k2)
            assert abs(derivative_h(x, coef) - want) < 1e-10 * max(abs(want), 1.0)

    @pytest.mark.parametrize("coef", [COEF_SPEC, COEF_MIX])
    def test_second_derivative_matches_oracle(self, coef):
        for x in (0.05, 0.3, 1.0, 4.0):
            want = oracles.second_derivative_h_ref(x, coef.k1, coef.k2)
            assert abs(second_derivative_h(x, coef) - want) < 1e-9 * max(abs(want), 1.0)

    def test_derivatives_consistent_with_finite_differences(self):
        step = 1e-6
        for x in (0.2, 0.7, 2.0):
            fd1 = (objective_h(x + step, COEF_MIX) - objective_h(x - step, COEF_MIX)) / (2 * step)
            fd2 = (derivative_h(x + step, COEF_MIX) - derivative_h(x - step, COEF_MIX)) / (2 * step)
            assert abs(fd1 - derivative_h(x, COEF_MIX)) < 1e-5 * max(abs(fd1), 1.0)
            assert abs(fd2 - second_derivative_h(x, COEF_MIX)) < 1e-5 * max(abs(fd2), 1.0)

    @given(k1s, k2s, st.floats(min_value=1e-3, max_value=10.0))
    def test_convex_on_positive_axis(self, k1, k2, x):
        assert second_derivative_h(x, ObjectiveCoefficients(k1, k2)) > 0.0

    def test_a_zero_noise_weight_adds_no_term(self):
        # with k2 = 0 the noise term is skipped, as the k1 term is at k1 = 0,
        # not divided by an x^2 or x^3 that underflows to zero
        coef = ObjectiveCoefficients(1.0, 0.0)
        assert derivative_h(1e-170, coef) == pytest.approx(-1e170, rel=1e-12)
        assert second_derivative_h(1e-120, coef) == pytest.approx(1e240, rel=1e-12)

    def test_rejects_nonpositive_x(self):
        for fn in (objective_h, derivative_h, second_derivative_h):
            with pytest.raises(ValueError):
                fn(0.0, COEF_MIX)
            with pytest.raises(ValueError):
                fn(-1.0, COEF_MIX)


class TestObjectiveIsThePrintedBound:
    @pytest.mark.parametrize("g_bound", [0.3, 1.0, 7.0])
    @pytest.mark.parametrize("rho", [0.05, 0.3, 0.8, 1.0])
    def test_h_is_the_scaled_bound(self, rho, g_bound):
        # h(gamma) = (K/G)^2 divergence_bound + 1 at every threshold, so the
        # threshold the optimizer picks minimizes the bound that is printed
        cfg = resolve(SystemConfig(rho=rho))
        power, coef, k = power_config(cfg, g_bound), objective_coefficients(cfg), cfg.k_devices
        for gamma in np.geomspace(1e-3, 10.0, 50).tolist():
            h = objective_h(gamma, coef)
            scaled = (k / g_bound) ** 2 * divergence_bound(k, gamma, rho, power) + 1.0
            assert abs(scaled - h) <= 1e-12 * abs(h)
        gamma_star = optimal_threshold(coef).gamma_star
        at_star = divergence_bound(k, gamma_star, rho, power)
        for factor in (0.99, 1.01):
            assert at_star <= divergence_bound(k, gamma_star * factor, rho, power)


class TestSolver:
    def test_reference_root(self):
        sol = optimal_threshold(COEF_SPEC)
        assert abs(sol.gamma_star - oracles.GAMMA_STAR_K10_K21) < 1e-9
        assert abs(sol.derivative_residual) <= 1e-10
        assert sol.mode == "joint"
        assert sol.iterations > 0

    def test_solution_is_a_minimum(self):
        sol = optimal_threshold(COEF_MIX)
        g = sol.gamma_star
        assert objective_h(g, COEF_MIX) <= objective_h(g * 0.9, COEF_MIX)
        assert objective_h(g, COEF_MIX) <= objective_h(g * 1.1, COEF_MIX)

    @given(k1s, k2s)
    def test_beats_random_neighbors(self, k1, k2):
        coef = ObjectiveCoefficients(k1, k2)
        sol = optimal_threshold(coef)
        h_star = objective_h(sol.gamma_star, coef)
        for factor in (0.5, 0.93, 1.07, 2.0):
            assert h_star <= objective_h(sol.gamma_star * factor, coef) + 1e-12

    def test_communication_mode_is_exactly_half(self):
        sol = optimal_threshold(COEF_MIX, mode="communication_oriented")
        assert sol.gamma_star == 0.5
        assert sol.derivative_residual == 0.0
        assert sol.iterations == 0
        assert sol.mode == "communication_oriented"

    def test_computation_mode_drops_the_noise_term(self):
        sol = optimal_threshold(COEF_MIX, mode="computation_oriented")
        ref = optimal_threshold(ObjectiveCoefficients(COEF_MIX.k1, 0.0))
        assert abs(sol.gamma_star - ref.gamma_star) < 1e-12
        assert sol.mode == "computation_oriented"

    def test_computation_mode_needs_csi_error(self):
        with pytest.raises(ValueError):
            optimal_threshold(ObjectiveCoefficients(0.0, 1.0), mode="computation_oriented")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            optimal_threshold(COEF_MIX, mode="fastest")
        with pytest.raises(ValueError):
            optimal_threshold(COEF_MIX, mode="fixed")

    def test_tiny_k2_pushes_root_toward_computation_optimum(self):
        near = optimal_threshold(ObjectiveCoefficients(0.3, 1e-9)).gamma_star
        pure = optimal_threshold(ObjectiveCoefficients(0.3, 0.0)).gamma_star
        assert abs(near - pure) < 1e-3

    @pytest.mark.parametrize("mode", ["joint", "computation_oriented"])
    def test_a_root_below_the_bracket_start_is_bracketed(self, mode):
        # gamma* = sqrt(k2) = 1e-10 for the noise term, about k1 for the CSI term
        coef = ObjectiveCoefficients(0.0, 1e-20) if mode == "joint" else ObjectiveCoefficients(1e-17, 0.0)
        g = optimal_threshold(coef, mode=mode).gamma_star
        assert g < 1e-8
        assert derivative_h(g * (1 - 1e-9), coef) < 0.0 < derivative_h(g * (1 + 1e-9), coef)

    def test_a_root_below_the_floor_is_refused(self):
        # the root sqrt(k2) ~ 3e-162 lies where x^2 is no longer a normal double
        with pytest.raises(ValueError, match="derivative not negative at bracket start"):
            optimal_threshold(ObjectiveCoefficients(0.0, 1e-323))

    def test_solution_record_is_frozen(self):
        sol = optimal_threshold(COEF_SPEC)
        with pytest.raises(AttributeError):
            sol.gamma_star = 1.0

    def test_solution_type(self):
        assert isinstance(optimal_threshold(COEF_SPEC), ThresholdSolution)
