"""Special functions against high-precision mpmath oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from airfl.specfun import erf, erfc, exp_integral_ei


def rel_err(got: float, want: float) -> float:
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


class TestExpIntegral:
    @pytest.mark.parametrize(
        "x, want",
        [
            (-1.0, oracles.EI_MINUS_1),
            (-0.5, oracles.EI_MINUS_HALF),
            (-4.0, oracles.EI_MINUS_4),
            (-20.0, oracles.EI_MINUS_20),
        ],
    )
    def test_frozen_values(self, x, want):
        assert rel_err(exp_integral_ei(x), want) < 1e-13

    def test_negative_range_to_1e12(self):
        # contract range 1e-6 <= |x| <= 50, both sides of the series/CF seam
        xs = np.logspace(-6, np.log10(50.0), 400)
        worst = max(rel_err(exp_integral_ei(-x), oracles.ei_ref(-x)) for x in xs)
        assert worst < 1e-12

    def test_positive_range_to_1e12(self):
        xs = np.logspace(-6, np.log10(50.0), 200)
        worst = max(rel_err(exp_integral_ei(x), oracles.ei_ref(x)) for x in xs)
        assert worst < 1e-12

    def test_seam_continuity(self):
        below = exp_integral_ei(-4.0 + 1e-12)
        above = exp_integral_ei(-4.0 - 1e-12)
        assert abs(below - above) < 1e-13

    def test_singularity_raises(self):
        with pytest.raises(ValueError):
            exp_integral_ei(0.0)
        with pytest.raises(ValueError):
            exp_integral_ei(float("nan"))
        with pytest.raises(ValueError):
            exp_integral_ei(float("inf"))

    @given(st.floats(min_value=1e-4, max_value=40.0))
    def test_negative_side_is_negative_and_decreasing(self, x):
        # Ei'(x) = e^x/x < 0 for x < 0, so moving toward the origin sinks
        # the value into the logarithmic singularity
        v = exp_integral_ei(-x)
        assert v < 0.0
        assert exp_integral_ei(-x * 0.5) < v


class TestErf:
    @pytest.mark.parametrize(
        "x, want",
        [(1.0, oracles.ERF_1), (0.5, oracles.ERF_HALF), (-1.0, -oracles.ERF_1)],
    )
    def test_frozen_values(self, x, want):
        assert rel_err(erf(x), want) < 1e-13

    def test_range_to_1e12(self):
        xs = np.linspace(-6.0, 6.0, 401)
        worst = max(rel_err(erf(x), oracles.erf_ref(x)) for x in xs if x != 0.0)
        assert worst < 1e-12

    def test_zero(self):
        assert erf(0.0) == 0.0

    @given(st.floats(min_value=1e-6, max_value=6.0))
    def test_odd_symmetry(self, x):
        assert erf(-x) == -erf(x)

    @given(st.floats(min_value=1e-6, max_value=5.0))
    def test_complement_identity(self, x):
        assert abs(erf(x) + erfc(x) - 1.0) < 1e-14


class TestErfc:
    @pytest.mark.parametrize("x, want", [(1.0, oracles.ERFC_1), (5.0, oracles.ERFC_5)])
    def test_frozen_values(self, x, want):
        assert rel_err(erfc(x), want) < 1e-13

    def test_range_to_1e12(self):
        # the far tail is the accuracy-critical region: it enters the CDF as
        # the only surviving term, so cancellation there would be fatal
        xs = np.concatenate([np.linspace(-6.0, 1.0, 141), np.logspace(0.0, 1.0, 120)])
        worst = max(rel_err(erfc(x), oracles.erfc_ref(x)) for x in xs)
        assert worst < 1e-12

    def test_reflection(self):
        assert abs(erfc(-2.0) - (2.0 - erfc(2.0))) < 1e-15

    def test_no_cancellation_in_tail(self):
        # 1 - erf would be exactly 0 here; the continued fraction is not
        assert erfc(10.0) > 0.0
        assert rel_err(erfc(10.0), oracles.erfc_ref(10.0)) < 1e-12

