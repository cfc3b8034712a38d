"""Channel draws, RNG streams, and the truncation test."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from airfl.aircomp import effective_coefficients
from airfl.channel import (
    ChannelDraw,
    EstimationModel,
    draw_channel,
    draw_channel_block,
    draw_channel_rows,
    substream,
)


class TestSubstream:
    def test_same_key_reproduces(self):
        a = substream(2026, 6, 3, 1).standard_normal(8)
        b = substream(2026, 6, 3, 1).standard_normal(8)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = substream(2026, 6, 3, 1).standard_normal(8)
        b = substream(2026, 6, 3, 2).standard_normal(8)
        c = substream(2026, 7, 3, 1).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_key_required(self):
        with pytest.raises(ValueError):
            substream(2026)

    def test_large_key_components(self):
        gen = substream(1, 2**63 + 17, 5)
        assert np.isfinite(gen.standard_normal())

    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=2**20))
    def test_streams_are_pure_functions_of_the_key(self, seed, stream):
        assert substream(seed, stream).integers(1 << 30) == substream(seed, stream).integers(1 << 30)


class TestEstimationModel:
    @pytest.mark.parametrize("rho", [0.0, -0.1, 1.5])
    def test_rejects_bad_rho(self, rho):
        with pytest.raises(ValueError):
            EstimationModel(rho=rho, alpha=2.0)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, math.inf])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            EstimationModel(rho=0.8, alpha=alpha)


class TestDrawChannel:
    def test_consumes_four_normals_in_order(self):
        model = EstimationModel(rho=0.8, alpha=2.2)
        draw = draw_channel(model, 100.0, substream(11, 6))
        z = substream(11, 6).standard_normal(4) / math.sqrt(2.0)
        assert draw.h_hat == complex(z[0], z[1])
        assert draw.v == complex(z[2], z[3])

    def test_estimation_identity(self):
        model = EstimationModel(rho=0.8, alpha=2.2)
        draw = draw_channel(model, 100.0, substream(11, 6))
        want = 0.8 * draw.h_hat + math.sqrt(1.0 - 0.8 * 0.8) * draw.v
        assert draw.h == want

    def test_perfect_csi_collapses(self):
        model = EstimationModel(rho=1.0, alpha=2.2)
        draw = draw_channel(model, 100.0, substream(11, 6))
        assert draw.h == draw.h_hat

    def test_records_distance_and_alpha(self):
        model = EstimationModel(rho=0.8, alpha=3.0)
        draw = draw_channel(model, 42.0, substream(11, 6))
        assert draw.d == 42.0 and draw.alpha == 3.0

    def test_rejects_bad_distance(self):
        model = EstimationModel(rho=0.8, alpha=2.2)
        with pytest.raises(ValueError):
            draw_channel(model, 0.0, substream(11, 6))

    def test_unit_variance_moments(self):
        # E|h_hat|^2 = E|h|^2 = 1; 4-SE gates at n = 2e5
        model = EstimationModel(rho=0.8, alpha=2.2)
        h, h_hat, v = draw_channel_block(model, 200_000, substream(3, 8))
        for name, z in (("h", h), ("h_hat", h_hat), ("v", v)):
            p = np.abs(z) ** 2
            se = np.std(p, ddof=1) / math.sqrt(p.size)
            assert abs(np.mean(p) - 1.0) < 4 * se, name

    def test_block_first_column_matches_scalar(self):
        model = EstimationModel(rho=0.8, alpha=2.2)
        h, h_hat, v = draw_channel_block(model, 1, substream(11, 6))
        scalar = draw_channel(model, 5.0, substream(11, 6))
        assert h_hat[0] == scalar.h_hat and v[0] == scalar.v and h[0] == scalar.h

    @pytest.mark.parametrize("rho", [0.3, 0.8, 1.0])
    def test_block_is_the_normals_expression(self, rho):
        # bit for bit the arithmetic on the rows: h_hat = z0 + i z1, v = z2 + i z3
        model = EstimationModel(rho=rho, alpha=2.2)
        h, h_hat, v = draw_channel_block(model, 1000, substream(4, 8))
        z = draw_channel_rows(1000, substream(4, 8))
        assert np.array_equal(h_hat, z[0] + 1j * z[1]) and np.array_equal(v, z[2] + 1j * z[3])
        assert np.array_equal(h, rho * (z[0] + 1j * z[1]) + math.sqrt(1.0 - rho * rho) * (z[2] + 1j * z[3]))

    def test_rows_are_one_scaled_draw(self):
        # bit for bit one standard_normal((4, n)) call, scaled to N(0, 1/2)
        want = np.random.default_rng(9).standard_normal((4, 300)) * (1.0 / math.sqrt(2.0))
        assert np.array_equal(draw_channel_rows(300, np.random.default_rng(9)), want)

    def test_block_peaks_at_64_bytes_per_sample(self):
        # it returns 48 B per sample; the normals (32 B) go before h is formed
        n = 100_000
        model = EstimationModel(rho=0.8, alpha=2.2)
        gen = substream(4, 8)
        tracemalloc.start()
        try:
            out = draw_channel_block(model, n, gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(a.nbytes for a in out) == 48 * n
        assert peak < 66 * n

    def test_block_rejects_empty(self):
        with pytest.raises(ValueError):
            draw_channel_block(EstimationModel(rho=1.0, alpha=2.0), 0, substream(1, 1))


def is_active(h_hat: complex, gamma_th: float) -> bool:
    _, active = effective_coefficients(np.array([h_hat]), np.array([h_hat]), gamma_th, 1.0)
    return bool(active[0])


class TestIsActive:
    def test_boundary_is_active(self):
        # |0.5|^2 = 0.25 exactly in binary
        assert is_active(complex(0.5, 0.0), 0.25)

    def test_below_threshold_inactive(self):
        assert not is_active(complex(0.5, 0.0), 0.25000001)

    def test_above_threshold_active(self):
        assert is_active(complex(1.0, 1.0), 1.5)

    @pytest.mark.parametrize("g", [0.0, -1.0, math.inf])
    def test_rejects_bad_threshold(self, g):
        with pytest.raises(ValueError):
            is_active(complex(1.0, 0.0), g)

    def test_truncation_probability(self):
        model = EstimationModel(rho=1.0, alpha=2.0)
        _, h_hat, _ = draw_channel_block(model, 200_000, substream(5, 8))
        gain = np.abs(h_hat) ** 2
        p = float(np.mean(gain >= 0.5))
        se = math.sqrt(p * (1 - p) / gain.size)
        assert abs(p - math.exp(-0.5)) < 4 * se


def test_channel_draw_is_frozen():
    draw = ChannelDraw(h=1 + 0j, h_hat=1 + 0j, v=0j, d=1.0, alpha=2.0)
    with pytest.raises(AttributeError):
        draw.h = 2 + 0j
