"""Channel draws, RNG streams, and the truncation test."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from airfl.aircomp import effective_coefficients
from airfl.channel import (
    ChannelDraw,
    EstimationModel,
    Reseeder,
    draw_channel,
    draw_channel_block,
    substream,
    substream_rows,
    substream_states,
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


_EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1)
_KEY_PARTS = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=2**32 - 2, max_value=2**64 + 5),
    st.integers(min_value=-(2**64), max_value=-1),
)


class TestSubstreamRows:
    """substream_states and substream_rows replay numpy's own seeding; if
    numpy ever seeds SeedSequence or PCG64 differently, these fail."""

    @given(
        st.one_of(st.sampled_from(_EDGE_SEEDS), st.integers(min_value=-(2**70), max_value=2**70)),
        st.lists(_KEY_PARTS, max_size=3).map(tuple),
        st.one_of(
            st.integers(min_value=-5, max_value=50),
            st.integers(min_value=2**32 - 4, max_value=2**32 + 1),
            st.integers(min_value=2**64 - 3, max_value=2**64 + 3),
            st.integers(min_value=-(2**63), max_value=2**63),
        ),
        st.integers(min_value=0, max_value=6),
    )
    def test_rows_equal_numpy_streams(self, seed, key_prefix, lo, n):
        hi = lo + n
        states = substream_states(seed, key_prefix, lo, hi)
        rows = substream_rows(seed, key_prefix, lo, hi, 64)
        assert len(states) == n and rows.shape == (n, 64)
        for t, (state, inc), row in zip(range(lo, hi), states, rows):
            gen = substream(seed, *key_prefix, t)
            assert gen.bit_generator.state["state"] == {"state": state, "inc": inc}
            assert np.array_equal(row, gen.standard_normal(64))

    @pytest.mark.parametrize("seed", _EDGE_SEEDS)
    def test_range_across_a_word_boundary(self, seed):
        # t crosses 2^32, where its high spawn-key word turns over
        lo, hi = 2**32 - 3, 2**32 + 3
        rows = substream_rows(seed, (6, 2**40), lo, hi, 8)
        ref = [substream(seed, 6, 2**40, t).standard_normal(8) for t in range(lo, hi)]
        assert np.array_equal(rows, np.array(ref))

    @pytest.mark.parametrize("seed", _EDGE_SEEDS)
    def test_two_varying_parts(self, seed):
        # entry (t - lo) * inner + k is the state of key (*prefix, t, k)
        states = substream_states(seed, (5,), 2**32 - 2, 2**32 + 1, inner=4)
        keys = [(t, k) for t in range(2**32 - 2, 2**32 + 1) for k in range(4)]
        ref = [substream(seed, 5, t, k).bit_generator.state["state"] for t, k in keys]
        assert [{"state": s, "inc": inc} for s, inc in states] == ref

    def test_reseeder_restarts_each_stream(self):
        states = substream_states(7, (6,), 0, 2, inner=3)
        reseed = Reseeder()
        for (t, k), state in zip([(t, k) for t in range(2) for k in range(3)], states):
            # a 32-bit draw leaves half a word buffered; the next reseed drops it
            used = reseed(state)
            used.random(3, dtype=np.float32)
            assert used.bit_generator.state["has_uint32"] == 1
            got = reseed(state).choice(40, size=8, replace=False), reseed(state).standard_normal(4)
            gen = substream(7, 6, t, k)
            assert np.array_equal(got[0], gen.choice(40, size=8, replace=False))
            assert np.array_equal(got[1], substream(7, 6, t, k).standard_normal(4))

    def test_empty_range(self):
        assert substream_states(1, (2,), 5, 5) == []
        assert substream_rows(1, (2,), 5, 5, 3).shape == (0, 3)


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
