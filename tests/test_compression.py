import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from airfed import channel as ch
from airfed import compression as C


def brute_force_best_subset_energy(g, k):
    """Maximum energy of any size-k coordinate subset (oracle, d <= 12)."""
    return max(
        sum(g[i] ** 2 for i in subset)
        for subset in itertools.combinations(range(g.size), k)
    )


finite_vectors = hnp.arrays(
    np.float64,
    st.integers(1, 30),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def lexsort_topk(g, rho):
    """Oracle: the full-sort top-k rule. Descending |g|, ties to the lower
    index, NaN after every number."""
    k = max(1, math.ceil(rho * g.size))
    return np.sort(np.lexsort((np.arange(g.size), -np.abs(g)))[:k])


# few distinct magnitudes, so ties are common, plus infinities and NaN
tie_prone = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, -np.inf, np.nan])
mixed_vectors = hnp.arrays(
    np.float64,
    st.integers(1, 300),
    elements=st.one_of(tie_prone, st.floats(allow_nan=True, allow_infinity=True)),
)


def threshold(g, tau):
    return C.encode(g, C.CodecSpec(sparsifier=C.SPARSIFIER_THRESHOLD, threshold=tau))


def topk(g, rho):
    return C.encode(g, C.CodecSpec(sparsifier=C.SPARSIFIER_TOPK, keep_fraction=rho))


class TestSparsifyThreshold:
    def test_keeps_entries_above_tau(self):
        c = threshold(np.array([0.5, -2.0, 0.1]), 1.0)
        np.testing.assert_array_equal(c.indices, [1])
        np.testing.assert_array_equal(c.values, [-2.0])

    def test_tau_zero_keeps_all_nonzero(self):
        g = np.array([0.0, 1.0, -3.0, 0.0, 0.25])
        c = threshold(g, 0.0)
        np.testing.assert_array_equal(c.indices, [1, 2, 4])

    @given(finite_vectors, st.floats(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_partition_identity(self, g, tau):
        c = threshold(g, tau)
        kept = c.decode()
        dropped = g - kept
        np.testing.assert_array_equal(kept + dropped, g)
        # dropped part holds only the below-threshold entries
        assert np.all(np.abs(dropped) <= tau)


class TestSparsifyTopk:
    def test_example(self):
        c = topk(np.array([0.1, -5.0, 0.2, 3.0]), 0.5)
        np.testing.assert_array_equal(c.indices, [1, 3])
        np.testing.assert_array_equal(c.values, [-5.0, 3.0])

    def test_rho_one_keeps_everything(self):
        g = np.arange(6, dtype=float)
        c = topk(g, 1.0)
        np.testing.assert_array_equal(c.indices, np.arange(6))

    def test_ties_break_to_lower_index(self):
        g = np.array([2.0, -2.0, 2.0, 1.0])
        c = topk(g, 0.5)
        np.testing.assert_array_equal(c.indices, [0, 1])

    def test_optimal_subset_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            d = int(rng.integers(2, 13))
            k = int(rng.integers(1, min(4, d) + 1))
            g = rng.standard_normal(d)
            idx = C.topk_indices(g, k / d)
            assert idx.size == k
            energy = float(np.sum(g[idx] ** 2))
            assert energy == pytest.approx(brute_force_best_subset_energy(g, k))


    @given(
        mixed_vectors,
        st.one_of(st.just(1.0), st.floats(0, 1, exclude_min=True)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_lexsort_oracle(self, g, rho):
        np.testing.assert_array_equal(C.topk_indices(g, rho), lexsort_topk(g, rho))

    def test_nan_entries_fill_after_every_number(self):
        g = np.array([np.nan, np.nan, 1.0, 2.0])
        np.testing.assert_array_equal(C.topk_indices(g, 0.75), [0, 2, 3])
        np.testing.assert_array_equal(C.topk_indices(g, 0.5), [2, 3])


class TestQuantize:
    def test_binary_example(self):
        symbols, scales = C.quantize(np.array([1.0, -2.0, 3.0]), 2)
        assert scales == (2.0,)
        np.testing.assert_array_equal(
            C.dequantize(symbols, scales, C.QUANTIZER_BINARY), [2.0, -2.0, 2.0]
        )

    def test_binary_single_element_exact(self):
        symbols, scales = C.quantize(np.array([-1.7]), 2)
        np.testing.assert_allclose(
            C.dequantize(symbols, scales, C.QUANTIZER_BINARY), [-1.7]
        )

    def test_three_level_two_pass_scale(self):
        # provisional mean 2.7 zeroes 0.1; final scale = mean(|4|, |-4|) = 4
        symbols, scales = C.quantize(np.array([0.1, 4.0, -4.0]), 3)
        np.testing.assert_array_equal(symbols, [0, 1, -1])
        assert scales == (4.0,)
        np.testing.assert_array_equal(
            C.dequantize(symbols, scales, C.QUANTIZER_THREE), [0.0, 4.0, -4.0]
        )

    def test_four_level_split(self):
        v = np.array([0.5, -0.5, 3.0, -3.0])
        symbols, scales = C.quantize(v, 4)  # split at mean |v| = 1.75
        np.testing.assert_array_equal(symbols, [1, -1, 2, -2])
        assert scales == (0.5, 3.0)
        np.testing.assert_array_equal(
            C.dequantize(symbols, scales, C.QUANTIZER_FOUR), v
        )

    def test_all_zero_input(self):
        symbols, scales = C.quantize(np.zeros(4), 3)
        np.testing.assert_array_equal(symbols, np.zeros(4))
        symbols, scales = C.quantize(np.zeros(4), 2)
        assert scales == (0.0,)

    @given(finite_vectors, st.sampled_from([2, 3, 4]))
    @settings(max_examples=100, deadline=None)
    def test_sign_preservation(self, v, levels):
        quantizer = {2: C.QUANTIZER_BINARY, 3: C.QUANTIZER_THREE, 4: C.QUANTIZER_FOUR}[
            levels
        ]
        symbols, scales = C.quantize(v, levels)
        decoded = C.dequantize(symbols, scales, quantizer)
        assert not np.any((v > 0) & (decoded < 0))
        assert not np.any((v < 0) & (decoded > 0))


class TestEncode:
    def test_noop_roundtrip(self):
        g = np.random.default_rng(1).standard_normal(50)
        spec = C.CodecSpec()
        c = C.encode(g, spec)
        np.testing.assert_array_equal(c.decode(), g)
        assert c.payload_bits == 50 * 64 + C.HEADER_BITS

    def test_error_feedback_accumulates_constant_stream(self):
        d = 40
        g_star = np.random.default_rng(2).standard_normal(d)
        spec = C.CodecSpec(
            sparsifier=C.SPARSIFIER_TOPK, keep_fraction=0.05, error_feedback=True
        )
        state = C.EncoderState.zeros(d)
        total = np.zeros(d)
        rounds = 100
        for t in range(rounds):
            total += C.encode(g_star, spec, state, epoch=t).decode()
        # telescoping: sum of decodes = rounds * g_star - leftover residual
        np.testing.assert_allclose(total + state.residual, rounds * g_star, rtol=1e-10)
        assert np.linalg.norm(rounds * g_star - total) <= np.linalg.norm(
            state.residual
        ) + 1e-9

    def test_plain_topk_with_residual_matches_manual_path(self):
        d = 30
        rng = np.random.default_rng(3)
        spec = C.CodecSpec(
            sparsifier=C.SPARSIFIER_TOPK,
            keep_fraction=0.1,
            error_feedback=True,
            momentum=0.0,
        )
        state = C.EncoderState.zeros(d)
        residual_ref = np.zeros(d)
        for t in range(20):
            g = rng.standard_normal(d)
            c = C.encode(g, spec, state, epoch=t)
            # oracle: residual carry + top-k on the corrected vector
            v = residual_ref + g
            idx = C.topk_indices(v, 0.1)
            np.testing.assert_array_equal(c.indices, idx)
            np.testing.assert_allclose(c.values, v[idx], rtol=1e-12)
            residual_ref = v.copy()
            residual_ref[idx] = 0.0
        np.testing.assert_allclose(state.residual, residual_ref, rtol=1e-12)

    def test_clipping_bounds_norm(self):
        g = np.full(10, 10.0)
        spec = C.CodecSpec(clip_norm=1.0)
        c = C.encode(g, spec)
        assert np.linalg.norm(c.decode()) == pytest.approx(1.0)

    def test_warmup_schedule_lookup(self):
        d = 100
        g = np.random.default_rng(4).standard_normal(d)
        spec = C.CodecSpec(
            sparsifier=C.SPARSIFIER_TOPK,
            keep_fraction=0.01,
            warmup=(0.5, 0.25, 0.1),
        )
        assert C.encode(g, spec, epoch=0).indices.size == 50
        assert C.encode(g, spec, epoch=1).indices.size == 25
        assert C.encode(g, spec, epoch=2).indices.size == 10
        assert C.encode(g, spec, epoch=9).indices.size == 10  # last entry thereafter

    def test_determinism(self):
        g = np.random.default_rng(5).standard_normal(64)
        spec = C.CodecSpec(
            sparsifier=C.SPARSIFIER_TOPK, keep_fraction=0.2, quantizer=C.QUANTIZER_BINARY
        )
        a = C.encode(g.copy(), spec)
        b = C.encode(g.copy(), spec)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.payload_bits == b.payload_bits


def accumulate(payloads, sizes):
    """The server's digital aggregate of decoded payloads."""
    return ch.weighted_mean([p.decode() for p in payloads], sizes)


class TestDecodeAndAccumulate:
    def test_single_noop_payload(self):
        g = np.random.default_rng(6).standard_normal(12)
        c = C.encode(g, C.CodecSpec())
        np.testing.assert_array_equal(accumulate([c], [5]), g)

    def test_disjoint_supports_halved(self):
        a = threshold(np.array([2.0, 0.0, 0.0, 0.0]), 0.0)
        b = threshold(np.array([0.0, 0.0, 4.0, 0.0]), 0.0)
        out = accumulate([a, b], [1, 1])
        np.testing.assert_array_equal(out, [1.0, 0.0, 2.0, 0.0])

    def test_matches_uncompressed_weighted_mean(self):
        rng = np.random.default_rng(7)
        gs = [rng.standard_normal(9) for _ in range(3)]
        sizes = [1, 2, 5]
        payloads = [C.encode(g, C.CodecSpec()) for g in gs]
        out = accumulate(payloads, sizes)
        expected = sum(s * g for s, g in zip(sizes, gs)) / sum(sizes)
        np.testing.assert_allclose(out, expected, rtol=1e-12)


class TestCompressionRatio:
    def test_noop_ratio(self):
        c = C.encode(np.ones(100), C.CodecSpec())
        assert C.compression_ratio(c) == pytest.approx(1.0 + 64 / (64 * 100))

    def test_topk_binary_accounting(self):
        # d = 1000, 1% kept, binary: 10 * (10 + 1) + 64 = 174 bits
        g = np.random.default_rng(8).standard_normal(1000)
        spec = C.CodecSpec(
            sparsifier=C.SPARSIFIER_TOPK, keep_fraction=0.01, quantizer=C.QUANTIZER_BINARY
        )
        c = C.encode(g, spec)
        assert c.payload_bits == 174
        assert C.compression_ratio(c) == pytest.approx(174 / 64000)

    def test_monotone_in_keep_fraction(self):
        g = np.random.default_rng(9).standard_normal(256)
        prev = -1.0
        for rho in (0.01, 0.05, 0.2, 0.5, 1.0):
            spec = C.CodecSpec(
                sparsifier=C.SPARSIFIER_TOPK,
                keep_fraction=rho,
                quantizer=C.QUANTIZER_BINARY,
            )
            ratio = C.compression_ratio(C.encode(g, spec))
            assert ratio >= prev
            prev = ratio

