import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from airfed import channel as ch
from airfed import compression as C
from airfed.errors import ConfigurationError


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
    k = C.kept_count(rho, g.size)
    return np.sort(np.lexsort((np.arange(g.size), -np.abs(g)))[:k])


# few distinct magnitudes, so ties are common, plus infinities and NaN
tie_prone = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, -np.inf, np.nan])
# the same pool without infinities, whose arithmetic in the codec warns
tie_prone_finite = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.nan])
mixed_vectors = hnp.arrays(
    np.float64,
    st.integers(1, 300),
    elements=st.one_of(tie_prone, st.floats(allow_nan=True, allow_infinity=True)),
)


def mean_quantize(values, quantizer):
    """Oracle: the quantizer with np.mean scales, np.any group tests and
    int8 symbols, decoded as scale * symbol."""
    v = np.asarray(values, dtype=np.float64)
    sign = np.where(v >= 0, 1, -1).astype(np.int8)
    mag = np.abs(v)
    s0 = float(np.mean(mag))
    if quantizer == C.QUANTIZER_BINARY:
        return s0 * sign.astype(np.float64)
    if quantizer == C.QUANTIZER_THREE:
        symbols = np.where(mag <= s0 / 2, 0, sign).astype(np.int8)
        nz = symbols != 0
        s = float(np.mean(mag[nz])) if np.any(nz) else 0.0
        return s * symbols.astype(np.float64)
    inner = mag <= s0
    symbols = np.where(inner, sign, 2 * sign).astype(np.int8)
    s_lo = float(np.mean(mag[inner])) if np.any(inner) else 0.0
    s_hi = float(np.mean(mag[~inner])) if np.any(~inner) else 0.0
    scale = np.where(np.abs(symbols) == 1, s_lo, s_hi)
    return np.sign(symbols).astype(np.float64) * scale


LOSSY = [C.QUANTIZER_BINARY, C.QUANTIZER_THREE, C.QUANTIZER_FOUR]

# sums of up to 60 such values stay finite
quantizer_inputs = hnp.arrays(
    np.float64,
    st.integers(1, 60),
    elements=st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, -3.0]),
        st.floats(-1e300, 1e300, allow_nan=False),
    ),
)


# the width of one payload symbol, per quantizer
SYMBOL_BITS = {
    C.QUANTIZER_NONE: 64,
    C.QUANTIZER_BINARY: 1,
    C.QUANTIZER_THREE: 2,
    C.QUANTIZER_FOUR: 2,
}


def oracle_index_width(d):
    """The least w with 2^w >= d, by counting."""
    w = 0
    while 2**w < d:
        w += 1
    return w


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

    def test_product_an_ulp_above_an_integer_keeps_that_many(self):
        assert 0.07 * 100 > 7  # 7.000000000000001
        assert C.topk_indices(np.arange(100.0), 0.07).size == 7

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


class TestKeptCount:
    @pytest.mark.parametrize(
        "fraction, n, want",
        [
            (0.07, 100, 7),  # 0.07 * 100 rounds above 7
            (0.005, 1000, 5),  # the workloads' and golden cases' exact products
            (0.01, 2000, 20),
            (0.015625, 2000, 32),
            (0.02, 200, 4),
            (0.5, 12, 6),
            (0.5, 20, 10),
            (0.071, 100, 8),  # truly above 7: the next integer
            (1e-3, 10, 1),  # never fewer than one
            (1.0, 7, 7),
        ],
    )
    def test_examples(self, fraction, n, want):
        assert C.kept_count(fraction, n) == want

    @given(st.integers(1, 10**6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_k_over_n_of_n_is_k(self, n, data):
        # (k / n) * n rounds to within 2^-52 of k, above it or below
        k = data.draw(st.integers(1, n))
        assert C.kept_count(k / n, n) == k


class TestQuantize:
    def test_binary_example(self):
        decoded = C.quantize(np.array([1.0, -2.0, 3.0]), C.QUANTIZER_BINARY)
        np.testing.assert_array_equal(decoded, [2.0, -2.0, 2.0])

    def test_binary_single_element_exact(self):
        decoded = C.quantize(np.array([-1.7]), C.QUANTIZER_BINARY)
        np.testing.assert_allclose(decoded, [-1.7])

    def test_three_level_two_pass_scale(self):
        # provisional mean 2.7 zeroes 0.1; final scale = mean(|4|, |-4|) = 4
        decoded = C.quantize(np.array([0.1, 4.0, -4.0]), C.QUANTIZER_THREE)
        np.testing.assert_array_equal(decoded, [0.0, 4.0, -4.0])

    def test_four_level_split(self):
        v = np.array([0.5, -0.5, 3.0, -3.0])
        # split at mean |v| = 1.75: inner scale 0.5, outer scale 3
        np.testing.assert_array_equal(C.quantize(v, C.QUANTIZER_FOUR), v)

    def test_all_zero_input(self):
        for quantizer in (C.QUANTIZER_THREE, C.QUANTIZER_BINARY):
            np.testing.assert_array_equal(C.quantize(np.zeros(4), quantizer), np.zeros(4))

    def test_lossless_quantizer_rejected(self):
        with pytest.raises(ConfigurationError, match="not a lossy quantizer"):
            C.quantize(np.ones(3), C.QUANTIZER_NONE)

    @given(quantizer_inputs, st.sampled_from(LOSSY))
    @settings(max_examples=300, deadline=None)
    def test_matches_mean_oracle(self, v, quantizer):
        decoded = C.quantize(v, quantizer)
        assert decoded.dtype == np.float64
        assert decoded.tobytes() == mean_quantize(v, quantizer).tobytes()

    @given(finite_vectors, st.sampled_from(LOSSY))
    @settings(max_examples=100, deadline=None)
    def test_sign_preservation(self, v, quantizer):
        decoded = C.quantize(v, quantizer)
        assert not np.any((v > 0) & (decoded < 0))
        assert not np.any((v < 0) & (decoded > 0))


# a few rounds of one encoder state: gradients of length 40, of which the
# first d are encoded, and a codec of every kind
encoder_runs = (
    st.lists(
        hnp.arrays(np.float64, 40, elements=tie_prone_finite | st.floats(-1e6, 1e6)),
        min_size=1,
        max_size=3,
    ),
    st.integers(1, 40),
    st.builds(
        C.CodecSpec,
        sparsifier=st.sampled_from(C.SPARSIFIERS),
        threshold=st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0, 10),
        keep_fraction=st.just(1.0) | st.floats(0, 1, exclude_min=True),
        quantizer=st.sampled_from(C.QUANTIZERS),
        error_feedback=st.booleans(),
        momentum=st.just(0.0) | st.floats(0, 0.99),
        clip_norm=st.none() | st.floats(1e-3, 1e3),
        warmup=st.none()
        | st.lists(st.floats(0, 1, exclude_min=True), min_size=1, max_size=3).map(tuple),
    ),
)


def masking_encode(g, spec, state=None, epoch=0):
    """Reference: the codec as one step that also takes the sent coordinates
    out of the accumulators, as `encode` did before `commit` existed."""
    g = np.asarray(g, dtype=np.float64)
    d = g.size
    work = g
    if spec.clip_norm is not None:
        nrm = float(np.linalg.norm(work))
        if nrm > spec.clip_norm:
            work = work * (spec.clip_norm / nrm)

    if spec.error_feedback:
        if state is None:
            raise ConfigurationError("error feedback requires encoder state")
        if state.residual.size != d or state.momentum.size != d:
            raise ConfigurationError("encoder state length must match gradient")
        state.momentum *= spec.momentum
        state.momentum += work
        state.residual += state.momentum
        v = state.residual
    else:
        v = work

    dense = spec.sparsifier == C.SPARSIFIER_NONE
    if dense:
        idx = C._every_index(d)
    elif spec.sparsifier == C.SPARSIFIER_THRESHOLD:
        idx = np.flatnonzero(np.abs(v) > spec.threshold)
    else:
        rho = spec.keep_fraction
        if spec.warmup is not None:
            rho = spec.warmup[min(epoch, len(spec.warmup) - 1)]
        idx = C.topk_indices(v, rho)

    # a copy either way: masking v below leaves it intact
    kept = v.copy() if dense else v[idx]
    if spec.error_feedback:
        state.momentum[idx] = 0.0
        state.residual[idx] = 0.0

    if spec.quantizer != C.QUANTIZER_NONE and kept.size:
        values = C.quantize(kept, spec.quantizer)
    else:
        values = kept

    index_width = 0 if dense else C.index_bits(d)
    payload_bits = idx.size * (C._SYMBOL_BITS[spec.quantizer] + index_width) + C.HEADER_BITS
    return C.CompressedGradient(indices=idx, values=values, d=d, payload_bits=payload_bits)


class TestEncode:
    def test_noop_roundtrip(self):
        g = np.random.default_rng(1).standard_normal(50)
        spec = C.CodecSpec()
        c = C.encode(g, spec)
        np.testing.assert_array_equal(c.decode(), g)
        assert c.payload_bits == 50 * 64 + C.HEADER_BITS

    def test_dense_payloads_share_one_read_only_index_array(self):
        a, b = (C.encode(np.ones(7) * s, C.CodecSpec()) for s in (1.0, 2.0))
        assert a.indices is b.indices and not a.indices.flags.writeable
        np.testing.assert_array_equal(a.indices, np.arange(7))

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
            c = C.encode(g_star, spec, state, epoch=t)
            C.commit(state, c)
            total += c.decode()
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
            C.commit(state, c)
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

    @given(*encoder_runs)
    @settings(max_examples=300, deadline=None)
    def test_payload_indices_sorted_in_range_values_aligned(self, rounds, d, spec):
        """The invariant every decoder relies on, over a few rounds of one
        encoder state: int64 indices strictly increasing within [0, d),
        float64 values of the same length. The input is never written. The
        payload costs (symbol bits + index width) per entry plus the header,
        with no index bits when the codec is dense."""
        state = C.EncoderState.zeros(d)
        width = 0 if spec.sparsifier == C.SPARSIFIER_NONE else oracle_index_width(d)
        for epoch, g in enumerate(rounds):
            g.flags.writeable = False
            before = g.copy()
            c = C.encode(g[:d], spec, state, epoch=epoch)
            assert np.array_equal(g, before, equal_nan=True)
            assert c.d == d
            assert c.indices.dtype == np.int64 and c.indices.ndim == 1
            assert np.all(np.diff(c.indices) > 0)
            assert c.indices.size == 0 or (c.indices[0] >= 0 and c.indices[-1] < d)
            assert c.values.dtype == np.float64 and c.values.shape == c.indices.shape
            assert c.payload_bits == c.indices.size * (SYMBOL_BITS[spec.quantizer] + width) + 64

    @given(*encoder_runs)
    @settings(max_examples=300, deadline=None)
    def test_encode_then_commit_equals_the_masking_codec(self, rounds, d, spec):
        """`encode`, then `commit` under error feedback as the round calls
        it, gives the one-step codec's payloads and accumulators bit for bit,
        round after round of one state."""
        state, ref_state = C.EncoderState.zeros(d), C.EncoderState.zeros(d)
        for epoch, g in enumerate(rounds):
            g.flags.writeable = False
            c = C.encode(g[:d], spec, state, epoch=epoch)
            if spec.error_feedback:
                C.commit(state, c)
            want = masking_encode(g[:d], spec, ref_state, epoch=epoch)
            assert c.indices.tobytes() == want.indices.tobytes()
            assert c.values.tobytes() == want.values.tobytes()
            assert c.payload_bits == want.payload_bits
            assert state.momentum.tobytes() == ref_state.momentum.tobytes()
            assert state.residual.tobytes() == ref_state.residual.tobytes()

    def test_index_bits_exact(self):
        # the float ceil(log2 d) is exact up to 2^49 and one bit short above it
        for d in range(1, 10**5 + 1):
            assert C.index_bits(d) == math.ceil(math.log2(d))
        for k in range(63):
            assert C.index_bits(2**k) == k
            assert C.index_bits(2**k + 1) == k + 1

    def test_a_mismatched_state_is_not_written(self):
        state = C.EncoderState(np.ones(4), np.ones(3))
        spec = C.CodecSpec(error_feedback=True, momentum=0.5)
        with pytest.raises(ConfigurationError, match="encoder state length must match"):
            C.encode(np.ones(4), spec, state)
        np.testing.assert_array_equal(state.momentum, np.ones(4))
        np.testing.assert_array_equal(state.residual, np.ones(3))

    @pytest.mark.parametrize(
        "spec, want",
        [
            (C.CodecSpec(momentum=0.9), "dense|none"),
            (C.CodecSpec(error_feedback=True, momentum=0.9), "dense|none|ef|m0.9"),
            (C.CodecSpec(error_feedback=True), "dense|none|ef"),
        ],
    )
    def test_codec_id_names_momentum_only_under_error_feedback(self, spec, want):
        # encode applies momentum only to the error-feedback accumulators
        assert spec.codec_id == want


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


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: C.CodecSpec(sparsifier="random"),
            "unknown sparsifier 'random'",
            id="sparsifier",
        ),
        pytest.param(
            lambda: C.CodecSpec(quantizer="eight-level"),
            "unknown quantizer",
            id="quantizer",
        ),
        pytest.param(
            lambda: C.CodecSpec(C.SPARSIFIER_THRESHOLD, threshold=-1.0),
            "threshold must be finite and >= 0",
            id="threshold",
        ),
        pytest.param(
            lambda: C.CodecSpec(C.SPARSIFIER_TOPK, keep_fraction=0.0),
            "keep_fraction must be in",
            id="keep-fraction",
        ),
        pytest.param(
            lambda: C.CodecSpec(clip_norm=0.0), "clip_norm must be finite and > 0", id="clip"
        ),
        pytest.param(
            lambda: C.CodecSpec(C.SPARSIFIER_TOPK, keep_fraction=1.5),
            "keep_fraction must be in (0, 1]",
            id="topk-rho",
        ),
        pytest.param(
            lambda: C.quantize(np.array([]), C.QUANTIZER_BINARY),
            "nonempty values",
            id="quantize-empty",
        ),
        pytest.param(
            lambda: C.encode(np.ones(4), C.CodecSpec(error_feedback=True)),
            "error feedback requires encoder state",
            id="ef-no-state",
        ),
        pytest.param(
            lambda: C.encode(
                np.ones(4), C.CodecSpec(error_feedback=True), C.EncoderState.zeros(3)
            ),
            "encoder state length must match",
            id="ef-state-length",
        ),
    ],
)
def test_invalid_input_raises_its_message(call, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        call()
