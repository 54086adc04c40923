import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from airfed import channel as ch
from airfed import compression as C
from airfed.errors import ConfigurationError, SchemeError

DIGITAL = ch.TransportScheme(ch.IDEAL_DIGITAL)
OTA = ch.TransportScheme(ch.OVER_THE_AIR)


def make_entries(vectors, sizes):
    """Entries whose payloads are the vectors, encoded dense and lossless."""
    return [
        ch.TransmitEntry(k, C.encode(v, C.CodecSpec()), v, s)
        for k, (v, s) in enumerate(zip(vectors, sizes))
    ]


def unit_plan(weights, n_clients):
    """Beamformer `weights` with every client transmitting at unit power."""
    return ch.AirPlan(
        np.array(weights, dtype=float), np.ones(n_clients), list(range(n_clients))
    )


def amplitude_of(plan):
    """Transmitter id -> its amplitude sqrt(p_k)."""
    return dict(zip(plan.transmitters, plan.amplitudes.tolist(), strict=True))


def superpose(values, gains, weights, sigma=0.0, rng=None):
    """Over-the-air output for client k sending values[k] at unit power."""
    r = ch.ChannelRealization(np.array(gains, dtype=float), sigma)
    vectors = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
    res = ch.transmit_round(
        make_entries(vectors, [1] * len(vectors)), OTA, r, unit_plan(weights, len(values)),
        rng or np.random.default_rng(0),
    )
    return res.aggregated


def residuals(r, targets, plan):
    """|m^T h_k sqrt(p_k) - c'_k| per transmitter, c' the targets renormalised
    over the transmitters; the gains are taken as the solver takes them."""
    tx = plan.transmitters
    total = sum(targets[cid] for cid in tx)
    gains = r.gains[tx] @ plan.beam
    return {
        cid: abs(float(g) * a - targets[cid] / total)
        for cid, g, a in zip(tx, gains, plan.amplitudes)
    }


class TestSampleChannel:
    def test_same_seed_identical(self):
        a = ch.sample_channel(4, 3, 0.1, seed=5)
        b = ch.sample_channel(4, 3, 0.1, seed=5)
        np.testing.assert_array_equal(a.gains, b.gains)

    def test_single_scalar_gain(self):
        r = ch.sample_channel(1, 1, 0.0, seed=0)
        assert r.gains.shape == (1, 1)

    def test_unit_variance_monte_carlo(self):
        r = ch.sample_channel(100, 100, 0.0, seed=1)
        assert 0.95 < float(np.var(r.gains)) < 1.05


class TestOtaSuperpose:
    def test_single_client_identity_channel(self):
        np.testing.assert_allclose(superpose([0.5], [[1.0]], [1.0]), [0.5])

    def test_orthogonal_channels(self):
        # a unit beamformer reads one antenna: each carries one client alone
        gains = [[1.0, 0.0], [0.0, 1.0]]
        antennas = [superpose([2.0, -3.0], gains, e)[0] for e in np.eye(2)]
        np.testing.assert_allclose(antennas, [2.0, -3.0])

    def test_noise_mean_converges(self):
        sigma = 0.3
        samples = 10_000
        x = superpose(
            [np.ones(samples)], [[1.0]], [1.0], sigma, np.random.default_rng(2)
        )
        assert abs(x.mean() - 1.0) < 3 * sigma / 100


class TestBeamformCombine:
    def test_averaging_beamformer(self):
        assert superpose([1.0], [[3.0, 5.0]], [0.5, 0.5])[0] == pytest.approx(4.0)

    def test_unit_vector_selects_entry(self):
        assert superpose([1.0], [[7.0, 1.0, 2.0]], [1.0, 0.0, 0.0])[0] == 7.0

    def test_linearity(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal(5)
        x, xp = rng.standard_normal(5), rng.standard_normal(5)
        assert superpose([1.0, 1.0], [x, xp], m)[0] == pytest.approx(
            superpose([1.0], [x], m)[0] + superpose([1.0], [xp], m)[0]
        )


class TestSolveAggregationWeights:
    def test_orthogonal_channels_zero_residual(self):
        r = ch.ChannelRealization(np.array([[1.0, 0.0], [0.0, 1.0]]), 0.0)
        targets = {0: 0.5, 1: 0.5}
        plan = ch.solve_aggregation_weights(r, targets, power_cap=1.0)
        assert plan.transmitters == [0, 1]
        assert all(v < 1e-10 for v in residuals(r, targets, plan).values())

    def test_single_client(self):
        g = 2.0
        r = ch.ChannelRealization(np.array([[g]]), 0.0)
        plan = ch.solve_aggregation_weights(r, {0: 1.0}, 1.0)
        mg = float(plan.beam @ r.gains[0])
        assert plan.amplitudes[0] ** 2 == pytest.approx(1.0 / (mg * mg))
        assert residuals(r, {0: 1.0}, plan)[0] < 1e-12

    def test_weak_client_excluded(self):
        gains = np.array([[1e-6, 0.0], [0.0, 1.0], [1.0, 1.0]])
        r = ch.ChannelRealization(gains, 0.0)
        plan = ch.solve_aggregation_weights(
            r, {0: 1 / 3, 1: 1 / 3, 2: 1 / 3}, power_cap=1.0
        )
        assert 0 not in plan.transmitters
        # surviving targets renormalize to 1: constraints hold for survivors
        total = sum(
            float(plan.beam @ gains[cid]) * a
            for cid, a in amplitude_of(plan).items()
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_random_channels_satisfy_constraints(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            K, N = 3, 5
            r = ch.ChannelRealization(rng.standard_normal((K, N)), 0.0)
            targets = {k: 1.0 / K for k in range(K)}
            plan = ch.solve_aggregation_weights(r, targets, 100.0)
            res = residuals(r, targets, plan)
            for cid in plan.transmitters:
                assert res[cid] < 1e-9

    def test_all_excluded_raises(self):
        r = ch.ChannelRealization(np.array([[1e-12]]), 0.0)
        with pytest.raises(SchemeError):
            ch.solve_aggregation_weights(r, {0: 1.0}, power_cap=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1])
    def test_non_finite_or_negative_target_rejected(self, bad):
        # {0: nan, 1: 1.0} and friends must not pass the sum check
        r = ch.ChannelRealization(np.eye(2), 0.0)
        with pytest.raises(ConfigurationError, match="finite"):
            ch.solve_aggregation_weights(r, {0: bad, 1: 1.0}, power_cap=1.0)
        with pytest.raises(ConfigurationError, match="finite"):
            ch.solve_aggregation_weights(r, {0: 1.0 - bad, 1: bad}, power_cap=1.0)

    def test_channel_scaling_inverse_power(self):
        rng = np.random.default_rng(5)
        gains = rng.standard_normal((3, 4))
        targets = {k: 1 / 3 for k in range(3)}
        lam = 2.5
        a1 = ch.solve_aggregation_weights(
            ch.ChannelRealization(gains, 0.0), targets, 1e6
        ).amplitudes
        a2 = ch.solve_aggregation_weights(
            ch.ChannelRealization(lam * gains, 0.0), targets, 1e6
        ).amplitudes
        for k in range(3):
            assert a2[k] ** 2 == pytest.approx(a1[k] ** 2 / lam**2, rel=1e-9)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_plan_meets_every_transmitter_target(self, data):
        K = data.draw(st.integers(1, 6))
        N = data.draw(st.integers(1, K + 4))
        sizes = data.draw(st.lists(st.integers(1, 50), min_size=K, max_size=K))
        targets = {k: sizes[k] / sum(sizes) for k in range(K)}
        cap = data.draw(st.floats(1e-2, 1e6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        r = ch.ChannelRealization(rng.standard_normal((K, N)), 0.0)
        try:
            plan = ch.solve_aggregation_weights(r, targets, cap)
        except SchemeError:
            return
        tx = plan.transmitters
        assert tx == sorted(set(tx)) and set(tx) <= set(targets)
        assert plan.amplitudes.shape == (len(tx),)
        for cid, a in amplitude_of(plan).items():
            assert a**2 <= cap
            assert plan.beam @ r.gains[cid] > ch.GAIN_EPS
        assert all(v < 1e-9 for v in residuals(r, targets, plan).values())


    @given(
        K=st.integers(1, 10),
        N=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        cap=st.floats(1e-2, 1e3),
        j=st.integers(-40, 40),
    )
    @example(K=3, N=5, seed=1, cap=1.0, j=-3)  # K <= N: two of three excluded
    @example(K=8, N=3, seed=0, cap=10.0, j=7)  # K > N: five of eight excluded
    @settings(max_examples=100, deadline=None)
    def test_weights_scaled_by_a_power_of_two_give_the_same_plan(self, K, N, seed, cap, j):
        # the solver normalises the weights over each pass's candidates, and
        # a power of two scales every weight and every sum exactly
        rng = np.random.default_rng(seed)
        r = ch.ChannelRealization(rng.standard_normal((K, N)), 0.0)
        weights = dict(enumerate(rng.uniform(0.5, 50, K).tolist()))
        scaled = {cid: math.ldexp(w, j) for cid, w in weights.items()}
        try:
            want = ch.solve_aggregation_weights(r, weights, cap)
        except SchemeError:
            with pytest.raises(SchemeError):
                ch.solve_aggregation_weights(r, scaled, cap)
            return
        got = ch.solve_aggregation_weights(r, scaled, cap)
        assert got.transmitters == want.transmitters
        assert got.beam.tobytes() == want.beam.tobytes()
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


def svd_plan_oracle(r, targets, power_cap):
    """Reference solver: the same exclusion loop, factorising each pass with
    an SVD (principal right singular vector) or pinv(H) @ 1, and filtering
    candidates one at a time."""
    candidates = sorted(targets)
    while candidates:
        total = sum(targets[cid] for cid in candidates)
        tgt = {cid: targets[cid] / (total or 1.0) for cid in candidates}
        H = r.gains[candidates]
        if r.n_antennas >= len(candidates):
            m_vec = np.linalg.pinv(H) @ np.ones(len(candidates))
            nrm = np.linalg.norm(m_vec)
            if nrm > 0:
                m_vec = m_vec / nrm
        else:
            _, _, vt = np.linalg.svd(H, full_matrices=False)
            m_vec = vt[0]
            if np.sum(H @ m_vec) < 0:
                m_vec = -m_vec
        amplitudes = {}
        for cid, gain in zip(candidates, H @ m_vec):
            if gain > ch.GAIN_EPS:
                a = tgt[cid] / gain
                if a * a <= power_cap:
                    amplitudes[cid] = a
        if len(amplitudes) == len(candidates):
            return ch.AirPlan(m_vec, np.array(list(amplitudes.values())), candidates)
        candidates = list(amplitudes)
    raise SchemeError("no clients satisfy the aggregation constraints")


def assert_same_plan(r, targets, cap):
    try:
        want = svd_plan_oracle(r, targets, cap)
    except SchemeError:
        with pytest.raises(SchemeError):
            ch.solve_aggregation_weights(r, targets, cap)
        return
    got = ch.solve_aggregation_weights(r, targets, cap)
    assert got.transmitters == want.transmitters
    sign = 1.0 if got.beam @ want.beam >= 0 else -1.0
    np.testing.assert_allclose(sign * got.beam, want.beam, rtol=0, atol=1e-9)
    np.testing.assert_allclose(got.amplitudes, want.amplitudes, rtol=1e-9, atol=0)


class TestSolverMatchesSvdOracle:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_channels(self, data):
        K = data.draw(st.integers(1, 70))
        N = data.draw(st.integers(1, 40))
        sizes = data.draw(st.lists(st.integers(1, 50), min_size=K, max_size=K))
        targets = dict(enumerate(sizes))  # weights, as a round passes them
        cap = data.draw(st.floats(1e-2, 1e6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        r = ch.ChannelRealization(rng.standard_normal((K, N)), 0.0)
        s = np.linalg.svd(r.gains, compute_uv=False)
        # a repeated top singular value leaves the principal direction undefined
        assume(K <= N or s.size < 2 or s[0] - s[1] > 1e-6 * s[0])
        assert_same_plan(r, targets, cap)

    @pytest.mark.parametrize("case", ["duplicate-rows", "zero-row", "1x1", "identity"])
    def test_degenerate_channels(self, case):
        rng = np.random.default_rng(23)
        gains = {
            "duplicate-rows": rng.standard_normal((4, 6))[[0, 1, 1, 2, 3]],
            "zero-row": np.vstack([rng.standard_normal((3, 5)), np.zeros((1, 5))]),
            "1x1": np.array([[0.7]]),
            "identity": np.eye(4),
        }[case]
        if case in ("duplicate-rows", "zero-row"):
            # linearly dependent channels: the solver takes its pinv fallback
            diag = np.abs(np.diag(np.linalg.qr(gains.T)[1]))
            assert diag.min() <= 1e-12 * diag.max()
        K = gains.shape[0]
        targets = {k: (k + 1) / (K * (K + 1) / 2) for k in range(K)}
        for cap in (1e-2, 1.0, 1e6):
            assert_same_plan(ch.ChannelRealization(gains, 0.0), targets, cap)


class TestTransmitRoundDigital:
    def test_exact_weighted_aggregate(self):
        rng = np.random.default_rng(6)
        vectors = [rng.standard_normal(8) for _ in range(3)]
        sizes = [1, 2, 5]
        entries = make_entries(vectors, sizes)
        res = ch.transmit_round(entries, ch.TransportScheme(ch.IDEAL_DIGITAL))
        expected = sum(s * v for s, v in zip(sizes, vectors)) / sum(sizes)
        np.testing.assert_allclose(res.aggregated, expected, rtol=1e-12)
        assert res.aggregation_error == 0.0
        assert res.channel_uses == 3 * 8


class TestTransmitRoundOverTheAir:
    def _solved_setup(self, d, sigma, seed=7):
        rng = np.random.default_rng(seed)
        K, N = 3, 4
        r = ch.ChannelRealization(rng.standard_normal((K, N)), sigma)
        sizes = [2, 3, 5]
        total = sum(sizes)
        targets = {k: sizes[k] / total for k in range(K)}
        plan = ch.solve_aggregation_weights(r, targets, 1e6)
        vectors = [rng.standard_normal(d) for _ in range(K)]
        entries = make_entries(vectors, sizes)
        return r, plan, entries

    def test_noiseless_matches_weighted_mean(self):
        r, plan, entries = self._solved_setup(d=64, sigma=0.0)
        res = ch.transmit_round(
            entries, ch.TransportScheme(ch.OVER_THE_AIR), r, plan,
            np.random.default_rng(0),
        )
        assert res.aggregation_error < 1e-8
        assert res.channel_uses == 64

    def test_analog_round_needs_a_noise_generator(self):
        r, plan, entries = self._solved_setup(d=8, sigma=0.1)
        with pytest.raises(ConfigurationError, match="noise rng"):
            ch.transmit_round(entries, ch.TransportScheme(ch.OVER_THE_AIR), r, plan)
        # a noiseless channel draws no noise, so it needs no generator
        r, plan, entries = self._solved_setup(d=8, sigma=0.0)
        res = ch.transmit_round(entries, ch.TransportScheme(ch.OVER_THE_AIR), r, plan)
        assert res.aggregation_error < 1e-8

    @pytest.mark.parametrize(
        "reorder",
        [lambda es: es[::-1], lambda es: es[1:], lambda es: es + es[:1]],
        ids=["reversed", "one-missing", "one-repeated"],
    )
    def test_entries_out_of_plan_order_rejected(self, reorder):
        # amplitudes are aligned by position: another order would mis-weight
        r, plan, entries = self._solved_setup(d=8, sigma=0.0)
        assert plan.transmitters == [0, 1, 2]
        with pytest.raises(ConfigurationError, match="plan.transmitters"):
            ch.transmit_round(reorder(entries), OTA, r, plan, np.random.default_rng(0))

    def test_entry_the_plan_lacks_rejected(self):
        r, plan, entries = self._solved_setup(d=8, sigma=0.0)
        stranger = dataclasses.replace(entries[0], client_id=5)
        with pytest.raises(ConfigurationError, match="plan.transmitters"):
            ch.transmit_round(
                entries + [stranger], OTA, r, plan, np.random.default_rng(0)
            )

    def test_mse_linear_in_noise_power(self):
        d = 32
        sigmas = [0.01, 0.02, 0.04, 0.08]
        mses = []
        for sigma in sigmas:
            r, plan, entries = self._solved_setup(d=d, sigma=sigma)
            exact = sum(e.size * e.raw for e in entries) / sum(e.size for e in entries)
            rng = np.random.default_rng(1)
            errs = []
            for _ in range(1000):
                res = ch.transmit_round(
                    entries, ch.TransportScheme(ch.OVER_THE_AIR), r, plan, rng
                )
                errs.append(np.mean((res.aggregated - exact) ** 2))
            mses.append(np.mean(errs))
        x = np.array(sigmas) ** 2
        y = np.array(mses)
        slope, intercept = np.polyfit(x, y, 1)
        fitted = slope * x + intercept
        r2 = 1 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)
        assert r2 > 0.99


def dense_form(op):
    """The operator's matrix, column j = A @ e_j. cas vanishes exactly at
    t = 3d/8 and 7d/8, where the FFT leaves rounding-size entries: those are
    set to 0, as the operator's exact column norms count them."""
    A = np.column_stack([op @ e for e in np.eye(op.shape[1])])
    A[np.abs(A) < 1e-12] = 0.0
    return A


@st.composite
def projections(draw, min_m=1):
    d = draw(st.integers(min_m + 1, 80))
    m = draw(st.integers(min_m, d - 1))
    return ch.measurement_matrix(d, m, draw(st.integers(0, 2**32 - 1)))


class TestHartleyProjection:
    @given(projections(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_form(self, op, seed):
        m, d = op.shape
        A = dense_form(op)
        assert A.shape == (m, d)
        r = np.random.default_rng(seed).standard_normal(m)
        scale = np.max(np.abs(A.T @ r))
        np.testing.assert_allclose(op.rmatvec(r), A.T @ r, rtol=0, atol=1e-12 * scale)
        for j in range(d):
            np.testing.assert_allclose(op.gram_column(j), A.T @ A[:, j], rtol=0, atol=1e-12 * m)
        np.testing.assert_allclose(
            op.column_norms(), np.linalg.norm(A, axis=0), rtol=0, atol=1e-12 * math.sqrt(m)
        )

    @given(projections(), st.integers(0, 2**32 - 1))
    @example(dataclasses.replace(ch.measurement_matrix(8, 2, 0), rows=np.array([3, 7])), 0)
    @settings(max_examples=100, deadline=None)
    def test_gram_columns_follow_the_rows(self, op, seed):
        # a copy with other rows must build its own spectrum, not reuse the
        # one the first operator cached; d = 8 puts exact zeros in the Gram
        d = op.shape[1]
        rng = np.random.default_rng(seed)
        other = rng.choice(d, size=rng.integers(1, d), replace=False)
        for current in (op, dataclasses.replace(op, rows=other)):
            A = dense_form(current)
            for j in range(d):
                np.testing.assert_allclose(
                    current.gram_column(j), A.T @ A[:, j], rtol=0, atol=1e-12 * current.shape[0]
                )

    @given(projections())
    @example(dataclasses.replace(ch.measurement_matrix(8, 2, 0), rows=np.array([3, 7])))
    @settings(max_examples=100, deadline=None)
    def test_gram_column_into_a_buffer(self, op):
        # the sign products are exact, so their order leaves every bit,
        # the sign of a zero included; d = 8 puts exact zeros in the Gram
        d = op.shape[1]
        re, im = op._spectrum
        buf = np.empty(d)
        for j in range(d):
            want = op.signs[j] * op.signs * (re[d - j : 2 * d - j] - im[j : j + d])
            assert op.gram_column(j, out=buf) is buf
            assert_same_bits(buf, want)
            assert_same_bits(op.gram_column(j), want)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_distinct_signs_unit_and_seeded(self, data):
        d = data.draw(st.integers(2, 80))
        m = data.draw(st.integers(1, d - 1))
        seed = data.draw(st.integers(0, 2**32 - 1))
        op = ch.measurement_matrix(d, m, seed)
        assert op.shape == (m, d)
        assert np.unique(op.rows).size == m
        assert np.all((0 <= op.rows) & (op.rows < d))
        assert np.all(np.abs(op.signs) == 1.0)
        again = ch.measurement_matrix(d, m, seed)
        for field in ("signs", "rows"):
            np.testing.assert_array_equal(getattr(op, field), getattr(again, field))

    @pytest.mark.parametrize("d", [7, 8, 64, 1000])
    def test_unit_mean_square_entries(self, d):
        A = dense_form(ch.measurement_matrix(d, d - 1, 0))
        assert np.mean(A**2) == pytest.approx(1.0, abs=1.5 / d)

    def test_column_on_zeros_of_cas_has_norm_zero(self):
        # d = 8: cas vanishes at t = 3 and 7, so rows 3 and 7 meet zeros in
        # columns 1 and 5 (3 * 5 = 7 and 7 * 5 = 3 mod 8)
        op = dataclasses.replace(ch.measurement_matrix(8, 2, 0), rows=np.array([3, 7]))
        norms = op.column_norms()
        np.testing.assert_array_equal(np.flatnonzero(norms == 0), [1, 5])
        diagonal = [op.gram_column(j)[j] for j in (1, 5)]
        np.testing.assert_allclose(diagonal, 0.0, rtol=0, atol=1e-15)


class TestTransmitRoundCsOverTheAir:
    def test_single_client_exact_recovery_vs_exhaustive_oracle(self):
        d, m_cs = 8, 4
        dense = np.zeros(d)
        dense[3] = 1.5
        r = ch.ChannelRealization(np.array([[1.0]]), 0.0, seed=11)
        entries = make_entries([dense], [1])
        res = ch.transmit_round(
            entries, ch.TransportScheme(ch.CS_OVER_THE_AIR, m_cs), r, unit_plan([1.0], 1),
            np.random.default_rng(0),
        )
        np.testing.assert_allclose(res.aggregated, dense, atol=1e-10)
        assert res.channel_uses == m_cs
        # oracle: exhaustive search over all 8 one-sparse supports
        A = dense_form(ch.measurement_matrix(d, m_cs, 11))
        y = A @ dense
        best = None
        for support in range(d):
            coef = float(A[:, support] @ y / (A[:, support] @ A[:, support]))
            resid = float(np.linalg.norm(y - coef * A[:, support]))
            if best is None or resid < best[0]:
                best = (resid, support, coef)
        assert best[1] == 3
        assert best[2] == pytest.approx(1.5)

    def test_projects_the_superposed_sum(self, monkeypatch):
        # noiseless: y is the channel-weighted sum of the per-client projections
        rng = np.random.default_rng(8)
        d, m_cs, K, N = 40, 12, 4, 6
        r = ch.ChannelRealization(rng.standard_normal((K, N)), 0.0, seed=3)
        plan = ch.solve_aggregation_weights(r, {k: 1 / K for k in range(K)}, 1e6)
        vectors = []
        for _ in range(K):
            v = np.zeros(d)
            v[rng.choice(d, size=3, replace=False)] = rng.standard_normal(3)
            vectors.append(v)
        entries = [
            e for e in make_entries(vectors, [1] * K) if e.client_id in plan.transmitters
        ]
        captured = []
        monkeypatch.setattr(
            ch, "omp_recover", lambda A, y, sparsity: captured.append(y) or np.zeros(d)
        )
        ch.transmit_round(
            entries, ch.TransportScheme(ch.CS_OVER_THE_AIR, m_cs), r, plan,
            np.random.default_rng(0),
        )
        A = ch.measurement_matrix(d, m_cs, 3)
        expected = sum(
            float(plan.beam @ r.gains[e.client_id])
            * amplitude_of(plan)[e.client_id]
            * (A @ e.dense)
            for e in entries
        )
        (y,) = captured
        assert len(entries) > 1
        np.testing.assert_allclose(y, expected, rtol=0, atol=1e-12 * np.linalg.norm(y))

    @pytest.mark.parametrize("kind", [ch.IDEAL_DIGITAL, ch.OVER_THE_AIR])
    def test_measurements_only_for_compressed_over_the_air(self, kind):
        with pytest.raises(ConfigurationError, match="measurements"):
            ch.TransportScheme(kind, 5)
        assert ch.TransportScheme(kind).measurements is None


def omp_oracle(A, y, sparsity, tol=1e-8):
    """Reference OMP: refits least squares from scratch on every step."""
    m, d = A.shape
    norms = np.linalg.norm(A, axis=0)
    norms[norms == 0] = 1.0
    An = A / norms
    x = np.zeros(d)
    support = []
    residual = y.copy()
    for _ in range(min(sparsity, m, d)):
        if np.linalg.norm(residual) < tol:
            break
        scores = np.abs(An.T @ residual)
        scores[support] = -1.0
        support.append(int(np.argmax(scores)))
        coef, *_ = np.linalg.lstsq(A[:, support], y, rcond=None)
        residual = y - A[:, support] @ coef
    if support:
        x[support] = coef
    return x


def omp_reference(A, y, sparsity):
    """`ch.omp_recover` as written with a new array for every operation of a
    step, and the Gram column formed as s_j * s * (Re F - Im F): the buffered
    loop must give the same bits."""
    m, d = A.shape
    y = np.asarray(y, dtype=np.float64)
    if isinstance(A, np.ndarray):
        gram_column, c = lambda j: A.T @ A[:, j], A.T @ y
        norms = np.linalg.norm(A, axis=0)
    else:
        re, im = A._spectrum

        def gram_column(j):
            return A.signs[j] * A.signs * (re[d - j : 2 * d - j] - im[j : j + d])

        c, norms = A.rmatvec(y), A.column_norms()
    sq_norms = norms**2
    norms[norms == 0] = 1.0
    budget = min(sparsity, m, d)
    P = np.empty((budget, d))
    R = np.zeros((budget, budget))
    beta = np.empty(budget)
    support = []
    taken = np.zeros(d, dtype=bool)

    def fit():
        x = np.zeros(d)
        s = len(support)
        x[support] = np.linalg.solve(R[:s, :s], beta[:s])
        return x

    res_sq = float(y @ y)
    floor = ch.GRAM_FLOOR * res_sq
    for k in range(budget):
        if res_sq <= floor:
            residual = y - A @ fit()
            res_sq, floor = float(residual @ residual), -1.0
        if res_sq < ch.OMP_TOL**2:
            break
        scores = np.abs(c) / norms
        scores[taken] = -1.0
        j = int(np.argmax(scores))
        r = P[:k, j]
        r_kk_sq = sq_norms[j] - r @ r
        if r_kk_sq <= ch.GRAM_FLOOR * sq_norms[j]:
            break
        r_kk = math.sqrt(r_kk_sq)
        P[k] = (gram_column(j) - r @ P[:k]) / r_kk
        R[:k, k] = r
        R[k, k] = r_kk
        beta[k] = c[j] / r_kk
        c -= beta[k] * P[k]
        res_sq -= beta[k] ** 2
        taken[j] = True
        support.append(j)
    return fit()


def assert_same_bits(got, want):
    """Equal arrays down to the sign of zero."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_support(got, want, atol):
    """Same coordinates above atol: a column that lstsq weights exactly 0 may
    get a coefficient of rounding size from another solver."""
    np.testing.assert_array_equal(
        np.flatnonzero(np.abs(got) > atol), np.flatnonzero(np.abs(want) > atol)
    )


def near_tie(A, y, sparsity, tol=1e-8):
    """Whether a step of the oracle's greedy search finds a runner-up score
    within 1e-9 of the best, so that rounding decides the pick."""
    norms = np.linalg.norm(A, axis=0)
    norms[norms == 0] = 1.0
    support, residual = [], y
    for _ in range(min(sparsity, *A.shape)):
        if np.linalg.norm(residual) < tol:
            break
        scores = np.abs(A.T @ residual) / norms
        scores[support] = -1.0
        second, top = np.sort(scores)[-2:]
        if top - second <= 1e-9 * top:
            return True
        support.append(int(np.argmax(scores)))
        coef, *_ = np.linalg.lstsq(A[:, support], y, rcond=None)
        residual = y - A[:, support] @ coef
    return False


class TestOmp:
    def test_recovery_rate_gaussian(self):
        d, s = 64, 3
        m_cs = 2 * s * 6  # 2 s log2(d)
        successes = 0
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            A = rng.standard_normal((m_cs, d))
            x = np.zeros(d)
            support = rng.choice(d, size=s, replace=False)
            x[support] = rng.standard_normal(s) + np.sign(rng.standard_normal(s))
            y = A @ x
            x_hat = ch.omp_recover(A, y, s)
            if np.allclose(x_hat, x, atol=1e-8):
                successes += 1
        assert successes > 95

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_lstsq_oracle(self, data):
        m = data.draw(st.integers(1, 40))
        d = data.draw(st.integers(m + 1, 80))
        sparsity = data.draw(st.integers(0, m + 5))
        nonzeros = data.draw(st.integers(0, min(m, d)))
        noisy = data.draw(st.booleans())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        A = rng.standard_normal((m, d))
        x = np.zeros(d)
        x[rng.choice(d, size=nonzeros, replace=False)] = rng.standard_normal(nonzeros)
        y = A @ x + (0.1 * rng.standard_normal(m) if noisy else 0.0)
        got = ch.omp_recover(A, y, sparsity)
        want = omp_oracle(A, y, sparsity)
        if m == 1:
            # all columns are parallel, so every score ties and rounding
            # picks the column; any one of them gives the same fit
            assert np.count_nonzero(got) == np.count_nonzero(want)
            assert abs(y - A @ got)[0] == pytest.approx(abs(y - A @ want)[0], abs=1e-9)
            return
        atol = 1e-9 * np.max(np.abs(want))
        assert_same_support(got, want, atol)
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)

    @given(projections(min_m=2), st.data())
    @settings(max_examples=200, deadline=None)
    def test_operator_matches_its_dense_form(self, op, data):
        m, d = op.shape
        A = dense_form(op)
        sparsity = data.draw(st.integers(0, m + 5))
        nonzeros = data.draw(st.integers(0, m))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = np.zeros(d)
        x[rng.choice(d, size=nonzeros, replace=False)] = rng.standard_normal(nonzeros)
        y = A @ x + (0.1 * rng.standard_normal(m) if data.draw(st.booleans()) else 0.0)
        # the Hartley symmetries make exact ties common at small d; the two
        # products round differently, so rounding would pick the column
        assume(not near_tie(A, y, sparsity))
        got = ch.omp_recover(op, y, sparsity)
        want = ch.omp_recover(A, y, sparsity)
        atol = 1e-9 * max(1.0, np.max(np.abs(want)))
        assert_same_support(got, want, atol)
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)

    @given(projections(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_bits_as_the_unbuffered_loop(self, op, data):
        m, d = op.shape
        sparsity = data.draw(st.integers(0, m + 5))
        nonzeros = data.draw(st.integers(0, m))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = np.zeros(d)
        x[rng.choice(d, size=nonzeros, replace=False)] = rng.standard_normal(nonzeros)
        y = op @ x + (0.1 * rng.standard_normal(m) if data.draw(st.booleans()) else 0.0)
        for A in (op, dense_form(op)):
            assert_same_bits(ch.omp_recover(A, y, sparsity), omp_reference(A, y, sparsity))

    @pytest.mark.parametrize(
        "case, sparsity",
        [
            ("duplicate-column", 6),
            ("zero-column", 6),
            ("rank-2", 6),
            ("zero-y", 6),
            ("full-rank", 0),
            ("full-rank", 8),
            ("full-rank", 12),
        ],
    )
    def test_degenerate_inputs(self, case, sparsity):
        rng = np.random.default_rng(17)
        m, d = 8, 12
        A = rng.standard_normal((m, d))
        if case == "duplicate-column":
            A[:, 5] = A[:, 2]
        elif case == "zero-column":
            A[:, 4] = 0.0
        elif case == "rank-2":
            A = rng.standard_normal((m, 2)) @ rng.standard_normal((2, d))
        y = np.zeros(m) if case == "zero-y" else rng.standard_normal(m)
        with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            got = ch.omp_recover(A, y, sparsity)
        assert_same_bits(got, omp_reference(A, y, sparsity))
        want = omp_oracle(A, y, sparsity)
        assert np.all(np.isfinite(got))
        assert np.linalg.norm(y - A @ got) == pytest.approx(
            np.linalg.norm(y - A @ want), rel=0, abs=1e-9
        )
        if case != "rank-2":
            # only a rank-deficient A lets the oracle pad its support with
            # columns that do not improve the fit
            assert_same_support(got, want, 1e-9 * np.max(np.abs(want)))

    @pytest.mark.parametrize("hartley", [False, True])
    def test_noiseless_one_sparse_stops_at_the_true_support(self, hartley):
        # ||y||^2 - beta^2 keeps a rounding-size remainder above OMP_TOL^2, so
        # only the residual formed at the rounding floor stops the search
        m, d = 21, 41
        rng = np.random.default_rng(133)
        if hartley:
            A, j, value = ch.measurement_matrix(d, m, 1), 19, 1.7
        else:
            A = rng.standard_normal((m, d))
            j, value = int(rng.choice(d, size=1, replace=False)[0]), rng.standard_normal()
        x = np.zeros(d)
        x[j] = value
        got = ch.omp_recover(A, A @ x, m)
        np.testing.assert_array_equal(np.flatnonzero(got), [j])
        assert got[j] == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize(
        "case, y",
        [
            ("parallel", [1.3]),
            ("zero-columns", [0.3, -1.1]),
            ("zero-columns", [1.0, 1.0]),
            ("span-at-rounding", None),
        ],
    )
    def test_degenerate_hartley_operators(self, case, y):
        # m = 1: every column is parallel. d = 8 with rows {3, 7}: columns 1
        # and 5 are zero and the rest lie along two directions. The budget
        # ends those searches at m picks. At ||y|| = 1e8 rounding leaves a
        # residual above OMP_TOL, so the search reaches columns in the span
        # already chosen, and only the in-span stop ends it.
        if case == "parallel":
            op = ch.measurement_matrix(8, 1, 0)
        elif case == "zero-columns":
            op = dataclasses.replace(ch.measurement_matrix(8, 2, 0), rows=np.array([3, 7]))
        else:
            op = ch.measurement_matrix(8, 3, 1)
            y = 1e8 * (op @ np.eye(8)[0])
        A, y = dense_form(op), np.asarray(y, dtype=np.float64)
        with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            got = ch.omp_recover(op, y, 8)
        assert_same_bits(got, omp_reference(op, y, 8))
        assert_same_bits(ch.omp_recover(A, y, 8), omp_reference(A, y, 8))
        want = omp_oracle(A, y, 8)
        assert np.all(np.isfinite(got))
        assert np.linalg.norm(y - A @ got) == pytest.approx(
            np.linalg.norm(y - A @ want), rel=0, abs=1e-14 * max(1.0, np.linalg.norm(y))
        )
        assert np.all(got[~A.any(axis=0)] == 0.0)

    def test_one_transform_per_call_whatever_the_budget(self, monkeypatch):
        rng = np.random.default_rng(5)
        fft, calls = np.fft.fft, []
        monkeypatch.setattr(np.fft, "fft", lambda x: calls.append(x) or fft(x))
        counts = []
        for sparsity in (5, 57):
            op = ch.measurement_matrix(1000, 200, 5)
            y = rng.standard_normal(200)
            calls.clear()
            assert np.count_nonzero(ch.omp_recover(op, y, sparsity)) == sparsity
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_matches_the_oracle_at_the_workload_shape(self):
        # cs-recovery: d = 1000, m = 200 and a budget of about 57 flat entries
        d, m, budget = 1000, 200, 57
        rng = np.random.default_rng(2)
        op = ch.measurement_matrix(d, m, 2)
        A = dense_form(op)
        x = np.zeros(d)
        x[rng.choice(d, budget, replace=False)] = 1.0 - 2.0 * rng.integers(0, 2, budget)
        y = op @ x + 0.01 * rng.standard_normal(m)
        assert not near_tie(A, y, budget)
        got = ch.omp_recover(op, y, budget)
        assert_same_bits(got, omp_reference(op, y, budget))
        want = omp_oracle(A, y, budget)
        atol = 1e-9 * np.max(np.abs(want))
        assert_same_support(got, want, atol)
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)


class TestMetamorphic:
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_digital_aggregate_ignores_order_and_client_ids(self, data):
        sizes = data.draw(st.lists(st.integers(1, 50), min_size=1, max_size=6))
        K = len(sizes)
        d = data.draw(st.integers(1, 8))
        order = data.draw(st.permutations(range(K)))
        ids = data.draw(st.lists(st.integers(0, 10**6), min_size=K, max_size=K, unique=True))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        entries = make_entries([rng.standard_normal(d) for _ in sizes], sizes)
        base = ch.transmit_round(entries, DIGITAL).aggregated
        permuted = [entries[i] for i in order]
        relabelled = [dataclasses.replace(e, client_id=c) for e, c in zip(entries, ids)]
        for variant in (permuted, relabelled):
            out = ch.transmit_round(variant, DIGITAL).aggregated
            np.testing.assert_allclose(out, base, rtol=0, atol=1e-12)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_noiseless_over_the_air_equals_digital(self, data):
        sizes = data.draw(st.lists(st.integers(1, 50), min_size=1, max_size=70))
        K = len(sizes)
        N = data.draw(st.integers(1, 40))
        d = data.draw(st.integers(1, 16))
        # sparse, quantized and (threshold above every entry) empty payloads
        spec = data.draw(
            st.builds(
                C.CodecSpec,
                sparsifier=st.sampled_from(C.SPARSIFIERS),
                threshold=st.sampled_from([0.0, 0.5, 100.0]),
                keep_fraction=st.floats(0.05, 1.0),
                quantizer=st.sampled_from(C.QUANTIZERS),
            )
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        r = ch.ChannelRealization(rng.standard_normal((K, N)), 0.0)
        targets = {k: sizes[k] / sum(sizes) for k in range(K)}
        plan = ch.solve_aggregation_weights(r, targets, 1e6)
        entries = [
            ch.TransmitEntry(k, C.encode(v, spec), v, sizes[k])
            for k, v in enumerate(rng.standard_normal(d) for _ in range(K))
            if k in plan.transmitters
        ]
        ota = ch.transmit_round(entries, OTA, r, plan, np.random.default_rng(0))
        digital = ch.transmit_round(entries, DIGITAL)
        np.testing.assert_allclose(ota.aggregated, digital.aggregated, rtol=0, atol=1e-8)
        assert ota.aggregation_error == pytest.approx(digital.aggregation_error, abs=1e-8)


def scattered(payload):
    """A payload decoded by scatter alone: zeros, then the values at the
    indices, whether or not they cover every entry."""
    dense = np.zeros(payload.d)
    dense[payload.indices] = payload.values
    return dense


def transmit_reference(entries, scheme, r, plan, rng):
    """`ch.transmit_round`'s aggregate and error as written with a fresh
    dense vector per entry, scattered, stacked by np.asarray: decoding into
    the round's row matrix, a dense payload by a copy, must give the same
    bits."""
    sizes = [e.size for e in entries]
    exact = ch.weighted_mean([e.raw for e in entries], sizes)
    rows = np.asarray([scattered(e.payload) for e in entries])
    if scheme.kind == ch.IDEAL_DIGITAL:
        agg = ch.weighted_mean(rows, sizes)
    else:
        y = (r.gains[plan.transmitters] @ plan.beam * plan.amplitudes) @ rows
        if scheme.kind == ch.CS_OVER_THE_AIR:
            A = ch.measurement_matrix(y.size, scheme.measurements, r.seed)
            y = A @ y
        if r.noise_std > 0:
            y = y + r.noise_std * rng.standard_normal((y.size, r.n_antennas)) @ plan.beam
        agg = y
        if scheme.kind == ch.CS_OVER_THE_AIR:
            budget = sum(np.count_nonzero(e.payload.values) for e in entries)
            agg = ch.omp_recover(A, y, budget)
    return agg, float(np.linalg.norm(agg - exact))


class TestTransmitRoundMatchesStackedReference:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_bits_as_stacking_the_dense_rows(self, data):
        kind = data.draw(st.sampled_from(ch.SCHEMES))
        K = data.draw(st.integers(1, 8))
        N = data.draw(st.integers(1, 6))  # plans with K <= N and with K > N
        d = data.draw(st.integers(2, 24))
        sigma = data.draw(st.sampled_from([0.0, 0.3]))
        spec = data.draw(
            st.builds(
                C.CodecSpec,
                sparsifier=st.sampled_from(C.SPARSIFIERS),
                threshold=st.sampled_from([0.0, 0.5]),
                keep_fraction=st.floats(0.05, 1.0),
                quantizer=st.sampled_from(C.QUANTIZERS),
            )
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 50, size=K).tolist()
        r = ch.ChannelRealization(rng.standard_normal((K, N)), sigma, seed)
        scheme = ch.TransportScheme(ch.IDEAL_DIGITAL)
        plan, senders = None, range(K)
        if kind != ch.IDEAL_DIGITAL:
            m = data.draw(st.integers(1, d - 1)) if kind == ch.CS_OVER_THE_AIR else None
            scheme = ch.TransportScheme(kind, m)
            try:
                plan = ch.solve_aggregation_weights(r, dict(enumerate(sizes)), 1e6)
            except SchemeError:
                assume(False)
            senders = plan.transmitters
        raws = rng.standard_normal((K, d))
        entries = [ch.TransmitEntry(k, C.encode(raws[k], spec), raws[k], sizes[k])
                   for k in senders]

        got = ch.transmit_round(entries, scheme, r, plan, np.random.default_rng(seed))
        want, error = transmit_reference(entries, scheme, r, plan, np.random.default_rng(seed))
        assert_same_bits(got.aggregated, want)
        assert got.aggregation_error.hex() == error.hex()

        # a row of a filled matrix: decode writes that row, and only that row
        block = rng.standard_normal((len(entries), d))
        before = block.copy()
        i = data.draw(st.integers(0, len(entries) - 1))
        row = block[i]
        assert entries[i].payload.decode(out=row) is row
        assert_same_bits(block[i], entries[i].dense)
        assert_same_bits(block[i], scattered(entries[i].payload))
        others = np.arange(len(entries)) != i
        assert_same_bits(block[others], before[others])


ONE_CLIENT = ch.ChannelRealization(np.ones((1, 1)), 0.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: ch.ChannelRealization(np.ones(3), 0.0),
            ConfigurationError,
            "(K, N) matrix",
            id="gains-1d",
        ),
        pytest.param(
            lambda: ch.ChannelRealization(np.full((2, 1), np.nan), 0.0),
            ConfigurationError,
            "channel gains must be finite",
            id="gains-nan",
        ),
        pytest.param(
            lambda: ch.TransportScheme("carrier-pigeon"),
            ConfigurationError,
            "unknown transport",
            id="scheme",
        ),
        pytest.param(
            lambda: ch.TransportScheme(ch.CS_OVER_THE_AIR),
            ConfigurationError,
            "cs-over-the-air requires measurements >= 1",
            id="cs-no-measurements",
        ),
        pytest.param(
            lambda: ch.solve_aggregation_weights(ONE_CLIENT, {0: 0.0}, 1.0),
            ConfigurationError,
            "targets must have a positive sum",
            id="targets-sum",
        ),
        pytest.param(
            lambda: ch.transmit_round([], DIGITAL),
            SchemeError,
            "no payloads to transmit",
            id="no-entries",
        ),
        pytest.param(
            lambda: ch.transmit_round(make_entries([np.ones(2)], [1]), OTA, ONE_CLIENT),
            ConfigurationError,
            "analog schemes require a channel and a plan",
            id="analog-no-plan",
        ),
        pytest.param(
            lambda: C.encode(np.ones(3), C.CodecSpec()).decode(out=np.zeros(4)),
            ConfigurationError,
            "decode target has shape (4,), expected (3,)",
            id="decode-target",
        ),
        pytest.param(
            lambda: ch.transmit_round(
                [make_entries([np.ones(2)], [1])[0],
                 ch.TransmitEntry(1, C.encode(np.ones(3), C.CodecSpec()), np.ones(2), 1)],
                DIGITAL,
            ),
            ConfigurationError,
            "decode target has shape (2,), expected (3,)",
            id="payload-lengths-differ",
        ),
        pytest.param(
            lambda: ch.weighted_mean([np.ones(2), np.ones(3)], [1, 1]),
            ConfigurationError,
            "vector lengths differ",
            id="vector-lengths-differ",
        ),
    ],
)
def test_invalid_input_raises_its_message(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
