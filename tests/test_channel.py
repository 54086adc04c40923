import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airfed import channel as ch
from airfed.errors import ConfigurationError, SchemeError

DIGITAL = ch.TransportScheme(ch.IDEAL_DIGITAL)
OTA = ch.TransportScheme(ch.OVER_THE_AIR)


def make_entries(vectors, sizes, sparsity=None):
    return [
        ch.TransmitEntry(
            client_id=k,
            dense=v,
            raw=v,
            size=s,
            n_symbols=v.size,
            payload_bits=v.size * 64 + 64,
            sparsity=sparsity if sparsity is not None else int(np.count_nonzero(v)),
        )
        for k, (v, s) in enumerate(zip(vectors, sizes))
    ]


def superpose(values, gains, weights, sigma=0.0, rng=None):
    """Over-the-air output for client k sending values[k] at unit power."""
    r = ch.ChannelRealization(np.array(gains, dtype=float), sigma)
    p = ch.PowerAllocation({k: 1.0 for k in range(len(values))}, cap=1.0)
    m = ch.Beamformer(np.array(weights, dtype=float))
    vectors = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
    res = ch.transmit_round(
        make_entries(vectors, [1] * len(vectors)), OTA, r, p, m,
        rng or np.random.default_rng(0),
    )
    return res.aggregated


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
        m, p, selected, residuals = ch.solve_aggregation_weights(
            r, {0: 0.5, 1: 0.5}, power_cap=1.0
        )
        assert selected == [0, 1]
        assert all(v < 1e-10 for v in residuals.values())

    def test_single_client(self):
        g = 2.0
        r = ch.ChannelRealization(np.array([[g]]), 0.0)
        m, p, selected, residuals = ch.solve_aggregation_weights(r, {0: 1.0}, 1.0)
        mg = float(m.weights @ r.gains[0])
        assert p.powers[0] == pytest.approx(1.0 / (mg * mg))
        assert residuals[0] < 1e-12

    def test_weak_client_excluded(self):
        gains = np.array([[1e-6, 0.0], [0.0, 1.0], [1.0, 1.0]])
        r = ch.ChannelRealization(gains, 0.0)
        m, p, selected, residuals = ch.solve_aggregation_weights(
            r, {0: 1 / 3, 1: 1 / 3, 2: 1 / 3}, power_cap=1.0
        )
        assert 0 not in selected
        # surviving targets renormalize to 1: constraints hold for survivors
        total = sum(
            float(m.weights @ gains[cid]) * np.sqrt(p.powers[cid]) for cid in selected
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_random_channels_satisfy_constraints(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            K, N = 3, 5
            r = ch.ChannelRealization(rng.standard_normal((K, N)), 0.0)
            targets = {k: 1.0 / K for k in range(K)}
            m, p, selected, residuals = ch.solve_aggregation_weights(r, targets, 100.0)
            for cid in selected:
                assert residuals[cid] < 1e-9

    def test_all_excluded_raises(self):
        r = ch.ChannelRealization(np.array([[1e-12]]), 0.0)
        with pytest.raises(SchemeError):
            ch.solve_aggregation_weights(r, {0: 1.0}, power_cap=1.0)

    def test_channel_scaling_inverse_power(self):
        rng = np.random.default_rng(5)
        gains = rng.standard_normal((3, 4))
        targets = {k: 1 / 3 for k in range(3)}
        lam = 2.5
        _, p1, _, _ = ch.solve_aggregation_weights(
            ch.ChannelRealization(gains, 0.0), targets, 1e6
        )
        _, p2, _, _ = ch.solve_aggregation_weights(
            ch.ChannelRealization(lam * gains, 0.0), targets, 1e6
        )
        for k in range(3):
            assert p2.powers[k] == pytest.approx(p1.powers[k] / lam**2, rel=1e-9)


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
        m, p, selected, _ = ch.solve_aggregation_weights(r, targets, 1e6)
        vectors = [rng.standard_normal(d) for _ in range(K)]
        entries = make_entries(vectors, sizes)
        return r, m, p, entries

    def test_noiseless_matches_weighted_mean(self):
        r, m, p, entries = self._solved_setup(d=64, sigma=0.0)
        res = ch.transmit_round(
            entries, ch.TransportScheme(ch.OVER_THE_AIR), r, p, m,
            np.random.default_rng(0),
        )
        assert res.aggregation_error < 1e-8
        assert res.channel_uses == 64

    def test_mse_linear_in_noise_power(self):
        d = 32
        sigmas = [0.01, 0.02, 0.04, 0.08]
        mses = []
        for sigma in sigmas:
            r, m, p, entries = self._solved_setup(d=d, sigma=sigma)
            exact = sum(e.size * e.raw for e in entries) / sum(e.size for e in entries)
            rng = np.random.default_rng(1)
            errs = []
            for _ in range(1000):
                res = ch.transmit_round(
                    entries, ch.TransportScheme(ch.OVER_THE_AIR), r, p, m, rng
                )
                errs.append(np.mean((res.aggregated - exact) ** 2))
            mses.append(np.mean(errs))
        x = np.array(sigmas) ** 2
        y = np.array(mses)
        slope, intercept = np.polyfit(x, y, 1)
        fitted = slope * x + intercept
        r2 = 1 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)
        assert r2 > 0.99


class TestTransmitRoundCsOverTheAir:
    def test_single_client_exact_recovery_vs_exhaustive_oracle(self):
        d, m_cs = 8, 4
        dense = np.zeros(d)
        dense[3] = 1.5
        r = ch.ChannelRealization(np.array([[1.0]]), 0.0, seed=11)
        m = ch.Beamformer(np.array([1.0]))
        p = ch.PowerAllocation({0: 1.0}, cap=1.0)
        entries = make_entries([dense], [1])
        res = ch.transmit_round(
            entries, ch.TransportScheme(ch.CS_OVER_THE_AIR, m_cs), r, p, m,
            np.random.default_rng(0),
        )
        np.testing.assert_allclose(res.aggregated, dense, atol=1e-10)
        assert res.channel_uses == m_cs
        # oracle: exhaustive search over all 8 one-sparse supports
        A = ch.measurement_matrix(d, m_cs, 11)
        y = A @ dense
        best = None
        for support in range(d):
            coef = float(A[:, support] @ y / (A[:, support] @ A[:, support]))
            resid = float(np.linalg.norm(y - coef * A[:, support]))
            if best is None or resid < best[0]:
                best = (resid, support, coef)
        assert best[1] == 3
        assert best[2] == pytest.approx(1.5)

    def test_measurements_must_compress(self):
        dense = np.zeros(4)
        r = ch.ChannelRealization(np.array([[1.0]]), 0.0)
        m = ch.Beamformer(np.array([1.0]))
        p = ch.PowerAllocation({0: 1.0}, cap=1.0)
        with pytest.raises(ConfigurationError):
            ch.transmit_round(
                make_entries([dense], [1]),
                ch.TransportScheme(ch.CS_OVER_THE_AIR, 4),
                r, p, m, np.random.default_rng(0),
            )


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
        sizes = data.draw(st.lists(st.integers(1, 50), min_size=1, max_size=5))
        K = len(sizes)
        N = data.draw(st.integers(K, K + 4))
        d = data.draw(st.integers(1, 16))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        r = ch.ChannelRealization(rng.standard_normal((K, N)), 0.0)
        targets = {k: sizes[k] / sum(sizes) for k in range(K)}
        m, p, selected, _ = ch.solve_aggregation_weights(r, targets, 1e6)
        vectors = [rng.standard_normal(d) for _ in range(K)]
        entries = [e for e in make_entries(vectors, sizes) if e.client_id in selected]
        ota = ch.transmit_round(entries, OTA, r, p, m, np.random.default_rng(0))
        digital = ch.transmit_round(entries, DIGITAL)
        np.testing.assert_allclose(ota.aggregated, digital.aggregated, rtol=0, atol=1e-8)
