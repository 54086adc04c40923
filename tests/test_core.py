import itertools

import numpy as np
import pytest

from airfed import channel as ch
from airfed import compression as C
from airfed import core, models
from airfed.errors import ConfigurationError, ProtocolError
from airfed.scenario import parse_scenario


def centralized_gd(spec, datasets, mu, rounds, w0=None):
    """Oracle: plain gradient descent on the union dataset."""
    union = models.Dataset(
        np.vstack([d.features for d in datasets]),
        np.concatenate([d.labels for d in datasets]),
    )
    w = np.zeros(spec.dim) if w0 is None else w0.copy()
    trajectory = []
    for _ in range(rounds):
        w = w - mu * models.gradient(spec, w, union)
        trajectory.append(w.copy())
    return trajectory


def one_round(spec, datasets, w, mu, payload_mode):
    """Server parameters after one full-participation round of run_round from w."""
    clients = [
        core.ClientState(k, d, w.copy(), C.EncoderState.zeros(spec.dim))
        for k, d in enumerate(datasets)
    ]
    population = models.Dataset(
        np.vstack([d.features for d in datasets]),
        np.concatenate([d.labels for d in datasets]),
    )
    streams = core.RngStreams(0)
    server = core.ServerState(w.copy())
    core.run_round(
        server,
        clients,
        population,
        spec,
        models.TrainConfig(step_size=mu, local_steps=1),
        core.RoundConfig(payload_mode=payload_mode),
        streams,
        {c.id: streams.client(c.id) for c in clients},
    )
    return server.params


class TestAggregateWeights:
    def test_plain_average(self):
        out = ch.weighted_mean([np.array([1.0, 3.0]), np.array([3.0, 1.0])], [5, 5])
        np.testing.assert_array_equal(out, [2.0, 2.0])

    def test_weighted_average(self):
        out = ch.weighted_mean([np.array([0.0]), np.array([4.0])], [1, 3])
        np.testing.assert_array_equal(out, [3.0])

    def test_single_client_identity(self):
        w = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(ch.weighted_mean([w], [7]), w)

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            ch.weighted_mean([], [])

    def test_drop_equals_zero_size_renormalized(self):
        # dropping a client is the same as |D_k| = 0 plus renormalization
        rng = np.random.default_rng(0)
        ws = [rng.standard_normal(3) for _ in range(4)]
        sizes = [3, 1, 4, 2]
        for drop in range(4):
            kept = [i for i in range(4) if i != drop]
            np.testing.assert_allclose(
                ch.weighted_mean([ws[i] for i in kept], [sizes[i] for i in kept]),
                ch.weighted_mean(ws, [0 if i == drop else s for i, s in enumerate(sizes)]),
                rtol=1e-12,
            )


class TestAggregateGradients:
    def test_zero_gradients_unchanged(self):
        # zero features and labels: every local gradient is zero at any w
        spec = models.ModelSpec(models.LINEAR, 2)
        data = models.Dataset(np.zeros((3, 2)), np.zeros(3))
        w = np.array([1.0, 2.0])
        out = one_round(spec, [data], w, 0.1, core.PAYLOAD_GRADIENTS)
        np.testing.assert_array_equal(out, w)

    def test_single_client_is_local_update(self):
        rng = np.random.default_rng(1)
        spec = models.ModelSpec(models.LOGISTIC, 4)
        data = models.Dataset(rng.standard_normal((8, 4)), (rng.random(8) < 0.5).astype(float))
        w = rng.standard_normal(4)
        mu = 0.2
        out = one_round(spec, [data], w, mu, core.PAYLOAD_GRADIENTS)
        cfg = models.TrainConfig(step_size=mu, local_steps=1)
        expected = models.sgd_local_update(spec, w, data, cfg, rng)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_matches_weight_aggregation_cross_op(self):
        rng = np.random.default_rng(2)
        spec = models.ModelSpec(models.LINEAR, 3)
        datasets = [
            models.Dataset(rng.standard_normal((6, 3)), rng.standard_normal(6))
            for _ in range(2)
        ]
        w = rng.standard_normal(3)
        np.testing.assert_allclose(
            one_round(spec, datasets, w, 0.1, core.PAYLOAD_GRADIENTS),
            one_round(spec, datasets, w, 0.1, core.PAYLOAD_WEIGHTS),
            rtol=0,
            atol=1e-12,
        )


    def test_population_must_hold_every_client_row(self):
        spec = models.ModelSpec(models.LINEAR, 2)
        data = models.Dataset(np.ones((3, 2)), np.zeros(3))
        clients = [core.ClientState(0, data, np.zeros(2), C.EncoderState.zeros(2))]
        streams = core.RngStreams(0)
        with pytest.raises(ConfigurationError, match="population has 2 rows"):
            core.run_round(
                core.ServerState(np.zeros(2)),
                clients,
                models.Dataset(data.features[:2], data.labels[:2]),
                spec,
                models.TrainConfig(step_size=0.1),
                core.RoundConfig(),
                streams,
                {0: streams.client(0)},
            )


class TestSelectParticipants:
    def test_fraction_one_selects_all(self):
        ids = list(range(7))
        out = core.select_participants(ids, 1.0, np.random.default_rng(0))
        assert out == ids

    def test_channel_aware_ranking(self):
        gains = np.array([[0.1], [5.0], [2.0]])
        realization = ch.ChannelRealization(gains, 0.0)
        out = core.select_participants(
            [0, 1, 2], 2 / 3, np.random.default_rng(0),
            channel=realization, mode=core.SELECT_CHANNEL,
        )
        assert out == [1, 2]

    def test_same_seed_same_subset(self):
        ids = list(range(10))
        a = core.select_participants(ids, 0.3, np.random.default_rng(5))
        b = core.select_participants(ids, 0.3, np.random.default_rng(5))
        assert a == b


class TestApplyDeadline:
    def test_no_deadline_all_survive(self):
        assert core.apply_deadline({0: 1.0, 1: 9.0}, None) == [0, 1]

    def test_deadline_filters(self):
        assert core.apply_deadline({0: 1.0, 1: 2.0, 2: 3.0}, 2.0) == [0, 1]

    def test_survivor_weights_renormalize(self):
        sizes = {0: 3, 1: 5, 2: 2}
        survivors = core.apply_deadline({0: 1.0, 1: 5.0, 2: 1.5}, 2.0)
        total = sum(sizes[c] for c in survivors)
        weights = [sizes[c] / total for c in survivors]
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_delay_model_range(self):
        clients = [
            core.ClientState(
                id=0,
                dataset=models.Dataset(np.ones((1, 1)), np.zeros(1)),
                local_params=np.zeros(1),
                encoder=C.EncoderState.zeros(1),
                delay_mean=2.0,
                delay_jitter=0.5,
            )
        ]
        for seed in range(20):
            d = core.sample_delays(clients, np.random.default_rng(seed))[0]
            assert 1.5 <= d <= 2.5


def run_scenario(text):
    return core.run_training(parse_scenario(text))


class TestRunTraining:
    def test_zero_rounds(self):
        records, ledger = run_scenario("seed = 1\nrounds = 0")
        assert records == [] and ledger.entries == []

    def test_same_seed_identical_streams(self):
        base = "seed = 3\nrounds = 8\nclients = 3\nparticipation = 0.5\ndelay_jitter = 0.1\ndeadline = 5"
        a, _ = run_scenario(base)
        b, _ = run_scenario(base)
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_federation_equals_centralized(self):
        text = (
            "seed = 2\nrounds = 30\nmodel = logistic\nfeatures = 6\nclients = 3\n"
            "client_size = 20\nmu = 0.2\nl2 = 0.01"
        )
        sc = parse_scenario(text)
        records, _ = core.run_training(sc)
        datasets = models.make_synthetic(sc.partition, sc.seed).split(sc.partition.sizes)
        # equal client sizes: centralized GD on the union is the oracle
        trajectory = centralized_gd(sc.model_spec, datasets, 0.2, 30)
        losses = [models.global_loss(sc.model_spec, w, datasets) for w in trajectory]
        np.testing.assert_allclose(
            [r.global_loss for r in records], losses, rtol=1e-10
        )

    def test_single_participant_aggregate_is_its_payload(self):
        text = (
            "seed = 4\nrounds = 1\nclients = 4\nclient_size = 10\nfeatures = 3\n"
            "participation = 0.25\nmu = 0.1"
        )
        sc = parse_scenario(text)
        records, _ = core.run_training(sc)
        (rec,) = records
        assert len(rec.participants) == 1
        cid = rec.participants[0]
        datasets = models.make_synthetic(sc.partition, sc.seed).split(sc.partition.sizes)
        streams = core.RngStreams(sc.seed)
        w = models.sgd_local_update(
            sc.model_spec, np.zeros(3), datasets[cid], sc.train_cfg, streams.client(cid)
        )
        expected = models.global_loss(sc.model_spec, w, datasets)
        assert rec.global_loss == pytest.approx(expected, rel=1e-12)

    def test_period_skips_uploads(self):
        text = "seed = 5\nrounds = 4\nperiod = 2\nfeatures = 3\nclients = 2"
        records, ledger = run_scenario(text)
        assert records[0].uplink_uses == 0 and records[0].participants == []
        assert records[2].uplink_uses == 0
        assert records[1].uplink_uses > 0 and records[3].uplink_uses > 0
        # non-aggregation rounds leave the server loss unchanged
        assert records[0].global_loss == pytest.approx(
            np.log(2), rel=1e-6
        )  # server still at w = 0

    def test_deadline_miss_holds_server_params(self):
        text = (
            "seed = 6\nrounds = 3\nclients = 2\nfeatures = 3\n"
            "delay_mean = 10\ndelay_jitter = 1\ndeadline = 0.5"
        )
        records, _ = run_scenario(text)
        for rec in records:
            assert any("deadline" in e for e in rec.events)
            assert rec.participants == []
        # server never moved: loss stays at the w = 0 value
        assert records[0].global_loss == records[-1].global_loss

    def test_monotone_loss_convex_small_mu(self):
        text = (
            "seed = 7\nrounds = 40\nmodel = logistic\nfeatures = 5\nclients = 4\n"
            "client_size = 30\nmu = 0.05\nl2 = 0.01"
        )
        records, _ = run_scenario(text)
        losses = [r.global_loss for r in records]
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestFig2Properties:
    def setup_method(self):
        self.sc = parse_scenario(
            "seed = 8\nrounds = 50\nmodel = logistic\nfeatures = 20\nclients = 4\n"
            "client_size = 30\nmu = 0.05\nl2 = 0.01"
        )
        self.datasets = models.make_synthetic(self.sc.partition, self.sc.seed).split(
            self.sc.partition.sizes
        )

    def test_global_and_local_descent_properties(self):
        spec = self.sc.model_spec
        mu = self.sc.train_cfg.step_size
        datasets = self.datasets
        w = np.zeros(spec.dim)
        for _ in range(50):
            g = sum(
                d.size * models.gradient(spec, w, d) for d in datasets
            ) / sum(d.size for d in datasets)
            if np.linalg.norm(g) < 1e-8:
                break
            locals_ = []
            for d in datasets:
                wk = w - mu * models.gradient(spec, w, d)
                # (b) each local full-batch step improves the local loss
                assert models.local_loss(spec, wk, d) < models.local_loss(spec, w, d)
                locals_.append((wk, d.size))
            w_new = ch.weighted_mean([wk for wk, _ in locals_], [n for _, n in locals_])
            # (a) global loss strictly decreases while the gradient is large
            assert models.global_loss(spec, w_new, datasets) < models.global_loss(
                spec, w, datasets
            )
            # (c) the aggregate is never better than the local optimum step
            for (wk, _), d in zip(locals_, datasets):
                assert models.local_loss(spec, w_new, d) >= models.local_loss(
                    spec, wk, d
                ) - 1e-12
            w = w_new


class TestRoundConfigValidation:
    def test_analog_weights_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            core.RoundConfig(
                payload_mode=core.PAYLOAD_WEIGHTS,
                scheme=ch.TransportScheme(ch.OVER_THE_AIR),
            )

    def test_bad_period(self):
        with pytest.raises(ConfigurationError):
            core.RoundConfig(period=0)
