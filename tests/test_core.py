import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def one_round(spec, datasets, w, mu):
    """Server parameters after one full-participation round of run_round from w."""
    streams = core.RngStreams(0)
    clients = [
        core.ClientState(d, w.copy(), C.EncoderState.zeros(spec.dim), streams.client(k))
        for k, d in enumerate(datasets)
    ]
    server = core.ServerState(w.copy())
    core.run_round(
        server,
        clients,
        spec,
        models.TrainConfig(step_size=mu, local_steps=1),
        core.RoundConfig(),
        streams,
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

    @pytest.mark.parametrize(
        "vectors, sizes",
        [
            ([np.ones(2)], [0]),
            ([np.ones(2), np.zeros(2)], [0, 0]),
            ([np.ones(2), np.zeros(2)], [2, -1]),
            ([np.ones(2), np.zeros(2)], [1]),
            ([np.ones(2)], [1, 1]),
            ([np.ones(2), np.ones(3)], [1, 1]),
        ],
        ids=["zero-total", "all-zero", "negative", "fewer-sizes", "more-sizes", "ragged"],
    )
    def test_invalid_sizes_or_lengths_rejected(self, vectors, sizes):
        with pytest.raises(ConfigurationError):
            ch.weighted_mean(vectors, sizes)

    def test_rows_of_a_matrix_equal_the_list(self):
        rows = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(
            ch.weighted_mean(rows, [1, 2, 3]), ch.weighted_mean(list(rows), [1, 2, 3])
        )

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
        out = one_round(spec, [data], w, 0.1)
        np.testing.assert_array_equal(out, w)

    def test_zero_step_size_uploads_zeros(self):
        # at mu = 0 the pseudo-gradient is not defined: each client uploads
        # zeros and the server stays where it was
        rng = np.random.default_rng(3)
        spec = models.ModelSpec(models.LINEAR, 3)
        datasets = [models.Dataset(rng.standard_normal((4, 3)), rng.standard_normal(4))]
        w = rng.standard_normal(3)
        np.testing.assert_array_equal(one_round(spec, datasets * 2, w, 0.0), w)

    def test_single_client_is_local_update(self):
        rng = np.random.default_rng(1)
        spec = models.ModelSpec(models.LOGISTIC, 4)
        data = models.Dataset(rng.standard_normal((8, 4)), (rng.random(8) < 0.5).astype(float))
        w = rng.standard_normal(4)
        mu = 0.2
        out = one_round(spec, [data], w, mu)
        cfg = models.TrainConfig(step_size=mu, local_steps=1)
        expected = models.sgd_local_update(spec, w, data, cfg, rng)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_matches_weight_aggregation_cross_op(self):
        # FedAvg oracle: the server's step on the clients' mean pseudo-gradient
        # is the size-weighted mean of their locally updated models
        rng = np.random.default_rng(2)
        spec = models.ModelSpec(models.LINEAR, 3)
        datasets = [
            models.Dataset(rng.standard_normal((n, 3)), rng.standard_normal(n))
            for n in (6, 9)
        ]
        w = rng.standard_normal(3)
        cfg = models.TrainConfig(step_size=0.1, local_steps=1)
        local = [models.sgd_local_update(spec, w, d, cfg, rng) for d in datasets]
        np.testing.assert_allclose(
            one_round(spec, datasets, w, 0.1),
            ch.weighted_mean(local, [d.size for d in datasets]),
            rtol=0,
            atol=1e-12,
        )


class TestSelectParticipants:
    def test_fraction_one_selects_all(self):
        out = core.select_participants(7, 1.0, lambda: np.random.default_rng(0))
        assert out == list(range(7))

    def test_channel_aware_ranking(self):
        gains = np.array([[0.1], [5.0], [2.0]])
        realization = ch.ChannelRealization(gains, 0.0)
        out = core.select_participants(
            3, 2 / 3, None, channel=realization, mode=core.SELECT_CHANNEL
        )
        assert out == [1, 2]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 10),
        copies=st.integers(0, 6),
        antennas=st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_channel_aware_equals_sorted_ranking(self, seed, n, copies, antennas):
        rng = np.random.default_rng(seed)
        gains = rng.standard_normal((n, antennas))
        # repeated rows, shuffled among the others, tie on the exact norm
        gains = np.vstack([gains, gains[rng.integers(0, n, size=copies)]])
        realization = ch.ChannelRealization(gains[rng.permutation(len(gains))], 0.0)
        ids = list(range(len(gains)))
        for k in range(1, len(ids) + 1):
            fraction = k / len(ids)
            # oracle: rank every id by descending norm, ties to the lower id
            count = C.kept_count(fraction, len(ids))
            ranked = sorted(
                ids,
                key=lambda cid: (-float(np.linalg.norm(realization.gains[cid])), cid),
            )
            got = core.select_participants(
                len(ids), fraction, None, channel=realization, mode=core.SELECT_CHANNEL
            )
            assert got == sorted(ranked[:count])

    def test_product_an_ulp_above_an_integer_selects_that_many(self):
        assert 0.07 * 100 > 7  # 7.000000000000001
        out = core.select_participants(100, 0.07, lambda: np.random.default_rng(0))
        assert len(out) == 7
        gains = np.arange(1.0, 101.0)[:, None]
        ranked = core.select_participants(
            100, 0.07, None, channel=ch.ChannelRealization(gains, 0.0),
            mode=core.SELECT_CHANNEL,
        )
        assert ranked == list(range(93, 100))

    def test_same_seed_same_subset(self):
        a = core.select_participants(10, 0.3, lambda: np.random.default_rng(5))
        b = core.select_participants(10, 0.3, lambda: np.random.default_rng(5))
        assert a == b


class FixedDraws:
    """A generator stand-in whose uniform draws are the given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def uniform(self, low, high, size):
        assert size == self.u.size
        return self.u


def delays_cfg(deadline, mean=2.0, jitter=1.0):
    return core.RoundConfig(deadline=deadline, delay_mean=mean, delay_jitter=jitter)


class TestApplyDeadline:
    def test_no_deadline_all_survive(self):
        # a deadline at mean + jitter is no deadline: no delay can miss it
        survivors = core.deadline_survivors([0, 1], delays_cfg(3.0), FixedDraws([-1, 1]))
        assert survivors == [0, 1]

    def test_deadline_filters(self):
        # delays 1, 2 and 3: the one above the deadline misses it
        u = FixedDraws([-1.0, 0.0, 1.0])
        assert core.deadline_survivors([3, 5, 8], delays_cfg(2.0), u) == [3, 5]

    def test_survivor_weights_renormalize(self):
        sizes = {0: 3, 1: 5, 2: 2}
        u = FixedDraws([-1.0, 1.0, -0.5])  # delays 1, 3 and 1.5
        survivors = core.deadline_survivors([0, 1, 2], delays_cfg(2.0), u)
        total = sum(sizes[c] for c in survivors)
        weights = [sizes[c] / total for c in survivors]
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_delay_model_range(self):
        # every delay lies in [mean - jitter, mean + jitter] = [1.5, 2.5]
        ids = list(range(10))
        for seed in range(20):
            for deadline, want in ((2.5, ids), (math.nextafter(1.5, 0), [])):
                cfg = delays_cfg(deadline, jitter=0.5)
                rng = np.random.default_rng(seed)
                assert core.deadline_survivors(ids, cfg, rng) == want

    @given(n=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_delays_equal_sequential_scalar_draws(self, n, seed):
        rng = np.random.default_rng(seed)
        mean, jitter = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
        cfg = delays_cfg(float(rng.uniform(0, 4)), mean, jitter)
        client_ids = list(range(n))
        # oracle: one scalar draw per client, in list order, floored at 0
        scalar = np.random.default_rng(seed + 1)
        delays = {
            cid: max(0.0, mean + jitter * float(scalar.uniform(-1.0, 1.0)))
            for cid in client_ids
        }
        expected = [cid for cid in client_ids if delays[cid] <= cfg.deadline]
        rng = np.random.default_rng(seed + 1)
        assert core.deadline_survivors(client_ids, cfg, rng) == expected


def run_scenario(text):
    return core.run_training(parse_scenario(text))


def traced_rounds(text):
    """Run a scenario and return it with one dict per round: the record, the
    ids that trained, that encoded and that committed in it, and per-client
    snapshots of the encoder accumulators, generator state (None for a client
    without a stream: a full batch draws none) and local parameters before
    and after it."""
    train, encode, commit = models.local_updates, C.encode, C.commit
    run_round = core.run_round
    rounds = []
    current = {}  # client id per dataset and per encoder, and the round's calls

    def snapshot(clients):
        return {
            k: (
                c.encoder.momentum.tobytes(),
                c.encoder.residual.tobytes(),
                None if c.rng is None else c.rng.bit_generator.state,
                c.local_params.copy(),
            )
            for k, c in enumerate(clients)
        }

    def spy_train(spec, starts, datasets, *args):
        current["trained"] += [current["by_data"][id(data)] for data in datasets]
        return train(spec, starts, datasets, *args)

    def spy_encode(raw, codec, state=None, **kwargs):
        current["encoded"].append(current["by_encoder"][id(state)])
        return encode(raw, codec, state, **kwargs)

    def spy_commit(state, payload):
        current["committed"].append(current["by_encoder"][id(state)])
        return commit(state, payload)

    def spy_round(server, clients, spec, train_cfg, cfg, streams):
        current.update(
            by_data={id(c.dataset): k for k, c in enumerate(clients)},
            by_encoder={id(c.encoder): k for k, c in enumerate(clients)},
            trained=[],
            encoded=[],
            committed=[],
        )
        before = snapshot(clients)
        rec = run_round(server, clients, spec, train_cfg, cfg, streams)
        rounds.append(
            dict(
                rec=rec,
                trained=current["trained"],
                encoded=current["encoded"],
                committed=current["committed"],
                before=before,
                after=snapshot(clients),
            )
        )
        return rec

    sc = parse_scenario(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "local_updates", spy_train)
        mp.setattr(C, "encode", spy_encode)
        mp.setattr(C, "commit", spy_commit)
        mp.setattr(core, "run_round", spy_round)
        core.run_training(sc)
    return sc, rounds


def named(rec, kind):
    """Client ids the round's events of `kind` list, as ints."""
    ids = [detail for k, detail in rec.events if k == kind]
    return {int(cid) for detail in ids for cid in detail.split(";")}


class TestRunTraining:
    def test_zero_rounds(self):
        # the parser rejects rounds = 0; the library still runs zero rounds
        sc = dataclasses.replace(parse_scenario("seed = 1"), rounds=0)
        records, ledger = core.run_training(sc)
        assert records == [] and ledger.entries == []

    @pytest.mark.parametrize(
        "owner, name, clients, extra",
        [
            # no deadline
            pytest.param(
                core, "deadline_survivors", 3, "", id="airfed.core-deadline_survivors"
            ),
            # ideal-digital links
            pytest.param(core.RngStreams, "noise", 3, "", id="RngStreams-noise"),
            # every client takes part
            pytest.param(
                core.RngStreams, "participation", 3, "", id="RngStreams-participation"
            ),
            # ceil(0.5 * 1) keeps the one client
            pytest.param(
                core.RngStreams, "participation", 1, "\nparticipation = 0.5",
                id="RngStreams-participation-one-client",
            ),
            # noiseless over-the-air links
            pytest.param(
                core.RngStreams, "noise", 3,
                "\nscheme = over-the-air\nantennas = 4\npower_cap = 1e6\nsigma = 0",
                id="RngStreams-noise-sigma-0",
            ),
            # a full batch draws no batch order
            pytest.param(core.RngStreams, "client", 3, "", id="RngStreams-client"),
        ],
    )
    def test_a_round_builds_no_stream_it_never_draws_from(
        self, monkeypatch, owner, name, clients, extra
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{name} reached")

        monkeypatch.setattr(owner, name, unreachable)
        records, _ = run_scenario(
            f"seed = 1\nrounds = 3\nclients = {clients}\nfeatures = 3{extra}"
        )
        assert [r.participants for r in records] == [list(range(clients))] * 3

    # a mini-batch run builds one stream per client, in either form of local
    # SGD; a full batch draws no order in the sample domain either (n <= p,
    # steps touch every row), as in the loop (the test above)
    @pytest.mark.parametrize(
        "batch, shape",
        [
            ("full", "features = 12\nclient_size = 8\nlocal_steps = 3"),
            ("4", "features = 3"),
            ("4", "features = 12\nclient_size = 8\nlocal_steps = 3"),
        ],
        ids=["full-sample-domain", "mini-batch-loop", "mini-batch-sample-domain"],
    )
    def test_a_run_builds_client_streams_only_for_mini_batches(
        self, monkeypatch, batch, shape
    ):
        client, built = core.RngStreams.client, []

        def spy(streams, cid):
            built.append(cid)
            return client(streams, cid)

        monkeypatch.setattr(core.RngStreams, "client", spy)
        run_scenario(f"seed = 1\nrounds = 3\nclients = 5\nbatch = {batch}\n{shape}")
        assert built == ([] if batch == "full" else [0, 1, 2, 3, 4])

    def test_channel_selection_builds_no_participation_stream(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("participation reached")

        monkeypatch.setattr(core.RngStreams, "participation", unreachable)
        records, _ = run_scenario(
            "seed = 1\nrounds = 3\nclients = 4\nfeatures = 3\n"
            "participation = 0.5\nselection = channel\nantennas = 2"
        )
        assert [len(r.participants) for r in records] == [2] * 3

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
        population = models.make_synthetic(sc.partition, sc.seed)
        datasets = population.split(sc.partition.sizes)
        # equal client sizes: centralized GD on the union is the oracle
        trajectory = centralized_gd(sc.model_spec, datasets, 0.2, 30)
        losses = [models.global_loss(sc.model_spec, w, population) for w in trajectory]
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
        population = models.make_synthetic(sc.partition, sc.seed)
        datasets = population.split(sc.partition.sizes)
        streams = core.RngStreams(sc.seed)
        w = models.sgd_local_update(
            sc.model_spec, np.zeros(3), datasets[cid], sc.train_cfg, streams.client(cid)
        )
        expected = models.global_loss(sc.model_spec, w, population)
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
        assert records[2].global_loss == records[1].global_loss

    @pytest.mark.parametrize("block_bytes", [1, 3 * 8 * 40, 10**6], ids=["1", "3", "all"])
    def test_block_losses_equal_per_round_losses(self, monkeypatch, block_bytes):
        # 40 rows, so blocks of 1, 3 and every round; period 3 and deadline
        # misses make rounds that share the server's array, across blocks too
        monkeypatch.setattr(core, "LOSS_BLOCK_BYTES", block_bytes)
        run_round = core.run_round
        held = []

        def spy(server, *args):
            rec = run_round(server, *args)
            held.append(server.params)
            return rec

        monkeypatch.setattr(core, "run_round", spy)
        sc = parse_scenario(
            "seed = 4\nrounds = 14\nperiod = 3\nclients = 4\nclient_size = 10\n"
            "features = 3\ndelay_mean = 1\ndelay_jitter = 1\ndeadline = 1"
        )
        records, _ = core.run_training(sc)
        population = models.make_synthetic(sc.partition, sc.seed)
        for rec, w in zip(records, held):
            want = models.global_loss(sc.model_spec, w, population)
            assert rec.global_loss == pytest.approx(want, rel=1e-12)
        shared = [i for i in range(1, len(held)) if held[i] is held[i - 1]]
        assert len(shared) > 4
        for i in shared:
            assert records[i].global_loss == records[i - 1].global_loss

    @staticmethod
    def nan_after_round(t, monkeypatch):
        """Make round `t` leave NaN server parameters."""
        run_round = core.run_round

        def spy(server, *args):
            rec = run_round(server, *args)
            if rec.round_index == t:
                server.params = np.full_like(server.params, math.nan)
            return rec

        monkeypatch.setattr(core, "run_round", spy)

    def test_failed_run_leaves_its_rounds_with_losses(self, monkeypatch):
        self.nan_after_round(6, monkeypatch)
        with pytest.raises(ProtocolError, match="round 6: non-finite") as info:
            run_scenario("seed = 2\nrounds = 9\nfeatures = 3\nclients = 2")
        records = info.value.records
        assert [r.round_index for r in records] == [1, 2, 3, 4, 5]
        assert all(math.isfinite(r.global_loss) for r in records)

    def test_a_pending_round_that_diverged_first_stops_the_run(self, monkeypatch):
        # every loss exceeds 0 times the start, so round 1 diverged; it waits
        # in the same loss block as round 4, whose parameters are NaN
        monkeypatch.setattr(core, "DIVERGENCE_FACTOR", 0.0)
        self.nan_after_round(4, monkeypatch)
        with pytest.raises(ProtocolError, match="round 1: global loss") as info:
            run_scenario("seed = 2\nrounds = 9\nfeatures = 3\nclients = 2")
        assert info.value.records == []

    def test_a_direct_round_leaves_the_loss_unset(self):
        spec = models.ModelSpec(models.LINEAR, 2)
        data = models.Dataset(np.ones((3, 2)), np.zeros(3))
        streams = core.RngStreams(0)
        client = core.ClientState(data, np.zeros(2), C.EncoderState.zeros(2), streams.client(0))
        rec = core.run_round(
            core.ServerState(np.zeros(2)),
            [client],
            spec,
            models.TrainConfig(step_size=0.1),
            core.RoundConfig(),
            streams,
        )
        assert math.isnan(rec.global_loss)

    @pytest.mark.parametrize(
        "text",
        [
            "seed = 5\nrounds = 6\nperiod = 2\nfeatures = 3\nclients = 3\n"
            "batch = 4\npayload = gradients",
            "seed = 5\nrounds = 3\nfeatures = 3\nclients = 3",
        ],
        ids=["gradients-period-2", "gradients-period-1"],
    )
    def test_broadcast_shares_one_read_only_array(self, monkeypatch, text):
        # off-schedule rounds train from the shared array: a write into it
        # would raise, and every later round would start from a changed model
        run_round = core.run_round
        seen = []

        def spy(server, clients, *args):
            rec = run_round(server, clients, *args)
            held = [c.local_params is server.params for c in clients]
            seen.append((rec, held, server.params.flags.writeable))
            return rec

        monkeypatch.setattr(core, "run_round", spy)
        sc = parse_scenario(text)
        core.run_training(sc)
        assert len(seen) == sc.rounds
        for rec, held, writeable in seen:
            if rec.round_index % sc.round_cfg.period == 0:
                assert rec.participants == [0, 1, 2]
                assert all(held) and not writeable
            else:
                assert not any(held)

    def test_deadline_miss_holds_server_params(self):
        text = (
            "seed = 6\nrounds = 3\nclients = 2\nfeatures = 3\nbatch = 4\n"
            "delay_mean = 10\ndelay_jitter = 1\ndeadline = 0.5"
        )
        sc, rounds = traced_rounds(text)
        records = [r["rec"] for r in rounds]
        datasets = models.make_synthetic(sc.partition, sc.seed).split(sc.partition.sizes)
        for r in rounds:
            rec = r["rec"]
            assert rec.events == [("protocol-error", "all clients missed the deadline")]
            assert rec.participants == []
            # every participant trained and encoded, and no broadcast
            # overwrote what it trained
            assert r["trained"] == r["encoded"] == [0, 1]
            for cid, ds in enumerate(datasets):
                *_, rng_state, w_start = r["before"][cid]
                rng = np.random.default_rng()
                rng.bit_generator.state = rng_state
                w = models.sgd_local_update(sc.model_spec, w_start, ds, sc.train_cfg, rng)
                np.testing.assert_array_equal(r["after"][cid][3], w)
        # server never moved: loss stays at the w = 0 value
        assert records[0].global_loss == records[-1].global_loss

    def test_mlp_beats_the_constant_predictor(self):
        # from W1 = w2 = 0 the hidden-layer gradients are 0 and the MLP stays a
        # constant predictor, whose loss is half the label variance
        sc = parse_scenario(
            "seed = 3\nrounds = 30\nmodel = mlp\nhidden = 8\nfeatures = 20\n"
            "clients = 4\nclient_size = 30\nmu = 0.1"
        )
        records, _ = core.run_training(sc)
        labels = models.make_synthetic(sc.partition, sc.seed).labels
        assert records[-1].global_loss < 0.5 * np.var(labels)

    def test_monotone_loss_convex_small_mu(self):
        text = (
            "seed = 7\nrounds = 40\nmodel = logistic\nfeatures = 5\nclients = 4\n"
            "client_size = 30\nmu = 0.05\nl2 = 0.01"
        )
        records, _ = run_scenario(text)
        losses = [r.global_loss for r in records]
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestSchedulingBeforeCompute:
    """The deadline and the over-the-air plan are settled before local
    training: a client the plan excludes does no local work."""

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 4),
        extra=st.integers(1, 8),
        batch=st.sampled_from(["full", "4"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_excluded_clients_neither_train_nor_encode(self, seed, n, extra, batch):
        # more clients than antennas: the principal-direction beamformer
        # leaves out every client it cannot reach
        text = (
            f"seed = {seed}\nrounds = 2\nfeatures = 10\nclients = {n + extra}\n"
            f"client_size = 10\nbatch = {batch}\npayload = gradients\nsparsifier = topk\n"
            "rho = 0.2\nerror_feedback = true\nscheme = cs-over-the-air\n"
            f"measurements = 5\nantennas = {n}\npower_cap = 1e6\n"
        )
        _, rounds = traced_rounds(text)
        for r in rounds:
            excluded = named(r["rec"], "excluded")
            kept = sorted(set(range(n + extra)) - excluded)
            assert r["trained"] == r["encoded"] == kept
            for cid in excluded:
                # momentum, residual and generator state are bit-equal; only
                # a mini-batch client has a stream
                assert r["after"][cid][:3] == r["before"][cid][:3]
                assert (r["before"][cid][2] is None) == (batch == "full")

    def test_fallback_round_trains_every_survivor(self):
        # the cap is too tight for any client: the plan fails, nobody is left out
        _, rounds = traced_rounds(
            "seed = 9\nrounds = 3\nclients = 5\nfeatures = 4\npayload = gradients\n"
            "scheme = over-the-air\nantennas = 4\npower_cap = 1e-6\n",
        )
        for r in rounds:
            assert [kind for kind, _ in r["rec"].events] == ["scheme-error"]
            assert r["trained"] == r["encoded"] == r["rec"].participants == [0, 1, 2, 3, 4]

    def test_stragglers_still_train_and_encode(self):
        # each client misses the deadline with probability 1/2; the clients
        # take the per-step loop, then the sample domain: 8 rows of 12
        # features, whose three steps of 4 touch every row
        sample_domain = "features = 12\nclient_size = 8\nbatch = 4\nlocal_steps = 3\n"
        for shape in ("features = 4\n", sample_domain):
            _, rounds = traced_rounds(
                "seed = 9\nrounds = 6\nclients = 5\npayload = gradients\n"
                "scheme = over-the-air\nantennas = 8\npower_cap = 1e6\n"
                "delay_mean = 1\ndelay_jitter = 1\ndeadline = 1\n" + shape,
            )
            missed = [named(r["rec"], "deadline-miss") for r in rounds]
            assert any(missed)
            for r, late in zip(rounds, missed):
                assert r["trained"] == r["encoded"] == [0, 1, 2, 3, 4]
                assert late.isdisjoint(r["rec"].participants)

    def test_every_client_that_encodes_commits_under_error_feedback(self):
        # rounds 2 and 3 each have a deadline miss and an exclusion; a
        # straggler gives up what it encoded although nothing delivers it
        text = (
            "seed = 1\nrounds = 3\nmodel = linear\nfeatures = 3\nclients = 6\n"
            "client_size = 4\ndeadline = 1.0\ndelay_mean = 1.0\ndelay_jitter = 0.5\n"
            "scheme = over-the-air\nantennas = 2\npower_cap = 0.5\n"
            "sparsifier = topk\nrho = 0.5\nerror_feedback = {}\n"
        )
        _, rounds = traced_rounds(text.format("true"))
        late_and_left_out = 0
        for r in rounds:
            assert r["committed"] == r["encoded"]
            late, excluded = named(r["rec"], "deadline-miss"), named(r["rec"], "excluded")
            assert excluded.isdisjoint(r["committed"])
            late_and_left_out += bool(late & set(r["committed"]) and excluded)
        assert late_and_left_out == 2
        _, rounds = traced_rounds(text.format("false"))
        assert all(r["encoded"] and r["committed"] == [] for r in rounds)


class TestOverTheAirTargets:
    def test_solver_gets_the_survivors_sizes(self, monkeypatch):
        # the solver normalises the weights itself: the round hands it the
        # survivors' raw sizes, never shares
        solve, calls = ch.solve_aggregation_weights, []

        def spy(realization, targets, power_cap):
            calls.append(dict(targets))
            return solve(realization, targets, power_cap)

        monkeypatch.setattr(ch, "solve_aggregation_weights", spy)
        sc = parse_scenario(
            "seed = 9\nrounds = 8\nfeatures = 4\nsizes = 3, 8, 5, 12, 7\n"
            "scheme = over-the-air\nantennas = 3\npower_cap = 1e6\n"
            "delay_mean = 1\ndelay_jitter = 1\ndeadline = 1\n"
        )
        records, _ = core.run_training(sc)
        assert any(named(rec, "deadline-miss") for rec in records)
        assert any(named(rec, "excluded") for rec in records)
        assert len(calls) == len(records)
        for targets, rec in zip(calls, records):
            survivors = set(rec.participants) | named(rec, "excluded")
            assert targets == {cid: sc.partition.sizes[cid] for cid in sorted(survivors)}
            assert all(type(size) is int for size in targets.values())


class TestNoiseFloorOracle:
    """Near the optimum of a linear model with noiseless labels, an
    over-the-air run is noisy gradient descent w <- w - mu (grad F(w) + n),
    with n of variance sigma^2 per entry behind the unit-norm beam. Its
    stationary loss is F = 1/2 mu sigma^2 sum_i 1 / (2 - mu lambda_i), with
    lambda_i the eigenvalues of X^T X / n of the population (the
    constant-step SGD stationary law; Mandt, Hoffman & Blei, arXiv
    1704.04289). Every client's gradient vanishes at the same optimum, so
    the law holds with exclusions too (K > N)."""

    MU, SIGMA = 0.1, 0.1
    # Tail mean over rounds 201-600 divided by the prediction, per seed 0-3:
    # 0.922, 1.081, 1.058, 1.009 at (K, N) = (4, 8) and 0.993, 1.056, 1.056,
    # 1.028 at (8, 4). A seed's ratio scatters by up to sd 0.07, so the mean
    # of four by a standard error of 0.035; TOL is about four of those.
    TOL = 0.15

    @pytest.mark.parametrize("clients, antennas", [(4, 8), (8, 4)])
    def test_tail_loss_meets_the_predicted_floor(self, clients, antennas):
        ratios = []
        for seed in range(4):
            sc = parse_scenario(
                f"seed = {seed}\nrounds = 600\nmodel = linear\nfeatures = 20\n"
                f"clients = {clients}\nclient_size = 50\nmu = {self.MU}\n"
                f"scheme = over-the-air\nantennas = {antennas}\n"
                f"sigma = {self.SIGMA}\npower_cap = 1e6\n"
            )
            records, _ = core.run_training(sc)
            X = models.make_synthetic(sc.partition, sc.seed).features
            lam = np.linalg.eigvalsh(X.T @ X / len(X))
            floor = 0.5 * self.MU * self.SIGMA**2 * np.sum(1 / (2 - self.MU * lam))
            ratios.append(np.mean([r.global_loss for r in records[200:]]) / floor)
        assert abs(np.mean(ratios) - 1) < self.TOL, ratios


class TestFig2Properties:
    def setup_method(self):
        self.sc = parse_scenario(
            "seed = 8\nrounds = 50\nmodel = logistic\nfeatures = 20\nclients = 4\n"
            "client_size = 30\nmu = 0.05\nl2 = 0.01"
        )
        self.population = models.make_synthetic(self.sc.partition, self.sc.seed)
        self.datasets = self.population.split(self.sc.partition.sizes)

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
                assert models.global_loss(spec, wk, d) < models.global_loss(spec, w, d)
                locals_.append((wk, d.size))
            w_new = ch.weighted_mean([wk for wk, _ in locals_], [n for _, n in locals_])
            # (a) global loss strictly decreases while the gradient is large
            assert models.global_loss(spec, w_new, self.population) < models.global_loss(
                spec, w, self.population
            )
            # (c) the aggregate is never better than the local optimum step
            for (wk, _), d in zip(locals_, datasets):
                assert models.global_loss(spec, w_new, d) >= models.global_loss(
                    spec, wk, d
                ) - 1e-12
            w = w_new


class TestRoundConfigValidation:
    def test_bad_period(self):
        with pytest.raises(ConfigurationError):
            core.RoundConfig(period=0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_antennas", 0),
            ("power_cap", 0.0),
            ("power_cap", -1.0),
            ("power_cap", math.inf),
            ("noise_std", -0.1),
            ("noise_std", math.nan),
            ("delay_mean", -1.0),
            ("delay_mean", math.inf),
            ("delay_jitter", -1.0),
            ("delay_jitter", math.nan),
            ("deadline", -0.5),
            ("deadline", math.inf),
        ],
    )
    def test_channel_and_delay_fields_checked(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            core.RoundConfig(**{name: value})


FLOATS = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), 5e-324]
    ),
    st.floats(),
)
COUNTS = st.integers(-3, 3)


def in_unit(x):
    return 0 < x <= 1


# each range the round path relies on: its owner, the one place that checks
# it, the values to try and the range itself
OWNED_RANGES = {
    "participation": (lambda x: core.RoundConfig(participation=x), FLOATS, in_unit),
    "power_cap": (lambda x: core.RoundConfig(power_cap=x), FLOATS, lambda x: 0 < x < math.inf),
    "noise_std": (lambda x: core.RoundConfig(noise_std=x), FLOATS, lambda x: 0 <= x < math.inf),
    "n_antennas": (lambda n: core.RoundConfig(n_antennas=n), COUNTS, lambda n: n >= 1),
    "keep_fraction": (
        lambda x: C.CodecSpec(C.SPARSIFIER_TOPK, keep_fraction=x), FLOATS, in_unit
    ),
    "warmup": (lambda x: C.CodecSpec(C.SPARSIFIER_TOPK, warmup=(0.5, x)), FLOATS, in_unit),
    "n_features": (lambda n: models.ModelSpec(models.LINEAR, n), COUNTS, lambda n: n >= 1),
    "l2": (
        lambda x: models.ModelSpec(models.LINEAR, 2, l2=x), FLOATS, lambda x: 0 <= x < math.inf
    ),
    "threshold": (
        lambda x: C.CodecSpec(C.SPARSIFIER_THRESHOLD, threshold=x),
        FLOATS,
        lambda x: 0 <= x < math.inf,
    ),
    "clip_norm": (lambda x: C.CodecSpec(clip_norm=x), FLOATS, lambda x: 0 < x < math.inf),
}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_each_owner_rejects_exactly_the_values_out_of_its_range(data):
    name = data.draw(st.sampled_from(sorted(OWNED_RANGES)), label="setting")
    build, values, in_range = OWNED_RANGES[name]
    value = data.draw(values, label="value")
    if in_range(value):
        build(value)
    else:
        with pytest.raises(ConfigurationError):
            build(value)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: core.RoundConfig(participation=0.0),
            "participation must be in",
            id="participation",
        ),
        pytest.param(
            lambda: core.RoundConfig(selection="oldest"),
            "unknown selection mode",
            id="selection",
        ),
        pytest.param(
            lambda: core.RoundConfig(participation=1.5),
            "participation must be in (0, 1]",
            id="fraction",
        ),
        pytest.param(
            lambda: core.RoundConfig(noise_std=-1.0),
            "noise_std must be finite and >= 0",
            id="noise-std",
        ),
        pytest.param(
            lambda: core.RoundConfig(n_antennas=0),
            "n_antennas must be >= 1",
            id="n-antennas",
        ),
        pytest.param(
            lambda: core.RoundConfig(power_cap=0.0),
            "power_cap must be finite and > 0",
            id="power-cap",
        ),
        pytest.param(
            lambda: core.select_participants(4, 0.5, None, mode=core.SELECT_CHANNEL),
            "channel-aware selection needs a realization",
            id="channel-missing",
        ),
    ],
)
def test_invalid_input_raises_its_message(call, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        call()
