import dataclasses
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from airfed import cli, core, models
from airfed.errors import ConfigurationError
from airfed.scenario import load_scenario


def finite_difference_gradient(spec, w, batch, h=1e-6):
    """Central-difference oracle for the analytic gradients."""
    g = np.zeros_like(w)
    for i in range(w.size):
        wp = w.copy()
        wm = w.copy()
        wp[i] += h
        wm[i] -= h
        g[i] = (
            models.global_loss(spec, wp, batch) - models.global_loss(spec, wm, batch)
        ) / (2 * h)
    return g


def random_spec_and_data(kind, rng, n=12, p=4, l2=0.0):
    if kind == models.MLP:
        hidden = 3
        spec = models.ModelSpec(kind, p, hidden, l2)
    else:
        spec = models.ModelSpec(kind, p, 0, l2)
    X = rng.standard_normal((n, p))
    if kind == models.LOGISTIC:
        y = (rng.random(n) < 0.5).astype(float)
    else:
        y = rng.standard_normal(n)
    return spec, models.Dataset(X, y)


class TestLocalLoss:
    def test_zero_predictor_zero_targets(self):
        spec = models.ModelSpec(models.LINEAR, 3)
        data = models.Dataset(np.ones((5, 3)), np.zeros(5))
        assert models.global_loss(spec, np.zeros(3), data) == 0.0

    def test_logistic_zero_weights_is_ln2(self):
        spec = models.ModelSpec(models.LOGISTIC, 4)
        rng = np.random.default_rng(0)
        data = models.Dataset(rng.standard_normal((7, 4)), (rng.random(7) < 0.5).astype(float))
        assert models.global_loss(spec, np.zeros(4), data) == pytest.approx(math.log(2))

    def test_logistic_hand_computed(self):
        # w = [1, -1], x = [2, 1], y = 1: z = 1, loss = ln(1 + e^-1)
        spec = models.ModelSpec(models.LOGISTIC, 2)
        data = models.Dataset(np.array([[2.0, 1.0]]), np.array([1.0]))
        expected = math.log(1 + math.exp(-1))
        assert models.global_loss(spec, np.array([1.0, -1.0]), data) == pytest.approx(
            expected, rel=1e-14
        )

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_no_features_rejected_at_construction(self, kind):
        with pytest.raises(ConfigurationError, match="n_features"):
            models.ModelSpec(kind, 0, 3)

    def test_dimension_mismatch(self):
        spec = models.ModelSpec(models.LINEAR, 3)
        data = models.Dataset(np.ones((2, 4)), np.zeros(2))
        with pytest.raises(ConfigurationError):
            models.global_loss(spec, np.zeros(3), data)


class TestGlobalLoss:
    def test_single_client_equals_local(self):
        # over one client's rows: half the mean squared residual, F_k(w)
        rng = np.random.default_rng(1)
        spec, data = random_spec_and_data(models.LINEAR, rng)
        w = rng.standard_normal(spec.dim)
        r = data.features @ w - data.labels
        assert models.global_loss(spec, w, data) == pytest.approx(
            0.5 * float(np.mean(r * r)), rel=1e-14
        )

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one sample"):
            models.Dataset(np.zeros((0, 3)), np.zeros(0))

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_pooled_equals_per_client(self, kind):
        # one loss over the union equals the size-weighted per-client mean
        rng = np.random.default_rng(8)
        sizes = [1, 7, 30, 12]
        spec, union = random_spec_and_data(kind, rng, n=sum(sizes), p=5, l2=0.01)
        w = rng.standard_normal(spec.dim)
        pooled = models.global_loss(spec, w, union)
        per_client = sum(
            d.size * models.global_loss(spec, w, d) for d in union.split(sizes)
        ) / sum(sizes)
        assert pooled == pytest.approx(per_client, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    @given(
        n=st.integers(1, 40),
        rows=st.lists(st.integers(0, 3), min_size=1, max_size=9),
        l2=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_rows_equal_one_vector_losses(self, kind, n, rows, l2, seed):
        # the block's rows are drawn from four vectors, so rows may repeat
        rng = np.random.default_rng(seed)
        spec, data = random_spec_and_data(kind, rng, n=n, p=5, l2=l2)
        vectors = rng.standard_normal((4, spec.dim))
        losses = models.global_loss(spec, vectors[rows], data)
        assert losses.shape == (len(rows),)
        for loss, i in zip(losses, rows):
            assert loss == pytest.approx(models.global_loss(spec, vectors[i], data), rel=1e-12)
        for (a, i), (b, j) in itertools.combinations(zip(losses, rows), 2):
            if i == j:
                assert a == b

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    @given(
        l2=st.sampled_from([0.0, 0.01, 1e40]),
        label_exp=st.integers(-3, 99),
        feature_exp=st.integers(-3, 60),
        frac=st.floats(0.0, 1.0, exclude_max=True),
        aligned=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_loss_finite_inside_the_radius(
        self, kind, l2, label_exp, feature_exp, frac, aligned, seed
    ):
        # a RuntimeWarning fails the suite, so this also checks none is raised
        rng = np.random.default_rng(seed)
        spec, data = random_spec_and_data(kind, rng, l2=l2)
        data = models.Dataset(
            data.features * 10.0**feature_exp, data.labels * 10.0**label_exp
        )
        radius = models.finite_loss_radius(spec, data)
        assert radius > 0
        if not aligned:
            u = rng.standard_normal(spec.dim)
        elif kind == models.MLP:
            u = np.ones(spec.dim)  # every hidden unit saturates the same way
        else:
            # along the longest row, the prediction is as large as ‖w‖ allows
            u = data.features[np.argmax(np.linalg.norm(data.features, axis=1))]
        w = frac * radius * u / np.linalg.norm(u)
        assume(np.linalg.norm(w) < radius)
        assert math.isfinite(models.global_loss(spec, w, data))

    def test_radius_is_zero_when_labels_reach_the_bound(self):
        spec = models.ModelSpec(models.LINEAR, 2)
        data = models.Dataset(np.ones((3, 2)), np.full(3, models.FINITE_BOUND))
        assert models.finite_loss_radius(spec, data) == 0.0


class TestGradient:
    def test_linear_stationary_at_least_squares(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 4))
        y = rng.standard_normal(20)
        w_star, *_ = np.linalg.lstsq(X, y, rcond=None)
        spec = models.ModelSpec(models.LINEAR, 4)
        g = models.gradient(spec, w_star, models.Dataset(X, y))
        assert np.max(np.abs(g)) < 1e-9

    def test_logistic_zero_w_single_sample(self):
        spec = models.ModelSpec(models.LOGISTIC, 3)
        x = np.array([0.5, -1.0, 2.0])
        data = models.Dataset(x[None, :], np.array([1.0]))
        g = models.gradient(spec, np.zeros(3), data)
        np.testing.assert_allclose(g, -0.5 * x, rtol=1e-14)

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(4)
        for _ in range(20):
            spec, data = random_spec_and_data(kind, rng, l2=0.01)
            w = 0.5 * rng.standard_normal(spec.dim)
            g = models.gradient(spec, w, data)
            g_fd = finite_difference_gradient(spec, w, data)
            denom = max(1.0, float(np.linalg.norm(g_fd)))
            assert np.linalg.norm(g - g_fd) / denom < 1e-5


@pytest.fixture
def sample_domain_calls(monkeypatch):
    """The datasets of every call of local SGD's sample-domain form, one
    list per call: the clients it steps together."""
    calls = []
    sample = models._sample_domain_sgd

    def spy(spec, starts, datasets, *args):
        calls.append(list(datasets))
        return sample(spec, starts, datasets, *args)

    monkeypatch.setattr(models, "_sample_domain_sgd", spy)
    return calls


@pytest.fixture
def gram_builds(monkeypatch):
    """Every dataset whose Gram matrix is computed, once per computation."""
    built = []
    prop = models.Dataset.__dict__["gram"]
    monkeypatch.setattr(prop, "func", lambda ds, f=prop.func: built.append(ds) or f(ds))
    return built


class TestSgdLocalUpdate:
    def test_single_explicit_step(self):
        # one full-batch step: w <- w - mu * g; pick data with known gradient
        spec = models.ModelSpec(models.LINEAR, 1)
        # gradient at w=1 for X=[[1]], y=[-1] is (1*1 - (-1)) * 1 = 2
        data = models.Dataset(np.array([[1.0]]), np.array([-1.0]))
        cfg = models.TrainConfig(step_size=0.1, local_steps=1)
        w = models.sgd_local_update(spec, np.array([1.0]), data, cfg, np.random.default_rng(0))
        np.testing.assert_allclose(w, [0.8], rtol=1e-14)

    def test_zero_step_size_is_identity(self):
        rng = np.random.default_rng(5)
        spec, data = random_spec_and_data(models.LOGISTIC, rng)
        cfg = models.TrainConfig(step_size=0.0, local_steps=3)
        w0 = rng.standard_normal(spec.dim)
        w = models.sgd_local_update(spec, w0, data, cfg, rng)
        np.testing.assert_array_equal(w, w0)

    def test_two_steps_compose(self):
        rng = np.random.default_rng(6)
        spec, data = random_spec_and_data(models.LINEAR, rng, n=6, p=2)
        cfg = models.TrainConfig(step_size=0.05, local_steps=2)
        w0 = rng.standard_normal(2)
        w = models.sgd_local_update(spec, w0, data, cfg, np.random.default_rng(0))
        # oracle: apply the one-step update twice
        w_ref = w0 - 0.05 * models.gradient(spec, w0, data)
        w_ref = w_ref - 0.05 * models.gradient(spec, w_ref, data)
        np.testing.assert_allclose(w, w_ref, rtol=1e-12)

    @pytest.mark.parametrize(
        "kind, n, p, batch, steps, sample_domain",
        [
            pytest.param(models.MLP, 8, 20, "full", 5, False, id="mlp"),
            pytest.param(models.LOGISTIC, 8, 20, "full", 1, False, id="one-step"),
            pytest.param(models.LINEAR, 21, 20, "full", 5, False, id="n-above-p"),
            pytest.param(models.LOGISTIC, 256, 2000, 16, 2, False, id="some-rows"),
            pytest.param(models.LINEAR, 20, 20, "full", 2, True, id="full-batch"),
            pytest.param(models.LOGISTIC, 64, 2000, 16, 5, True, id="digital-dgc"),
        ],
    )
    def test_form_by_shape(self, sample_domain_calls, kind, n, p, batch, steps, sample_domain):
        spec, data = random_spec_and_data(kind, np.random.default_rng(3), n=n, p=p)
        w0 = models.initial_params(spec, np.random.default_rng(4))
        cfg = models.TrainConfig(step_size=0.01, batch_size=batch, local_steps=steps)
        models.local_updates(spec, [w0], [data], cfg, [np.random.default_rng(5)])
        assert len(sample_domain_calls) == sample_domain
        # only the sample domain builds the Gram matrix
        assert ("gram" in vars(data)) == sample_domain

    def test_gram_is_the_rows_inner_products_computed_once(self, gram_builds):
        spec, data = random_spec_and_data(models.LINEAR, np.random.default_rng(8), n=6, p=9)
        cfg = models.TrainConfig(step_size=0.1, local_steps=3)
        for seed in range(3):
            models.local_updates(spec, [np.zeros(9)], [data], cfg, [np.random.default_rng(seed)])
        assert gram_builds == [data]
        X = data.features
        np.testing.assert_allclose(data.gram, X @ X.T, rtol=1e-14)
        with pytest.raises(ValueError):
            data.gram[0, 0] = 1.0

    def test_dataset_arrays_are_read_only(self):
        X, y = np.ones((3, 2)), np.zeros(3)
        data = models.Dataset(X, y)
        for arr in (data.features, data.labels):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        # float64 arrays are taken over, not copied
        assert data.features is X and data.labels is y
        copied = models.Dataset([[1, 2]], [0])
        with pytest.raises(ValueError):
            copied.features[0, 0] = 5.0
        # a view of a writable array is copied, so writes through that array
        # cannot change the rows under a cached Gram matrix
        X, y = np.ones((3, 2)), np.zeros(3)
        for view in (models.Dataset(X[:2], y[:2]), models.Dataset(X.T.T, y[:])):
            K = view.gram.copy()
            X[0] = 5.0
            y[0] = 1.0
            assert not np.shares_memory(view.features, X)
            assert not np.shares_memory(view.labels, y)
            np.testing.assert_array_equal(view.features @ view.features.T, K)
            assert view.labels[0] == 0.0
            X[0], y[0] = 1.0, 0.0
        # a client's rows, views of a read-only population, are not copied
        pool = models.Dataset(np.ones((4, 2)), np.zeros(4))
        for part in pool.split([1, 3]):
            assert np.shares_memory(part.features, pool.features)
            assert np.shares_memory(part.labels, pool.labels)
            assert not part.features.flags.writeable and not part.labels.flags.writeable

    @pytest.mark.parametrize(
        "name, trains",
        [("digital-dgc", True), ("ota-crowd", False), ("cs-recovery", False)],
    )
    def test_each_training_client_builds_its_gram_once_per_run(
        self, monkeypatch, gram_builds, name, trains
    ):
        # a round trains its clients through the round-level entry
        trained = set()
        updates = models.local_updates

        def spy(spec, starts, datasets, *args):
            trained.update(id(data) for data in datasets)
            return updates(spec, starts, datasets, *args)

        monkeypatch.setattr(models, "local_updates", spy)
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads" / f"{name}.cfg"
        scenario = dataclasses.replace(load_scenario(path, seed=7), rounds=40)
        core.run_training(scenario)
        built = [id(ds) for ds in gram_builds]
        assert len(built) == len(set(built))
        assert set(built) == (trained if trains else set())
        assert len(trained) > 1

    def test_minibatch_deterministic_per_rng_seed(self):
        rng_data = np.random.default_rng(7)
        spec, data = random_spec_and_data(models.LINEAR, rng_data, n=16, p=3)
        cfg = models.TrainConfig(step_size=0.05, batch_size=4, local_steps=5)
        w0 = np.zeros(3)
        w1 = models.sgd_local_update(spec, w0, data, cfg, np.random.default_rng(42))
        w2 = models.sgd_local_update(spec, w0, data, cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(w1, w2)

    def test_divergence_in_the_sample_domain_stops_in_the_per_step_round(
        self, tmp_path, monkeypatch, capsys, sample_domain_calls
    ):
        # 20 rows of 40 features and three full-batch steps: the sample
        # domain; at this step size the loss first overflows in round 32.
        # The loss bound is lifted so that the run reaches the overflow: the
        # gradual growth is what tells the two forms' rounding apart.
        # A RuntimeWarning fails the suite, so neither form raises one
        monkeypatch.setattr(core, "DIVERGENCE_FACTOR", math.inf)
        f = tmp_path / "s.cfg"
        f.write_text(
            "seed = 3\nrounds = 100\nmodel = linear\nfeatures = 40\nclients = 4\n"
            "client_size = 20\nlocal_steps = 3\nmu = 10\n"
        )

        def per_step_round(spec, starts, datasets, cfg, rngs):
            return [
                per_step_dataset_sgd(spec, w, data, cfg, rng)
                for w, data, rng in zip(starts, datasets, rngs)
            ]

        errors = []
        for train in (models.local_updates, per_step_round):
            monkeypatch.setattr(models, "local_updates", train)
            assert cli.main(["run", str(f), "--out", str(tmp_path / "out"), "--quiet"]) == 1
            errors.append(capsys.readouterr().err)
        # four clients train in each of the 32 rounds, in the sample domain,
        # and only in the first run: the per-step run never reaches it
        assert sum(len(clients) for clients in sample_domain_calls) == 4 * 32
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: training diverged in round 32: non-finite")


class TestInitialParams:
    @pytest.mark.parametrize("kind", [models.LINEAR, models.LOGISTIC])
    def test_convex_models_start_at_zero(self, kind):
        w = models.initial_params(models.ModelSpec(kind, 5), np.random.default_rng(0))
        np.testing.assert_array_equal(w, np.zeros(5))

    def test_mlp_glorot_weights_and_zero_biases(self):
        spec = models.ModelSpec(models.MLP, 20, hidden=8)
        w = models.initial_params(spec, np.random.default_rng(0))
        W1, b1, w2, b2 = models._unpack_mlp(spec, w)
        assert np.all(b1 == 0) and b2 == 0
        assert np.all((W1 != 0) & (np.abs(W1) <= math.sqrt(6 / 28)))
        assert np.all((w2 != 0) & (np.abs(w2) <= math.sqrt(6 / 9)))
        again = models.initial_params(spec, np.random.default_rng(0))
        assert again.tobytes() == w.tobytes()


def masked_sigmoid(z):
    """Oracle: the sigmoid by boolean-mask scatters, one exponent per sign."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def two_term_log1pexp(z):
    """Oracle: log(1 + e^z) with log1p(e^-|z|) evaluated in both branches."""
    return np.where(z > 0, z + np.log1p(np.exp(-np.abs(z))), np.log1p(np.exp(-np.abs(z))))


def per_step_dataset_sgd(spec, w_start, data, cfg, rng):
    """Oracle: local SGD that builds a validated Dataset for every batch and
    calls the public gradient on it."""
    w = np.array(w_start, dtype=np.float64)
    n = data.size
    if cfg.batch_size == "full":
        for _ in range(cfg.local_steps):
            w -= cfg.step_size * models.gradient(spec, w, data)
        return w
    b = min(cfg.batch_size, n)
    order = rng.permutation(n)
    pos = 0
    for _ in range(cfg.local_steps):
        if pos >= n:
            order = rng.permutation(n)
            pos = 0
        idx = order[pos : pos + b]
        pos += b
        batch = models.Dataset(data.features[idx], data.labels[idx])
        w -= cfg.step_size * models.gradient(spec, w, batch)
    return w


# arbitrary doubles, with the edges of the exponent written out
edge_floats = st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 710.5, -710.5, 745.2, -745.2, 1e308, -1e308]
)
any_floats = hnp.arrays(
    np.float64,
    st.integers(0, 40),
    elements=st.one_of(edge_floats, st.floats(allow_nan=True, allow_infinity=True)),
)


class TestKernelsMatchOracles:
    @given(any_floats)
    @settings(max_examples=300, deadline=None)
    def test_sigmoid_bitwise(self, z):
        # a RuntimeWarning fails the suite, so this also checks none is raised
        assert models._sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()

    @given(any_floats)
    @settings(max_examples=300, deadline=None)
    def test_log1pexp_bitwise(self, z):
        assert models._log1pexp(z).tobytes() == two_term_log1pexp(z).tobytes()

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    @given(
        n=st.integers(1, 40),
        batch=st.one_of(st.just("full"), st.integers(1, 43)),
        steps=st.integers(1, 12),
        l2=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_sgd_local_update_equals_per_step_dataset_loop(self, kind, n, batch, steps, l2, seed):
        rng = np.random.default_rng(seed)
        spec, data = random_spec_and_data(kind, rng, n=n, p=5, l2=l2)
        w0 = 0.5 * rng.standard_normal(spec.dim)
        if batch != "full":
            batch = min(batch, n + 3)
        cfg = models.TrainConfig(step_size=0.1, batch_size=batch, local_steps=steps)
        # the start may be a broadcast array that every client shares
        w0.flags.writeable = False
        start = w0.copy()
        got = models.sgd_local_update(spec, w0, data, cfg, np.random.default_rng(seed))
        # no defensive copy: the first step writes a new array, never w0
        assert not np.shares_memory(got, w0)
        assert np.array_equal(w0, start)
        # the loop on every shape, so no draw builds a Gram matrix
        assert "gram" not in vars(data)
        want = per_step_dataset_sgd(spec, w0, data, cfg, np.random.default_rng(seed))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", [models.LINEAR, models.LOGISTIC])
    @given(
        steps=st.integers(2, 12),
        batch=st.one_of(st.just("full"), st.integers(1, 30)),
        l2=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
        draw=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_sample_domain_sgd_within_golden_rtol_of_per_step_loop(
        self, kind, steps, batch, l2, seed, draw
    ):
        # every draw has n <= p rows and steps that touch every row: full
        # batch, mini-batches with a short last one, or one larger than n.
        # The worst max|got - want| / max|want| in three runs of 4,000 random
        # draws was 1.6e-14, at n = p = 1
        n = draw.draw(st.integers(1, 24 if batch == "full" else min(steps * batch, 24)))
        p = draw.draw(st.integers(n, n + 8))
        rng = np.random.default_rng(seed)
        spec, data = random_spec_and_data(kind, rng, n=n, p=p, l2=l2)
        w0 = 0.5 * rng.standard_normal(spec.dim)
        w0.flags.writeable = False
        cfg = models.TrainConfig(step_size=0.1, batch_size=batch, local_steps=steps)
        (got,) = models.local_updates(spec, [w0], [data], cfg, [np.random.default_rng(seed)])
        assert "gram" in vars(data)
        want = per_step_dataset_sgd(spec, w0, data, cfg, np.random.default_rng(seed))
        assert got.dtype == want.dtype and not np.shares_memory(got, w0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", [models.LINEAR, models.LOGISTIC])
    @given(
        clients=st.integers(1, 6),
        steps=st.integers(2, 6),
        batch=st.one_of(st.just("full"), st.integers(1, 12)),
        l2=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        shared=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        draw=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_sample_domain_group_equals_one_call_per_client(
        self, kind, clients, steps, batch, l2, shared, seed, draw
    ):
        # n <= p rows that the steps all touch: a full batch, mini-batches
        # with a short last one, or one larger than n
        n = draw.draw(st.integers(1, 12 if batch == "full" else min(steps * batch, 12)))
        p = draw.draw(st.integers(n, n + 6))
        rng = np.random.default_rng(seed)
        pairs = [random_spec_and_data(kind, rng, n=n, p=p, l2=l2) for _ in range(clients)]
        spec, datasets = pairs[0][0], [data for _, data in pairs]
        # distinct starts, as in an off-schedule round, or the one read-only
        # array that a broadcast hands every client
        starts = [0.5 * rng.standard_normal(p) for _ in range(1 if shared else clients)]
        for w in starts:
            w.flags.writeable = False
        starts = starts * clients if shared else starts
        cfg = models.TrainConfig(step_size=0.1, batch_size=batch, local_steps=steps)
        seeds = rng.integers(2**32, size=clients)
        together = [np.random.default_rng(s) for s in seeds]
        got = models.local_updates(spec, starts, datasets, cfg, together)
        for w, data, s, g, gen in zip(starts, datasets, seeds, got, together):
            assert "gram" in vars(data)
            alone = np.random.default_rng(s)
            (want,) = models.local_updates(spec, [w], [data], cfg, [alone])
            assert g.dtype == want.dtype and g.tobytes() == want.tobytes()
            assert gen.bit_generator.state == alone.bit_generator.state
            assert not np.shares_memory(g, w)

    def test_round_groups_sample_domain_clients_by_size(self, monkeypatch, sample_domain_calls):
        # 10 features and three steps of 4: n <= 10 steps in the sample
        # domain, and n = 11 (n > p) and 13 (n > 12 rows touched) in the loop
        sizes = [7, 11, 3, 7, 10, 3, 7, 13]
        looped, loop = [], models.sgd_local_update

        def spy(spec, w, data, *args):
            looped.append(data)
            return loop(spec, w, data, *args)

        monkeypatch.setattr(models, "sgd_local_update", spy)
        rng = np.random.default_rng(12)
        pairs = [random_spec_and_data(models.LOGISTIC, rng, n=n, p=10, l2=0.1) for n in sizes]
        spec, datasets = pairs[0][0], [data for _, data in pairs]
        starts = [rng.standard_normal(10) for _ in sizes]
        cfg = models.TrainConfig(step_size=0.1, batch_size=4, local_steps=3)
        together = [np.random.default_rng(k) for k in range(len(sizes))]
        got = models.local_updates(spec, starts, datasets, cfg, together)
        groups = [[0, 3, 6], [2, 5], [4]]
        stepped = [[id(data) for data in call] for call in sample_domain_calls]
        assert stepped == [[id(datasets[k]) for k in group] for group in groups]
        # one loop call per loop-form client, none for the others
        assert [id(data) for data in looped] == [id(datasets[1]), id(datasets[7])]
        for k, (w, data, g, gen) in enumerate(zip(starts, datasets, got, together)):
            alone = np.random.default_rng(k)
            (want,) = models.local_updates(spec, [w], [data], cfg, [alone])
            assert g.tobytes() == want.tobytes()
            assert gen.bit_generator.state == alone.bit_generator.state


def per_client_synthetic(partition, seed):
    """Oracle: the per-client generator, one fresh array pair per client."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    p = partition.model.n_features
    w_star = rng.standard_normal(p)
    datasets = []
    for n in partition.sizes:
        shift = partition.skew * rng.standard_normal(p)
        X = rng.standard_normal((n, p)) + shift
        z = X @ w_star
        if partition.model.kind == models.LOGISTIC:
            y = (rng.random(n) < models._sigmoid(z)).astype(np.float64)
        else:
            y = z + partition.noise_std * rng.standard_normal(n)
        datasets.append(models.Dataset(X, y))
    return datasets


class TestMakeSynthetic:
    def test_single_client(self):
        part = models.PartitionSpec([17], models.ModelSpec(models.LINEAR, 3))
        (ds,) = models.make_synthetic(part, seed=0).split(part.sizes)
        assert ds.size == 17 and ds.n_features == 3

    def test_same_seed_identical(self):
        part = models.PartitionSpec([5, 6, 7], models.ModelSpec(models.LOGISTIC, 4))
        a = models.make_synthetic(part, seed=9)
        b = models.make_synthetic(part, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_skew_means_close_to_zero(self):
        n = 4000
        part = models.PartitionSpec([n] * 3, models.ModelSpec(models.LINEAR, 5), skew=0.0)
        datasets = models.make_synthetic(part, seed=11).split(part.sizes)
        for ds in datasets:
            means = ds.features.mean(axis=0)
            assert np.all(np.abs(means) < 3.0 / math.sqrt(n))

    # ids name the labels each kind draws
    @pytest.mark.parametrize(
        "kind", [models.LINEAR, models.LOGISTIC, models.MLP], ids=["real", "binary", "mlp"]
    )
    @pytest.mark.parametrize("skew", [0.0, 1.5])
    @pytest.mark.parametrize("sizes", [[9, 9, 9], [1, 13, 4, 7]])
    def test_pooled_equals_per_client_generator(self, sizes, skew, kind):
        model = models.ModelSpec(kind, 6, hidden=3 if kind == models.MLP else 0)
        part = models.PartitionSpec(sizes, model, noise_std=0.3, skew=skew)
        population = models.make_synthetic(part, seed=21)
        views = population.split(sizes)
        for view, ref in zip(views, per_client_synthetic(part, seed=21)):
            assert view.features.tobytes() == ref.features.tobytes()
            assert view.labels.tobytes() == ref.labels.tobytes()
            assert np.shares_memory(view.features, population.features)
            assert np.shares_memory(view.labels, population.labels)
        assert population.size == sum(sizes)

    # zero label noise, as a zero shift, is drawn and not added: the oracle
    # adds every term, so a skipped draw moves every later row (the test
    # above covers nonzero noise at zero and nonzero skew)
    @pytest.mark.parametrize("kind", [models.LINEAR, models.LOGISTIC, models.MLP])
    @pytest.mark.parametrize("skew", [0.0, 0.8])
    def test_zero_label_noise_keeps_every_draw(self, skew, kind):
        model = models.ModelSpec(kind, 4, hidden=2 if kind == models.MLP else 0)
        part = models.PartitionSpec([3, 7, 1, 5], model, noise_std=0.0, skew=skew)
        population = models.make_synthetic(part, seed=5)
        refs = per_client_synthetic(part, seed=5)
        assert population.features.tobytes() == np.vstack([r.features for r in refs]).tobytes()
        assert population.labels.tobytes() == np.concatenate([r.labels for r in refs]).tobytes()

    def test_population_is_read_only(self):
        part = models.PartitionSpec([3, 4], models.ModelSpec(models.LINEAR, 2))
        population = models.make_synthetic(part, seed=1)
        first, _ = population.split(part.sizes)
        for arr in (population.features, population.labels, first.features, first.labels):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_split_sizes_must_cover_the_rows(self):
        part = models.PartitionSpec([3, 4], models.ModelSpec(models.LINEAR, 2))
        with pytest.raises(ConfigurationError):
            models.make_synthetic(part, seed=1).split([3, 3])

    def test_invalid_partition_rejected(self):
        model = models.ModelSpec(models.LINEAR, 3)
        with pytest.raises(ConfigurationError):
            models.PartitionSpec([], model)
        with pytest.raises(ConfigurationError):
            models.PartitionSpec([5, 0], model)


ONE_ROW = models.Dataset(np.ones((1, 2)), np.ones(1))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: models.Dataset(np.ones(3), np.ones(3)),
            "features must be a 2-D",
            id="features-1d",
        ),
        pytest.param(
            lambda: models.Dataset(np.ones((3, 2)), np.ones(2)),
            "labels must align",
            id="labels-short",
        ),
        pytest.param(lambda: models.ModelSpec("tree", 2), "unknown model kind 'tree'", id="kind"),
        pytest.param(
            lambda: models.ModelSpec(models.LINEAR, 2, l2=-1.0),
            "l2 must be finite and >= 0",
            id="l2",
        ),
        pytest.param(
            lambda: models.ModelSpec(models.MLP, 2),
            "mlp requires hidden width",
            id="hidden",
        ),
        pytest.param(
            lambda: models.gradient(models.ModelSpec(models.LINEAR, 2), np.zeros(3), ONE_ROW),
            "parameter vector has length (3,), expected (2,)",
            id="w-length",
        ),
        pytest.param(
            lambda: models.global_loss(
                models.ModelSpec(models.LINEAR, 2), np.zeros((4, 3)), ONE_ROW
            ),
            "parameter vector has length (3,), expected (2,)",
            id="block-width",
        ),
        pytest.param(
            lambda: models.TrainConfig(math.nan),
            "step_size must be finite",
            id="step-nan",
        ),
        pytest.param(
            lambda: models.TrainConfig(0.1, local_steps=0),
            "local_steps must be >= 1",
            id="steps",
        ),
        pytest.param(
            lambda: models.TrainConfig(0.1, batch_size=0),
            "batch_size must be 'full'",
            id="batch",
        ),
        pytest.param(
            lambda: models.ModelSpec(models.LINEAR, 0),
            "n_features must be >= 1",
            id="partition-features",
        ),
        pytest.param(
            lambda: models.PartitionSpec([3, 0], models.ModelSpec(models.LINEAR, 2)),
            "`sizes`: every size must be >= 1",
            id="partition-sizes",
        ),
    ],
)
def test_invalid_input_raises_its_message(call, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        call()
