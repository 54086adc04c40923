import math

import numpy as np
import pytest

from airfed import models
from airfed.errors import ConfigurationError


def finite_difference_gradient(spec, w, batch, h=1e-6):
    """Central-difference oracle for the analytic gradients."""
    g = np.zeros_like(w)
    for i in range(w.size):
        wp = w.copy()
        wm = w.copy()
        wp[i] += h
        wm[i] -= h
        g[i] = (models.local_loss(spec, wp, batch) - models.local_loss(spec, wm, batch)) / (
            2 * h
        )
    return g


def random_spec_and_data(kind, rng, n=12, p=4, l2=0.0):
    if kind == models.MLP:
        hidden = 3
        spec = models.ModelSpec(kind, models.ModelSpec.mlp_dim(p, hidden), hidden, l2)
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
        assert models.local_loss(spec, np.zeros(3), data) == 0.0

    def test_logistic_zero_weights_is_ln2(self):
        spec = models.ModelSpec(models.LOGISTIC, 4)
        rng = np.random.default_rng(0)
        data = models.Dataset(rng.standard_normal((7, 4)), (rng.random(7) < 0.5).astype(float))
        assert models.local_loss(spec, np.zeros(4), data) == pytest.approx(math.log(2))

    def test_logistic_hand_computed(self):
        # w = [1, -1], x = [2, 1], y = 1: z = 1, loss = ln(1 + e^-1)
        spec = models.ModelSpec(models.LOGISTIC, 2)
        data = models.Dataset(np.array([[2.0, 1.0]]), np.array([1.0]))
        expected = math.log(1 + math.exp(-1))
        assert models.local_loss(spec, np.array([1.0, -1.0]), data) == pytest.approx(
            expected, rel=1e-14
        )

    def test_dimension_mismatch(self):
        spec = models.ModelSpec(models.LINEAR, 3)
        data = models.Dataset(np.ones((2, 4)), np.zeros(2))
        with pytest.raises(ConfigurationError):
            models.local_loss(spec, np.zeros(3), data)


class TestGlobalLoss:
    def test_single_client_equals_local(self):
        rng = np.random.default_rng(1)
        spec, data = random_spec_and_data(models.LINEAR, rng)
        w = rng.standard_normal(spec.dim)
        assert models.global_loss(spec, w, [data]) == models.local_loss(spec, w, data)

    def test_weighted_average_identity(self):
        rng = np.random.default_rng(2)
        spec = models.ModelSpec(models.LINEAR, 3)
        ds = [
            models.Dataset(rng.standard_normal((n, 3)), rng.standard_normal(n))
            for n in (1, 3, 6)
        ]
        w = rng.standard_normal(3)
        total = sum(d.size for d in ds)
        expected = sum(d.size * models.local_loss(spec, w, d) for d in ds) / total
        assert models.global_loss(spec, w, ds) == pytest.approx(expected, rel=1e-12)

    def test_empty_list_rejected(self):
        spec = models.ModelSpec(models.LINEAR, 3)
        with pytest.raises(ConfigurationError):
            models.global_loss(spec, np.zeros(3), [])

    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_pooled_equals_per_client(self, kind):
        # one loss over the union equals the size-weighted per-client mean
        rng = np.random.default_rng(8)
        sizes = [1, 7, 30, 12]
        spec, union = random_spec_and_data(kind, rng, n=sum(sizes), p=5, l2=0.01)
        w = rng.standard_normal(spec.dim)
        pooled = models.global_loss(spec, w, [union])
        per_client = models.global_loss(spec, w, union.split(sizes))
        assert pooled == pytest.approx(per_client, rel=1e-12, abs=0)


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

    def test_minibatch_deterministic_per_rng_seed(self):
        rng_data = np.random.default_rng(7)
        spec, data = random_spec_and_data(models.LINEAR, rng_data, n=16, p=3)
        cfg = models.TrainConfig(step_size=0.05, batch_size=4, local_steps=5)
        w0 = np.zeros(3)
        w1 = models.sgd_local_update(spec, w0, data, cfg, np.random.default_rng(42))
        w2 = models.sgd_local_update(spec, w0, data, cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(w1, w2)


def per_client_synthetic(partition, seed):
    """Oracle: the per-client generator, one fresh array pair per client."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    p = partition.n_features
    w_star = partition.w_star
    if w_star is None:
        w_star = rng.standard_normal(p)
    datasets = []
    for n in partition.sizes:
        shift = partition.skew * rng.standard_normal(p)
        X = rng.standard_normal((n, p)) + shift
        z = X @ w_star
        if partition.label_kind == "binary":
            y = (rng.random(n) < models._sigmoid(z)).astype(np.float64)
        else:
            y = z + partition.noise_std * rng.standard_normal(n)
        datasets.append(models.Dataset(X, y))
    return datasets


class TestMakeSynthetic:
    def test_single_client(self):
        part = models.PartitionSpec(1, [17], 3)
        (ds,) = models.make_synthetic(part, seed=0).split(part.sizes)
        assert ds.size == 17 and ds.n_features == 3

    def test_same_seed_identical(self):
        part = models.PartitionSpec(3, [5, 6, 7], 4, label_kind="binary")
        a = models.make_synthetic(part, seed=9)
        b = models.make_synthetic(part, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_skew_means_close_to_zero(self):
        n = 4000
        part = models.PartitionSpec(3, [n] * 3, 5, skew=0.0)
        datasets = models.make_synthetic(part, seed=11).split(part.sizes)
        for ds in datasets:
            means = ds.features.mean(axis=0)
            assert np.all(np.abs(means) < 3.0 / math.sqrt(n))

    @pytest.mark.parametrize("label_kind", ["real", "binary"])
    @pytest.mark.parametrize("skew", [0.0, 1.5])
    @pytest.mark.parametrize("sizes", [[9, 9, 9], [1, 13, 4, 7]])
    def test_pooled_equals_per_client_generator(self, sizes, skew, label_kind):
        part = models.PartitionSpec(
            len(sizes), sizes, 6, label_kind=label_kind, noise_std=0.3, skew=skew
        )
        population = models.make_synthetic(part, seed=21)
        views = population.split(sizes)
        for view, ref in zip(views, per_client_synthetic(part, seed=21)):
            assert view.features.tobytes() == ref.features.tobytes()
            assert view.labels.tobytes() == ref.labels.tobytes()
            assert np.shares_memory(view.features, population.features)
            assert np.shares_memory(view.labels, population.labels)
        assert population.size == sum(sizes)

    def test_population_is_read_only(self):
        part = models.PartitionSpec(2, [3, 4], 2)
        population = models.make_synthetic(part, seed=1)
        first, _ = population.split(part.sizes)
        for arr in (population.features, population.labels, first.features, first.labels):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_split_sizes_must_cover_the_rows(self):
        part = models.PartitionSpec(2, [3, 4], 2)
        with pytest.raises(ConfigurationError):
            models.make_synthetic(part, seed=1).split([3, 3])

    def test_invalid_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            models.PartitionSpec(0, [], 3)
        with pytest.raises(ConfigurationError):
            models.PartitionSpec(2, [5, 0], 3)
