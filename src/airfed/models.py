"""From-scratch differentiable models, losses, gradients, and synthetic data.

All parameters live in flat float64 vectors so the rest of the simulator can
treat every model uniformly. Gradients are hand-derived per model family and
checked against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

LINEAR = "linear"
LOGISTIC = "logistic"
MLP = "mlp"

MODEL_KINDS = (LINEAR, LOGISTIC, MLP)


@dataclass
class Dataset:
    """Feature matrix plus aligned labels for one client."""

    features: np.ndarray  # (n, p)
    labels: np.ndarray  # (n,)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.features.ndim != 2:
            raise ConfigurationError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ConfigurationError("labels must align with feature rows")
        if self.size < 1:
            raise ConfigurationError("dataset must contain at least one sample")

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def split(self, sizes: list[int]) -> list["Dataset"]:
        """Consecutive row blocks of the given sizes, as views of this data."""
        if sum(sizes) != self.size:
            raise ConfigurationError(
                f"sizes sum to {sum(sizes)}, dataset has {self.size} rows"
            )
        ends = np.cumsum(sizes)
        return [
            Dataset(self.features[end - n : end], self.labels[end - n : end])
            for n, end in zip(sizes, ends)
        ]


@dataclass
class ModelSpec:
    kind: str
    dim: int
    hidden: int = 0
    l2: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}")
        if self.l2 < 0:
            raise ConfigurationError("l2 must be >= 0")
        if self.kind == MLP:
            if self.hidden < 1:
                raise ConfigurationError("mlp requires hidden width >= 1")
        elif self.dim < 1:
            raise ConfigurationError("dim must be >= 1")

    def n_features(self) -> int:
        """Feature dimension p implied by the parameter layout."""
        if self.kind == MLP:
            # layout: W1 (hidden, p), b1 (hidden), w2 (hidden), b2 (1)
            p, rem = divmod(self.dim - 2 * self.hidden - 1, self.hidden)
            if rem != 0 or p < 1:
                raise ConfigurationError("mlp dim inconsistent with hidden width")
            return p
        return self.dim

    @staticmethod
    def mlp_dim(p: int, hidden: int) -> int:
        return hidden * p + 2 * hidden + 1

    def check_dims(self, w: np.ndarray, data: Dataset) -> None:
        if w.shape != (self.dim,):
            raise ConfigurationError(
                f"parameter vector has length {w.shape}, expected ({self.dim},)"
            )
        if data.n_features != self.n_features():
            raise ConfigurationError(
                f"dataset has {data.n_features} features, model expects "
                f"{self.n_features()}"
            )


@dataclass
class TrainConfig:
    step_size: float
    batch_size: int | str = "full"  # "full" or a positive int
    local_steps: int = 1

    def __post_init__(self):
        if not np.isfinite(self.step_size) or self.step_size < 0:
            raise ConfigurationError("step_size must be finite and >= 0")
        if self.local_steps < 1:
            raise ConfigurationError("local_steps must be >= 1")
        if self.batch_size != "full" and (
            not isinstance(self.batch_size, int) or self.batch_size < 1
        ):
            raise ConfigurationError("batch_size must be 'full' or a positive int")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log1pexp(z: np.ndarray) -> np.ndarray:
    # stable log(1 + e^z)
    return np.where(z > 0, z + np.log1p(np.exp(-np.abs(z))), np.log1p(np.exp(-np.abs(z))))


def _unpack_mlp(spec: ModelSpec, w: np.ndarray):
    p = spec.n_features()
    h = spec.hidden
    o = 0
    W1 = w[o : o + h * p].reshape(h, p)
    o += h * p
    b1 = w[o : o + h]
    o += h
    w2 = w[o : o + h]
    o += h
    b2 = w[o]
    return W1, b1, w2, b2


def _mlp_forward(spec: ModelSpec, w: np.ndarray, X: np.ndarray):
    W1, b1, w2, b2 = _unpack_mlp(spec, w)
    Z = X @ W1.T + b1  # (n, h)
    A = np.tanh(Z)
    yhat = A @ w2 + b2
    return yhat, A

def local_loss(spec: ModelSpec, w: np.ndarray, data: Dataset) -> float:
    """Per-client loss F_k(w): mean over samples plus L2 penalty."""
    spec.check_dims(w, data)
    X, y = data.features, data.labels
    if spec.kind == LINEAR:
        r = X @ w - y
        base = 0.5 * float(np.mean(r * r))
    elif spec.kind == LOGISTIC:
        z = X @ w
        base = float(np.mean(_log1pexp(z) - y * z))
    else:
        yhat, _ = _mlp_forward(spec, w, X)
        r = yhat - y
        base = 0.5 * float(np.mean(r * r))
    return base + 0.5 * spec.l2 * float(w @ w)


def global_loss(spec: ModelSpec, w: np.ndarray, datasets: list[Dataset]) -> float:
    """Size-weighted average of the per-client losses."""
    if not datasets:
        raise ConfigurationError("global_loss requires at least one dataset")
    total = sum(d.size for d in datasets)
    return sum(d.size * local_loss(spec, w, d) for d in datasets) / total


def gradient(spec: ModelSpec, w: np.ndarray, batch: Dataset) -> np.ndarray:
    """Analytic gradient of local_loss at w over the given batch."""
    spec.check_dims(w, batch)
    X, y = batch.features, batch.labels
    n = batch.size
    if spec.kind == LINEAR:
        g = X.T @ (X @ w - y) / n
    elif spec.kind == LOGISTIC:
        g = X.T @ (_sigmoid(X @ w) - y) / n
    else:
        W1, b1, w2, b2 = _unpack_mlp(spec, w)
        yhat, A = _mlp_forward(spec, w, X)
        r = (yhat - y) / n  # (n,)
        g_w2 = A.T @ r
        g_b2 = float(np.sum(r))
        dZ = np.outer(r, w2) * (1.0 - A * A)  # (n, h)
        g_W1 = dZ.T @ X
        g_b1 = dZ.sum(axis=0)
        g = np.concatenate([g_W1.ravel(), g_b1, g_w2, [g_b2]])
    return g + spec.l2 * w


def sgd_local_update(
    spec: ModelSpec,
    w_start: np.ndarray,
    data: Dataset,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run `local_steps` mini-batch SGD steps starting from w_start.

    Batches are drawn without replacement per epoch, reshuffled per epoch
    from the supplied generator, so the trajectory is reproducible.
    """
    w = np.array(w_start, dtype=np.float64)
    n = data.size
    if cfg.batch_size == "full":
        for _ in range(cfg.local_steps):
            w -= cfg.step_size * gradient(spec, w, data)
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
        batch = Dataset(data.features[idx], data.labels[idx])
        w -= cfg.step_size * gradient(spec, w, batch)
    return w


@dataclass
class PartitionSpec:
    """Synthetic federated data: K clients, sizes, and a ground-truth model."""

    n_clients: int
    sizes: list[int]
    n_features: int
    label_kind: str = "real"  # "real" or "binary"
    noise_std: float = 0.0
    skew: float = 0.0  # per-client feature-mean shift magnitude
    w_star: np.ndarray | None = None

    def __post_init__(self):
        if self.n_clients < 1:
            raise ConfigurationError("n_clients must be >= 1")
        if len(self.sizes) != self.n_clients:
            raise ConfigurationError("sizes must list one entry per client")
        if any(s < 1 for s in self.sizes):
            raise ConfigurationError("every client size must be >= 1")
        if self.n_features < 1:
            raise ConfigurationError("n_features must be >= 1")
        if self.label_kind not in ("real", "binary"):
            raise ConfigurationError("label_kind must be 'real' or 'binary'")


def make_synthetic(partition: PartitionSpec, seed: int) -> Dataset:
    """Deterministic synthetic population, client after client in row order;
    `split(partition.sizes)` gives the clients' datasets. The arrays are
    read-only, so no client can change another client's rows."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    p = partition.n_features
    w_star = partition.w_star
    if w_star is None:
        w_star = rng.standard_normal(p)
    n_rows = sum(partition.sizes)
    population = Dataset(np.empty((n_rows, p)), np.empty(n_rows))
    for client in population.split(partition.sizes):
        shift = partition.skew * rng.standard_normal(p)
        rng.standard_normal(out=client.features)
        client.features += shift
        z = client.features @ w_star
        if partition.label_kind == "binary":
            client.labels[:] = rng.random(client.size) < _sigmoid(z)
        else:
            client.labels[:] = z + partition.noise_std * rng.standard_normal(client.size)
    population.features.flags.writeable = False
    population.labels.flags.writeable = False
    return population
