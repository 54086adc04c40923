"""From-scratch differentiable models, losses, gradients, and synthetic data.

All parameters live in flat float64 vectors so the rest of the simulator can
treat every model uniformly. Gradients are hand-derived per model family and
checked against finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError

LINEAR = "linear"
LOGISTIC = "logistic"
MLP = "mlp"

MODEL_KINDS = (LINEAR, LOGISTIC, MLP)


@dataclass
class Dataset:
    """Feature matrix plus aligned labels: one client's rows, or the pooled
    population that `make_synthetic` returns. The dataset holds read-only
    arrays, so what it caches from its rows, such as `gram`, stays valid: a
    float64 array it is given is taken over when it owns its memory or views
    a read-only array, and copied when it views a writable one."""

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
        self.features = _read_only(self.features)
        self.labels = _read_only(self.labels)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """K = X·Xᵀ, the (n, n) inner products of the rows, computed on
        first use and kept, read-only."""
        K = self.features @ self.features.T
        K.flags.writeable = False
        return K

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


def _read_only(a: np.ndarray) -> np.ndarray:
    """a made read-only, or a read-only copy when a views memory that a
    writable array can still change."""
    if not (a.flags.owndata or isinstance(a.base, np.ndarray) and not a.base.flags.writeable):
        a = a.copy()
    a.flags.writeable = False
    return a


@dataclass
class ModelSpec:
    kind: str
    n_features: int
    hidden: int = 0
    l2: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigurationError(f"unknown model kind {self.kind!r}")
        if self.n_features < 1:
            raise ConfigurationError("n_features must be >= 1")
        if self.l2 < 0:
            raise ConfigurationError("l2 must be >= 0")
        if self.kind == MLP and self.hidden < 1:
            raise ConfigurationError("mlp requires hidden width >= 1")

    @property
    def dim(self) -> int:
        if self.kind == MLP:
            # the sizes of W1, b1, w2 and b2 in _unpack_mlp
            return self.hidden * self.n_features + 2 * self.hidden + 1
        return self.n_features

    def check_dims(self, w: np.ndarray, data: Dataset, block: bool = False) -> None:
        """w is one parameter vector, or with `block` a (B, dim) block of
        them, and the data has the model's feature count."""
        if w.shape[block:] != (self.dim,):
            raise ConfigurationError(
                f"parameter vector has length {w.shape[block:]}, expected ({self.dim},)"
            )
        if data.n_features != self.n_features:
            raise ConfigurationError(
                f"dataset has {data.n_features} features, model expects "
                f"{self.n_features}"
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
    # e^-|z| is e^-z for z >= 0 and e^z below, and never overflows;
    # min(z, -z) is -|z| that keeps a NaN's sign, as e^z and e^-z would
    ez = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, ez) / (1.0 + ez)


def _log1pexp(z: np.ndarray) -> np.ndarray:
    # stable log(1 + e^z) = max(z, 0) + log(1 + e^-|z|), built in one array
    t = np.abs(z)
    np.exp(np.negative(t, out=t), out=t)
    np.log1p(t, out=t)
    return np.add(t, z, out=t, where=z > 0)


def _unpack_mlp(spec: ModelSpec, w: np.ndarray):
    """Views of w: W1 (hidden, p), b1 (hidden), w2 (hidden), b2 (1,); for a
    (B, dim) block, the same with a leading axis of B."""
    h, p = spec.hidden, spec.n_features
    W1, b1, w2, b2 = np.split(w, np.cumsum([h * p, h, h]), axis=-1)
    return W1.reshape(*w.shape[:-1], h, p), b1, w2, b2


def initial_params(spec: ModelSpec, rng: np.random.Generator) -> np.ndarray:
    """The server's starting parameters: zero for linear and logistic models.
    The MLP draws W1, then w2, Glorot-uniform (Glorot & Bengio, 2010) with
    zero biases; from W1 = w2 = 0 every hidden-layer gradient stays 0."""
    w = np.zeros(spec.dim)
    if spec.kind == MLP:
        W1, _, w2, _ = _unpack_mlp(spec, w)  # views into w
        p, h = spec.n_features, spec.hidden
        for layer, fans in ((W1, p + h), (w2, h + 1)):
            limit = np.sqrt(6.0 / fans)
            layer[...] = rng.uniform(-limit, limit, layer.shape)
    return w


def _forward(spec: ModelSpec, w: np.ndarray, X: np.ndarray):
    """The predictions at rows X (z for logistic) of one parameter vector,
    (n,), or of each row of a (B, dim) block, (n, B); and the MLP's hidden
    activations, (n, h) or (n, B, h), or None for the other models."""
    if spec.kind != MLP:
        return X @ w.T, None  # w.T is w for one vector
    W1, b1, w2, b2 = _unpack_mlp(spec, w)
    A = (X @ W1.reshape(-1, spec.n_features).T).reshape(len(X), *b1.shape)
    A += b1
    np.tanh(A, out=A)
    return np.einsum("...h,...h->...", A, w2) + b2.T, A


def global_loss(spec: ModelSpec, w: np.ndarray, data: Dataset) -> float | np.ndarray:
    """Loss F(w) over one dataset: mean over samples plus L2 penalty. Over a
    client's rows it is F_k; over the pooled population it is the
    size-weighted mean of the F_k, the global loss. A 1-D w gives a float.
    A (B, dim) block of parameter vectors gives B losses from one product
    X·Wᵀ, which reads the data once for the whole block; equal rows give
    equal losses, and a row's loss differs from its 1-D value only by the
    order of the sums."""
    spec.check_dims(w, data, block=w.ndim == 2)
    W = np.atleast_2d(w)
    y = data.labels[:, None]
    Z, _ = _forward(spec, W, data.features)  # (n, B)
    if spec.kind == LOGISTIC:
        L = _log1pexp(Z)
        L -= np.multiply(Z, y, out=Z)
        base = L.mean(axis=0)
    else:
        Z -= y
        base = 0.5 * np.mean(np.square(Z, out=Z), axis=0)
    losses = base + 0.5 * spec.l2 * np.einsum("bi,bi->b", W, W)
    return float(losses[0]) if w.ndim == 1 else losses


FINITE_BOUND = 1e100  # far from overflow: a loss term stays below 4·FINITE_BOUND²


def finite_loss_radius(spec: ModelSpec, data: Dataset) -> float:
    """A radius r such that global_loss(spec, w, data) is finite whenever
    ‖w‖ < r, that is ‖w‖·c < FINITE_BOUND with c = R + √dim + max|y| + l2
    and R the largest row norm. Every model's prediction (z for logistic)
    is at most ‖w‖·(R + √dim): the MLP's hidden units lie in [-1, 1], so
    its output is at most √(h+1)·‖w‖. Labels of FINITE_BOUND or more, or
    data whose norms overflow, give r = 0."""
    X, y = data.features, data.labels
    R = math.sqrt(np.max(np.einsum("ij,ij->i", X, X)))
    ymax = float(np.max(np.abs(y)))
    c = R + math.sqrt(spec.dim) + ymax + spec.l2
    return FINITE_BOUND / c if ymax < FINITE_BOUND and c < math.inf else 0.0


def gradient(spec: ModelSpec, w: np.ndarray, batch: Dataset) -> np.ndarray:
    """Analytic gradient of global_loss at w over the given batch."""
    spec.check_dims(w, batch)
    return _gradient(spec, w, batch.features, batch.labels)


def _gradient(spec: ModelSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient over rows X, y, whose dimensions the caller has checked,
    as a new array that the caller may overwrite."""
    n = X.shape[0]
    z, A = _forward(spec, w, X)
    if spec.kind == MLP:
        _, _, w2, _ = _unpack_mlp(spec, w)
        r = (z - y) / n  # (n,)
        dZ = np.outer(r, w2) * (1.0 - A * A)  # (n, h)
        g = np.empty_like(w)
        g_W1, g_b1, g_w2, g_b2 = _unpack_mlp(spec, g)  # views into g
        g_W1[...] = dZ.T @ X
        g_b1[...] = dZ.sum(axis=0)
        g_w2[...] = A.T @ r
        g_b2[...] = r.sum()
    else:  # the link is z for linear, sigmoid(z) for logistic
        g = X.T @ ((_sigmoid(z) if spec.kind == LOGISTIC else z) - y) / n
    return g + spec.l2 * w if spec.l2 > 0 else g


def sgd_local_update(
    spec: ModelSpec,
    w_start: np.ndarray,
    data: Dataset,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run `local_steps` mini-batch SGD steps from w_start in the per-step
    loop. `local_updates`, which a round calls, picks local SGD's form: on a
    shape in the sample domain a direct call differs from a round's result
    by rounding (at most 1.6e-14 relative), and `local_updates` of this
    client alone gives a round's bits.

    Batches are drawn without replacement per epoch, reshuffled per epoch
    from the supplied generator, so the trajectory is reproducible. A full
    batch draws nothing and steps on views of every row. w_start is never
    written, so it may be a read-only array that many clients share: each
    step writes its result into the step's own new gradient array.
    """
    w = np.asarray(w_start, dtype=np.float64)
    spec.check_dims(w, data)  # once: every batch is rows of this valid data
    X, y, n = data.features, data.labels, data.size
    rows, pos = slice(None), n  # pos = n: the first mini-batch step draws an order
    for _ in range(cfg.local_steps):
        if cfg.batch_size != "full":
            if pos >= n:
                order, pos = rng.permutation(n), 0
            rows, pos = order[pos : pos + cfg.batch_size], pos + cfg.batch_size
        # gathered in the call, so a batch's copy is freed before the next
        # gather: holding it across a step doubled the step time at d = 2000
        g = _gradient(spec, w, X[rows], y[rows])
        g *= cfg.step_size
        w = np.subtract(w, g, out=g)
    return w


def _in_sample_domain(spec: ModelSpec, n: int, cfg: TrainConfig) -> bool:
    # the sample domain reads all n rows twice per call, so it pays only when
    # the steps touch every row: at 2,000 features, on one BLAS thread of a
    # Xeon core, two steps of 16 of 256 rows ran 5.7 times slower in it than
    # in the loop, and five steps of 16 of 64 rows 1.4 times faster
    return (
        spec.kind != MLP and cfg.local_steps >= 2 and n <= spec.n_features
        and (cfg.batch_size == "full" or n <= cfg.local_steps * cfg.batch_size)
    )


def local_updates(
    spec: ModelSpec, starts: list, datasets: list[Dataset], cfg: TrainConfig, rngs: list
) -> list[np.ndarray]:
    """Local SGD of every client k from starts[k] on datasets[k] with rngs[k],
    and the one place that picks its form: the clients of one row count n
    step in one `_sample_domain_sgd` call if `_in_sample_domain` admits n,
    and each in its own `sgd_local_update` call, the per-step loop, if not.
    A client's result does not depend on its group."""
    out, groups = [None] * len(datasets), {}  # groups: n -> ids of the clients
    for k, data in enumerate(datasets):
        groups.setdefault(data.size, []).append(k)
    for n, ks in groups.items():  # one rule check per n
        if _in_sample_domain(spec, n, cfg):
            ws, ds, gens = ([seq[k] for k in ks] for seq in (starts, datasets, rngs))
            trained = _sample_domain_sgd(spec, ws, ds, cfg, gens)
        else:
            trained = [sgd_local_update(spec, starts[k], datasets[k], cfg, rngs[k]) for k in ks]
        for k, w in zip(ks, trained):
            out[k] = w
    return out


def _sample_domain_sgd(
    spec: ModelSpec, starts: list, datasets: list[Dataset], cfg: TrainConfig, rngs: list
) -> list[np.ndarray]:
    """Local SGD of P linear or logistic clients of n rows each, a group of
    `local_updates`, in the n-dimensional sample domain, the representer form
    of SDCA (Shalev-Shwartz & Zhang, 2013). The step w ← decay·w − X_Bᵀr, with
    decay = 1 − μ·l2 and r = μ·(link(X_B·w) − y_B)/|B|, keeps w = s·w₀ − Xᵀα
    with α ← decay·α, α_B += r and s ← decay·s, and the predictions z = X·w
    of every row with z ← decay·z − K_Bᵀr, K = X·Xᵀ: |B| × n entries of K
    per step, not |B| × p of X. Equal n gives one batch length per step, so
    a step takes flat batch indices into the stacked z and Grams (a (P·n, n)
    copy) and makes one np.matmul of the (P, 1, |B|) residuals with the
    (P, |B|, n) rows of K. Each client draws its orders from its own
    generator when it would alone, and each product is the one it makes
    alone, so its result does not depend on its group."""
    starts = [np.asarray(w, dtype=np.float64) for w in starts]
    for w, data in zip(starts, datasets):
        spec.check_dims(w, data)  # once: every batch is rows of this valid data
    P, n, mu = len(datasets), datasets[0].size, cfg.step_size
    decay = 1.0 - mu * spec.l2
    # flat stacks: client k's rows are k·n to k·n + n − 1
    z = np.concatenate([d.features @ w for d, w in zip(datasets, starts)])
    y = np.concatenate([d.labels for d in datasets])
    K = np.concatenate([d.gram for d in datasets])
    alpha, s = np.zeros(P * n), 1.0
    rows, pos = slice(None), n
    for step in range(cfg.local_steps):
        if cfg.batch_size != "full":
            if pos >= n:
                order, pos = np.stack([rng.permutation(n) for rng in rngs]), 0
                order += np.arange(0, P * n, n)[:, None]
            rows, pos = order[:, pos : pos + cfg.batch_size], pos + cfg.batch_size
        zb = z[rows]
        r = (_sigmoid(zb) if spec.kind == LOGISTIC else zb) - y[rows]
        r *= mu / (r.size // P)
        alpha *= decay
        alpha[rows] += r
        s *= decay
        if step < cfg.local_steps - 1:
            z *= decay
            z -= (r.reshape(P, 1, -1) @ K[rows].reshape(P, -1, n)).reshape(-1)
    V = [a @ d.features for a, d in zip(alpha.reshape(P, n), datasets)]
    return [np.subtract(s * w, v, out=v) for w, v in zip(starts, V)]


@dataclass
class PartitionSpec:
    """Synthetic federated data for a model: K clients, sizes, and a ground truth."""

    sizes: list[int]
    model: ModelSpec  # its feature count, and labels that its kind trains on
    noise_std: float = 0.0
    skew: float = 0.0  # per-client feature-mean shift magnitude

    def __post_init__(self):
        if not self.sizes:
            raise ConfigurationError("sizes must list at least one client")
        if any(s < 1 for s in self.sizes):
            raise ConfigurationError("every client size must be >= 1")

    @property
    def n_clients(self) -> int:
        return len(self.sizes)


def make_synthetic(partition: PartitionSpec, seed: int) -> Dataset:
    """Deterministic synthetic population, client after client in row order;
    `split(partition.sizes)` gives the clients' datasets. The arrays are
    read-only, so no client can change another client's rows."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    p = partition.model.n_features
    w_star = rng.standard_normal(p)
    n_rows = sum(partition.sizes)
    X, y = np.empty((n_rows, p)), np.empty(n_rows)
    ends = np.cumsum(partition.sizes)[:-1]
    for rows, labels in zip(np.split(X, ends), np.split(y, ends)):
        shift = partition.skew * rng.standard_normal(p)
        rng.standard_normal(out=rows)
        rows += shift
        z = rows @ w_star
        if partition.model.kind == LOGISTIC:  # binary labels
            labels[:] = rng.random(len(labels)) < _sigmoid(z)
        else:
            labels[:] = z + partition.noise_std * rng.standard_normal(len(labels))
    return Dataset(X, y)
