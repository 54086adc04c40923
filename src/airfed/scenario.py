"""Flat `key = value` scenario files and their validated in-memory form.

Unknown keys are rejected (no silent defaults for misspellings), and so are
keys written where they cannot apply; every omitted key falls back to the
documented default below. Every invalid file raises ScenarioError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import channel as ch_mod
from . import compression as comp_mod
from . import core, models
from .errors import ConfigurationError


@dataclass
class Scenario:
    model_spec: models.ModelSpec
    partition: models.PartitionSpec
    train_cfg: models.TrainConfig
    round_cfg: core.RoundConfig
    n_antennas: int
    noise_std: float
    power_cap: float
    rounds: int
    seed: int
    delay_mean: float
    delay_jitter: float
    loss_threshold: float | None
    raw: dict[str, str] = field(default_factory=dict)

    # keys that must agree across scenarios in a comparison
    SHARED_KEYS = (
        "model",
        "features",
        "hidden",
        "l2",
        "clients",
        "client_size",
        "sizes",
        "skew",
        "label_noise",
        "seed",
        "rounds",
        "mu",
        "batch",
        "local_steps",
    )

    @property
    def n_clients(self) -> int:
        return self.partition.n_clients

    @property
    def dim(self) -> int:
        return self.model_spec.dim


_DEFAULTS = {
    "seed": "0",
    "rounds": "10",
    "model": "logistic",
    "features": "10",
    "hidden": "8",
    "l2": "0.0",
    "clients": "4",
    "client_size": "50",
    "sizes": "",
    "skew": "0.0",
    "label_noise": "0.0",
    "mu": "0.1",
    "batch": "full",
    "local_steps": "1",
    "payload": "weights",
    "period": "1",
    "deadline": "none",
    "participation": "1.0",
    "selection": "random",
    "delay_mean": "0.0",
    "delay_jitter": "0.0",
    "sparsifier": "none",
    "tau": "0.0",
    "rho": "1.0",
    "quantizer": "none",
    "error_feedback": "false",
    "momentum": "0.0",
    "clip": "none",
    "warmup": "",
    "scheme": "ideal-digital",
    "antennas": "1",
    "sigma": "0.0",
    "power_cap": "1.0",
    "measurements": "0",
    "loss_threshold": "none",
}


class ScenarioError(ConfigurationError):
    """Scenario file could not be parsed or validated."""


# A run keeps per-client state and streams; the bound also keeps the parser
# from building a size list of billions of entries for a mistyped count.
MAX_CLIENTS = 10**6

# keys that mean something only under one setting of another key
_RELEVANT_ONLY_WITH = {
    "hidden": "model = mlp",
    "tau": "sparsifier = threshold",
    "measurements": "scheme = cs-over-the-air",
}


def _need(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ScenarioError(f"invalid value for `{key}`: {message}")


def _as_int(kv: dict, key: str, lo: int | None = None) -> int:
    try:
        v = int(kv[key])
    except ValueError:
        raise ScenarioError(f"invalid value for `{key}`: expected an integer") from None
    if lo is not None:
        _need(v >= lo, key, f"must be >= {lo}")
    return v


def _as_float(kv: dict, key: str, lo: float | None = None, strict: bool = False) -> float:
    try:
        v = float(kv[key])
    except ValueError:
        raise ScenarioError(f"invalid value for `{key}`: expected a number") from None
    _need(math.isfinite(v), key, "expected a finite number")
    if lo is not None:
        if strict:
            _need(v > lo, key, f"must be > {lo}")
        else:
            _need(v >= lo, key, f"must be >= {lo}")
    return v


def _as_bool(kv: dict, key: str) -> bool:
    v = kv[key].lower()
    _need(v in ("true", "false", "on", "off", "1", "0"), key, "expected a boolean")
    return v in ("true", "on", "1")


def _as_choice(kv: dict, key: str, choices: tuple[str, ...]) -> str:
    v = kv[key]
    _need(v in choices, key, f"must be one of {', '.join(choices)}")
    return v


def _build(what: str, cls, *args, **kwargs):
    """cls(*args, **kwargs), its ConfigurationError reported as a ScenarioError."""
    try:
        return cls(*args, **kwargs)
    except ConfigurationError as exc:
        raise ScenarioError(f"invalid {what} configuration: {exc}") from None


def parse_scenario(text: str) -> Scenario:
    """Parse UTF-8 `key = value` lines with `#` comments into a Scenario."""
    kv = dict(_DEFAULTS)
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(f"line {lineno}: expected `key = value`")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _DEFAULTS:
            raise ScenarioError(f"line {lineno}: unknown key `{key}`")
        if key in raw:
            raise ScenarioError(f"line {lineno}: duplicate key `{key}`")
        kv[key] = value
        raw[key] = value

    seed = _as_int(kv, "seed", lo=0)
    rounds = _as_int(kv, "rounds", lo=0)
    kind = _as_choice(kv, "model", (models.LINEAR, models.LOGISTIC, models.MLP))
    sparsifier = _as_choice(
        kv,
        "sparsifier",
        (
            comp_mod.SPARSIFIER_NONE,
            comp_mod.SPARSIFIER_THRESHOLD,
            comp_mod.SPARSIFIER_TOPK,
        ),
    )
    scheme_kind = _as_choice(kv, "scheme", ch_mod.SCHEMES)
    # only keys written in the file count, not their defaults
    active = {f"model = {kind}", f"sparsifier = {sparsifier}", f"scheme = {scheme_kind}"}
    for key, setting in _RELEVANT_ONLY_WITH.items():
        _need(key not in raw or setting in active, key, f"only applies with {setting}")

    p = _as_int(kv, "features", lo=1)
    hidden = _as_int(kv, "hidden", lo=1)
    l2 = _as_float(kv, "l2", lo=0.0)
    dim = models.ModelSpec.mlp_dim(p, hidden) if kind == models.MLP else p
    model_spec = _build(
        "model", models.ModelSpec, kind, dim, hidden if kind == models.MLP else 0, l2
    )

    n_clients = _as_int(kv, "clients", lo=1)
    _need(n_clients <= MAX_CLIENTS, "clients", f"must be <= {MAX_CLIENTS}")
    if kv["sizes"]:
        try:
            sizes = [int(s) for s in kv["sizes"].split(",")]
        except ValueError:
            raise ScenarioError(
                "invalid value for `sizes`: expected comma-separated integers"
            ) from None
        _need(len(sizes) == n_clients, "sizes", "must list one size per client")
        _need(all(s >= 1 for s in sizes), "sizes", "every size must be >= 1")
    else:
        sizes = [_as_int(kv, "client_size", lo=1)] * n_clients
    partition = _build(
        "partition",
        models.PartitionSpec,
        n_clients=n_clients,
        sizes=sizes,
        n_features=p,
        label_kind="binary" if kind == models.LOGISTIC else "real",
        noise_std=_as_float(kv, "label_noise", lo=0.0),
        skew=_as_float(kv, "skew", lo=0.0),
    )

    mu = _as_float(kv, "mu", lo=0.0)
    batch: int | str = kv["batch"]
    if batch != "full":
        batch = _as_int(kv, "batch", lo=1)
    train_cfg = _build(
        "training",
        models.TrainConfig,
        step_size=mu,
        batch_size=batch,
        local_steps=_as_int(kv, "local_steps", lo=1),
    )

    warmup = None
    if kv["warmup"]:
        try:
            warmup = tuple(float(s) for s in kv["warmup"].split(","))
        except ValueError:
            raise ScenarioError(
                "invalid value for `warmup`: expected comma-separated fractions"
            ) from None
    clip = None if kv["clip"] == "none" else _as_float(kv, "clip", lo=0.0, strict=True)
    rho = _as_float(kv, "rho", lo=0.0, strict=True)
    _need(rho <= 1.0, "rho", "must be <= 1")
    codec = _build(
        "codec",
        comp_mod.CodecSpec,
        sparsifier=sparsifier,
        threshold=_as_float(kv, "tau", lo=0.0),
        keep_fraction=rho,
        quantizer=_as_choice(
            kv,
            "quantizer",
            (
                comp_mod.QUANTIZER_NONE,
                comp_mod.QUANTIZER_BINARY,
                comp_mod.QUANTIZER_THREE,
                comp_mod.QUANTIZER_FOUR,
            ),
        ),
        error_feedback=_as_bool(kv, "error_feedback"),
        momentum=_as_float(kv, "momentum", lo=0.0),
        clip_norm=clip,
        warmup=warmup,
    )

    measurements = _as_int(kv, "measurements", lo=0)
    if scheme_kind == ch_mod.CS_OVER_THE_AIR:
        _need(measurements >= 1, "measurements", "required for cs-over-the-air")
        _need(
            measurements < dim,
            "measurements",
            "must be < model dimension (no compression achieved)",
        )
    scheme = _build(
        "transport",
        ch_mod.TransportScheme,
        scheme_kind,
        measurements if scheme_kind == ch_mod.CS_OVER_THE_AIR else None,
    )

    deadline = (
        None if kv["deadline"] == "none" else _as_float(kv, "deadline", lo=0.0)
    )
    participation = _as_float(kv, "participation", lo=0.0, strict=True)
    _need(participation <= 1.0, "participation", "must be <= 1")
    round_cfg = _build(
        "round",
        core.RoundConfig,
        payload_mode=_as_choice(
            kv, "payload", (core.PAYLOAD_WEIGHTS, core.PAYLOAD_GRADIENTS)
        ),
        period=_as_int(kv, "period", lo=1),
        deadline=deadline,
        participation=participation,
        selection=_as_choice(kv, "selection", (core.SELECT_RANDOM, core.SELECT_CHANNEL)),
        scheme=scheme,
        codec=codec,
    )

    loss_threshold = (
        None if kv["loss_threshold"] == "none" else _as_float(kv, "loss_threshold")
    )

    return Scenario(
        model_spec=model_spec,
        partition=partition,
        train_cfg=train_cfg,
        round_cfg=round_cfg,
        n_antennas=_as_int(kv, "antennas", lo=1),
        noise_std=_as_float(kv, "sigma", lo=0.0),
        power_cap=_as_float(kv, "power_cap", lo=0.0, strict=True),
        rounds=rounds,
        seed=seed,
        delay_mean=_as_float(kv, "delay_mean", lo=0.0),
        delay_jitter=_as_float(kv, "delay_jitter", lo=0.0),
        loss_threshold=loss_threshold,
        raw=raw,
    )


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())
