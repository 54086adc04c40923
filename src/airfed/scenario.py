"""Flat `key = value` scenario files and their validated in-memory form.

Unknown keys are rejected (no silent defaults for misspellings), and so are
keys written where they cannot apply; every omitted key falls back to its
default in `_KEYS`. Every invalid file raises ScenarioError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    rounds: int
    seed: int
    loss_threshold: float | None


class ScenarioError(ConfigurationError):
    """Scenario file could not be parsed or validated."""


# A run keeps per-client state and streams; the bound also keeps the parser
# from building a size list of billions of entries for a mistyped count.
MAX_CLIENTS = 10**6


def _invalid(key: str, message: str) -> ScenarioError:
    return ScenarioError(f"invalid value for `{key}`: {message}")


def _number(kind, lo=None, hi=None, strict=False):
    """An int, or a finite float, within [lo, hi] ((lo, hi] if strict)."""

    def rule(key, text):
        try:
            v = kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise _invalid(key, f"expected {what}") from None
        if kind is float and not math.isfinite(v):
            raise _invalid(key, "expected a finite number")
        if lo is not None and (v <= lo if strict else v < lo):
            raise _invalid(key, f"must be {'>' if strict else '>='} {lo}")
        if hi is not None and v > hi:
            raise _invalid(key, f"must be <= {hi}")
        return v

    return rule


def _or(word, value, rule):
    """`word` stands for `value`; any other text goes to `rule`."""
    return lambda key, text: value if text == word else rule(key, text)


def _listed(kind, what):
    """Comma-separated values of `kind` as a tuple."""

    def rule(key, text):
        try:
            return tuple(kind(s) for s in text.split(","))
        except ValueError:
            raise _invalid(key, f"expected comma-separated {what}") from None

    return rule


def _choice(options):
    def rule(key, text):
        if text not in options:
            raise _invalid(key, f"must be one of {', '.join(options)}")
        return text

    return rule


def _flag(key, text):
    v = text.lower()
    if v not in ("true", "false", "on", "off", "1", "0"):
        raise _invalid(key, "expected a boolean")
    return v in ("true", "on", "1")


# every key: its default text and the rule that turns (key, text) into the
# key's value or raises a ScenarioError naming the key
_KEYS = {
    "seed": ("0", _number(int, lo=0)),
    "rounds": ("10", _number(int, lo=1)),
    "model": ("logistic", _choice(models.MODEL_KINDS)),
    "features": ("10", _number(int, lo=1)),
    "hidden": ("8", _number(int, lo=1)),
    "l2": ("0.0", _number(float, lo=0.0)),
    "clients": ("4", _number(int, lo=1, hi=MAX_CLIENTS)),
    "client_size": ("50", _number(int, lo=1)),
    "sizes": ("", _or("", None, _listed(int, "integers"))),
    "skew": ("0.0", _number(float, lo=0.0)),
    "label_noise": ("0.0", _number(float, lo=0.0)),
    "mu": ("0.1", _number(float, lo=0.0)),
    "batch": ("full", _or("full", "full", _number(int, lo=1))),
    "local_steps": ("1", _number(int, lo=1)),
    # clients always upload the pseudo-gradient; files may still say so
    "payload": ("gradients", _choice(("gradients",))),
    "period": ("1", _number(int, lo=1)),
    "deadline": ("none", _or("none", None, _number(float, lo=0.0))),
    "participation": ("1.0", _number(float, lo=0.0, hi=1, strict=True)),
    "selection": ("random", _choice(core.SELECTIONS)),
    "delay_mean": ("0.0", _number(float, lo=0.0)),
    "delay_jitter": ("0.0", _number(float, lo=0.0)),
    "sparsifier": ("none", _choice(comp_mod.SPARSIFIERS)),
    "tau": ("0.0", _number(float, lo=0.0)),
    "rho": ("1.0", _number(float, lo=0.0, hi=1, strict=True)),
    "quantizer": ("none", _choice(comp_mod.QUANTIZERS)),
    "error_feedback": ("false", _flag),
    "momentum": ("0.0", _number(float, lo=0.0)),
    "clip": ("none", _or("none", None, _number(float, lo=0.0, strict=True))),
    "warmup": ("", _or("", None, _listed(float, "fractions"))),
    "scheme": ("ideal-digital", _choice(ch_mod.SCHEMES)),
    "antennas": ("1", _number(int, lo=1)),
    "sigma": ("0.0", _number(float, lo=0.0)),
    "power_cap": ("1.0", _number(float, lo=0.0, strict=True)),
    "measurements": ("0", _number(int, lo=0)),
    "loss_threshold": ("none", _or("none", None, _number(float))),
}


def _when(key, *values):
    """(description, test) of a setting: `key` holds one of `values`."""
    return f"{key} = {' or '.join(values)}", lambda v: v[key] in values


_ANALOG = (ch_mod.OVER_THE_AIR, ch_mod.CS_OVER_THE_AIR)

# keys that mean something only where a test on the converted values holds
_RELEVANT_ONLY_WITH = {
    "hidden": _when("model", models.MLP),
    # logistic labels are Bernoulli draws, which read no noise
    "label_noise": _when("model", models.LINEAR, models.MLP),
    "client_size": ("no sizes list", lambda v: v["sizes"] is None),
    "tau": _when("sparsifier", comp_mod.SPARSIFIER_THRESHOLD),
    "measurements": _when("scheme", ch_mod.CS_OVER_THE_AIR),
    "rho": _when("sparsifier", comp_mod.SPARSIFIER_TOPK),
    "warmup": _when("sparsifier", comp_mod.SPARSIFIER_TOPK),
    "momentum": ("error_feedback = true", lambda v: v["error_feedback"]),
    "sigma": _when("scheme", *_ANALOG),
    "power_cap": _when("scheme", *_ANALOG),
    "antennas": (
        "scheme = over-the-air or cs-over-the-air, or selection = channel",
        lambda v: v["scheme"] in _ANALOG or v["selection"] == core.SELECT_CHANNEL,
    ),
    "delay_mean": ("a deadline", lambda v: v["deadline"] is not None),
    "delay_jitter": ("a deadline", lambda v: v["deadline"] is not None),
}


def _build(what: str, cls, *args, **kwargs):
    """cls(*args, **kwargs), its ConfigurationError reported as a ScenarioError."""
    try:
        return cls(*args, **kwargs)
    except ConfigurationError as exc:
        raise ScenarioError(f"invalid {what} configuration: {exc}") from None


def parse_scenario(text: str, seed: int | None = None) -> Scenario:
    """Parse UTF-8 `key = value` lines with `#` comments into a Scenario.
    A given `seed` replaces the file's seed and is checked like it."""
    written: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(f"line {lineno}: expected `key = value`")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ScenarioError(f"line {lineno}: unknown key `{key}`")
        if key in written:
            raise ScenarioError(f"line {lineno}: duplicate key `{key}`")
        written[key] = value.strip()
    if seed is not None:
        written["seed"] = str(seed)

    v = {k: rule(k, written.get(k, default)) for k, (default, rule) in _KEYS.items()}
    # only keys written in the file count, not their defaults
    for key, (setting, applies) in _RELEVANT_ONLY_WITH.items():
        if key in written and not applies(v):
            raise _invalid(key, f"only applies with {setting}")

    kind = v["model"]
    hidden = v["hidden"] if kind == models.MLP else 0
    model_spec = _build("model", models.ModelSpec, kind, v["features"], hidden, v["l2"])

    sizes = v["sizes"] or (v["client_size"],) * v["clients"]
    if len(sizes) != v["clients"]:
        raise _invalid("sizes", "must list one size per client")
    if min(sizes) < 1:
        raise _invalid("sizes", "every size must be >= 1")
    partition = _build(
        "partition",
        models.PartitionSpec,
        sizes=list(sizes),
        model=model_spec,
        noise_std=v["label_noise"],
        skew=v["skew"],
    )

    train_cfg = _build(
        "training", models.TrainConfig, v["mu"], v["batch"], v["local_steps"]
    )

    codec = _build(
        "codec",
        comp_mod.CodecSpec,
        sparsifier=v["sparsifier"],
        threshold=v["tau"],
        keep_fraction=v["rho"],
        quantizer=v["quantizer"],
        error_feedback=v["error_feedback"],
        momentum=v["momentum"],
        clip_norm=v["clip"],
        warmup=v["warmup"],
    )

    # `measurements` is 0 unless the scheme is cs-over-the-air (checked above)
    m = v["measurements"]
    if v["scheme"] == ch_mod.CS_OVER_THE_AIR and m < 1:
        raise _invalid("measurements", "required for cs-over-the-air")
    if m >= model_spec.dim:
        raise _invalid("measurements", "must be < model dimension (no compression achieved)")
    scheme = _build("transport", ch_mod.TransportScheme, v["scheme"], m or None)

    if v["period"] > v["rounds"]:
        raise _invalid("period", "must be <= rounds, or no round aggregates")
    round_cfg = _build(
        "round",
        core.RoundConfig,
        period=v["period"],
        deadline=v["deadline"],
        participation=v["participation"],
        selection=v["selection"],
        scheme=scheme,
        codec=codec,
        n_antennas=v["antennas"],
        noise_std=v["sigma"],
        power_cap=v["power_cap"],
        delay_mean=v["delay_mean"],
        delay_jitter=v["delay_jitter"],
    )

    return Scenario(
        model_spec, partition, train_cfg, round_cfg, v["rounds"], v["seed"], v["loss_threshold"]
    )


def load_scenario(path, seed: int | None = None) -> Scenario:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    return parse_scenario(text.removeprefix("\ufeff"), seed)  # drop a byte-order mark
