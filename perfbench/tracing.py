"""Hooks installed on airfed's public functions from outside the program.

``installed`` replaces every binding of each target function in the airfed
modules (so a name imported with ``from x import y`` is wrapped too) and
puts the original objects back on exit, also when the run raises. A target
the program no longer has is skipped and reported by name.

Two hook sets use it:

* ``round_clock`` times each ``core.run_round`` call and a host-speed probe
  run just before it. It is the only hook of the untraced run, which needs
  per-round latency and the start of the loop.
* ``layer_hooks`` wraps one public function per layer with a span. A span's
  self time is its duration minus the duration of the hooked calls nested in
  it. Counts are taken at the same boundaries, so ratios are measured where
  the work happens.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from airfed.errors import SchemeError

# metric prefix -> the targets ("module:qualname" inside airfed) it covers
LAYERS = {
    "scenario.load_scenario": ("scenario:load_scenario",),
    "models.make_synthetic": ("models:make_synthetic",),
    "core.run_round": ("core:run_round",),
    "channel.sample_channel": ("channel:sample_channel",),
    "models.sgd_local_update": ("models:sgd_local_update",),
    "compression.encode": ("compression:encode",),
    "channel.solve_aggregation_weights": ("channel:solve_aggregation_weights",),
    "channel.transmit_round": ("channel:transmit_round",),
    "channel.measurement_matrix": ("channel:measurement_matrix",),
    "channel.omp_recover": ("channel:omp_recover",),
    "models.global_loss": ("models:global_loss",),
    "budget.BudgetLedger.record": ("budget:BudgetLedger.record",),
    # the three output writers of `airfed run`
    "cli.outputs": (
        "cli:write_rounds_csv",
        "cli:write_summary",
        "budget:BudgetLedger.to_csv",
    ),
}


def _resolve(target: str):
    """(owner, attribute, original) for "module:qualname", or None if absent."""
    module_name, _, qualname = target.partition(":")
    owner = sys.modules.get(f"airfed.{module_name}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def _bindings(owner, attr, original):
    """Every (namespace, name) in airfed that binds `original`."""
    found = [(owner, attr)]
    if isinstance(owner, type):
        return found
    for name, module in list(sys.modules.items()):
        if module is owner or not name.startswith("airfed."):
            continue
        found += [(module, k) for k, v in vars(module).items() if v is original]
    return found


@contextmanager
def installed(wrappers: dict):
    """Install `wrappers` ({target: make_replacement(original)}) for the
    duration of the block; yields the list of targets that were absent."""
    patches = []
    absent = []
    try:
        for target, make in wrappers.items():
            found = _resolve(target)
            if found is None:
                absent.append(target)
                continue
            owner, attr, original = found
            replacement = make(original)
            for namespace, name in _bindings(owner, attr, original):
                patches.append((namespace, name, original))
                setattr(namespace, name, replacement)
        yield absent
    finally:
        for namespace, name, original in reversed(patches):
            setattr(namespace, name, original)


def round_clock(intervals: list, probe) -> dict:
    """Hooks that run `probe()` just before each core.run_round call and
    append (probe's time, start, end) of the call."""

    def make(fn):
        def timed(*args, **kwargs):
            probe_s = probe()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                intervals.append((probe_s, t0, perf_counter()))

        return timed

    return {"core:run_round": make}


class Recorder:
    """Per-layer busy time, nested time, calls and counts of one run."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.nested = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.support = None  # union support of the current transmit_round
        self._open = []  # per open span: time of hooked calls nested so far

    def self_s(self, layer: str) -> float:
        return self.busy[layer] - self.nested[layer]

    def span(self, layer: str, fn, args, kwargs, before=None, after=None):
        entered = perf_counter()
        if before is not None:
            before(self, args, kwargs)
        self._open.append(0.0)
        t0 = perf_counter()
        result = error = None
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            error = exc
        self.busy[layer] += perf_counter() - t0
        self.nested[layer] += self._open.pop()
        self.calls[layer] += 1
        if after is not None:
            after(self, args, kwargs, result, error)
        if self._open:
            # the parent's nested time covers this call and the hooks' work
            # around it, so hook overhead lands in no layer's self time
            self._open[-1] += perf_counter() - entered
        if error is not None:
            raise error
        return result


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _union_support(rec, args, kwargs):
    entries = _arg(args, kwargs, 0, "entries")
    rec.support = np.unique(np.concatenate([np.flatnonzero(e.dense) for e in entries]))


def _omp_support(rec, args, kwargs, x, exc):
    if exc is not None:
        return
    got = np.flatnonzero(x)
    truth = rec.support if rec.support is not None else np.empty(0, dtype=np.intp)
    hits = np.intersect1d(got, truth).size
    rec.counts["omp.returned"] += got.size
    rec.counts["omp.true"] += truth.size
    rec.counts["omp.hits"] += hits


def _exclusions(rec, args, kwargs, result, exc):
    targets = _arg(args, kwargs, 1, "targets")
    rec.counts["solve.candidates"] += len(targets)
    if exc is None:
        rec.counts["solve.excluded"] += len(targets) - len(result[2])
    elif isinstance(exc, SchemeError):
        rec.counts["solve.excluded"] += len(targets)
        rec.counts["solve.fallbacks"] += 1


def _kept(rec, args, kwargs, payload, exc):
    if exc is None:
        rec.counts["encode.kept"] += payload.indices.size
        rec.counts["encode.dim"] += payload.d


def _survivors(rec, args, kwargs, record, exc):
    if exc is None:
        rec.counts["round.aggregated"] += len(record.participants)


_BEFORE = {"channel.transmit_round": _union_support}
_AFTER = {
    "channel.omp_recover": _omp_support,
    "channel.solve_aggregation_weights": _exclusions,
    "compression.encode": _kept,
    "core.run_round": _survivors,
}


def layer_hooks(rec: Recorder) -> dict:
    """Span hooks for every target in LAYERS, recording into `rec`."""
    hooks = {}
    for layer, targets in LAYERS.items():

        def make(fn, layer=layer):
            before, after = _BEFORE.get(layer), _AFTER.get(layer)

            def traced(*args, **kwargs):
                return rec.span(layer, fn, args, kwargs, before, after)

            return traced

        for target in targets:
            hooks[target] = make
    return hooks


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when the layer did no work (den = 0)."""
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, absent=()) -> dict:
    """Per-layer values of one traced run, keyed by metric name, leaving out
    the layers whose targets are all in `absent`."""
    c = rec.counts
    out = {f"{layer}.self_s": rec.self_s(layer) for layer in LAYERS}
    for layer in (
        "channel.omp_recover",
        "channel.measurement_matrix",
        "compression.encode",
        "models.sgd_local_update",
    ):
        out[f"{layer}.calls"] = rec.calls[layer]
    out["channel.omp_recover.support_size"] = _ratio(
        c["omp.returned"], rec.calls["channel.omp_recover"]
    )
    out["channel.omp_recover.support_recall"] = _ratio(c["omp.hits"], c["omp.true"])
    out["channel.omp_recover.support_precision"] = _ratio(c["omp.hits"], c["omp.returned"])
    out["channel.solve_aggregation_weights.excluded_ratio"] = _ratio(
        c["solve.excluded"], c["solve.candidates"]
    )
    out["channel.solve_aggregation_weights.fallbacks"] = c["solve.fallbacks"]
    out["compression.encode.kept_ratio"] = _ratio(c["encode.kept"], c["encode.dim"])
    # every selected client is encoded once, so encode calls count selections
    out["core.upload_survival"] = _ratio(
        c["round.aggregated"], rec.calls["compression.encode"]
    )
    missing = [layer for layer, targets in LAYERS.items() if set(targets) <= set(absent)]
    return {
        name: value
        for name, value in out.items()
        if not any(name.startswith(f"{layer}.") for layer in missing)
    }
