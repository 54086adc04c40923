"""airfed benchmark: `airfed run` on a fixed workload, in-process, timed.

    python3 perfbench/run.py --workload cs-recovery --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25     # every workload in turn

A run of the benchmark is a batch simulation with no arrival process: it
calls the `airfed run` entry point again and again on the workload's scenario
file, cycling over scenario seeds drawn from --seed, until --seconds have
passed and every drawn seed has run once. The first call is a warm-up and is
not timed. Every call's output files are checked, and a call repeated with
the same seed must write byte-identical files.

With --trace 0 it prints the end-to-end metrics, taken with only
`core.run_round` timed. With --trace 1 it alternates untraced and traced
calls on the same seed and prints the per-layer metrics of the traced ones
(see tracing.py) and the tracing overhead. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

The program is imported from `src/` of the checkout this file sits in; if it
is not there, the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_DIR = HERE / "workloads"
OUT_BASE = ROOT / ".perfbench-out"
OUTPUT_FILES = ("rounds.csv", "budget.csv", "summary.txt")

# host_probe's passes, and its time at the reference host speed the
# timings are scaled to
PROBE_PASSES = 2
PROBE_REF_S = 0.0015
# probes taken before and after each call, for its set-up and its tail
EDGE_PROBES = 3
# BLAS threads; at most nproc, and one keeps runs steady on a small shared host
BLAS_THREADS = 1

# workload -> distinct scenario seeds drawn per benchmark run. The quality
# metrics average over all of them, so they do not depend on host speed.
WORKLOADS = {
    "cs-recovery": 8,
    "ota-crowd": 12,
    "digital-dgc": 6,
}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "rounds_per_s": ("1/s", "higher"),
    "round_ms_p50": ("ms", "lower"),
    "round_ms_p90": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "final_loss": ("loss", "lower"),
    "agg_error_mean": ("norm", "lower"),
    "communication_gain": ("ratio", "higher"),
}

_STAT_UNITS = {"calls": "count", "fallbacks": "count", "support_size": "count"}


def per_layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    return "s" if stat.endswith("_s") else _STAT_UNITS.get(stat, "ratio")


def import_program():
    """airfed.cli from this checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import airfed.cli as cli
    except ImportError as exc:
        print(f"error: cannot import airfed from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: airfed was imported from {cli.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return cli


def machine_facts(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
    }


def host_probe(np):
    """A function that times a fixed numpy and Python kernel of about 2 ms
    that never calls airfed. On a shared host the speed of all code drifts
    by tens of percent from one second to the next. The untraced calls run
    the probe before every round, and each stretch of time is scaled by the
    probes taken next to it (see scaled_timings)."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((8, 40, 200))
    A = rng.standard_normal((200, 1000))
    V = rng.standard_normal((PROBE_PASSES, 1000))

    def probe() -> float:
        t0 = perf_counter()
        for v in V:
            w = np.zeros(200)
            for Xk in X:  # per-client small-array work
                w -= 1e-3 * (Xk.T @ (Xk @ w - 1.0))
            y = A @ v  # a projection and a small least-squares fit
            np.linalg.lstsq(A[:, :40], y, rcond=None)
            sorted(range(400), key=lambda i: -i)
        return perf_counter() - t0

    return probe


def read_cfg(path: Path) -> dict:
    kv = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    return kv


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(out: Path, kv: dict) -> tuple[list[str], dict]:
    """Problems found in one run's output files, and its quality figures.

    The expected values come from the scenario file, not from the program:
    the uncompressed baseline is K*d channel uses per scheduled round.
    """
    rounds = int(kv["rounds"])
    period = int(kv.get("period", "1"))
    scheduled = sum(1 for t in range(1, rounds + 1) if t % period == 0)
    baseline = scheduled * int(kv["clients"]) * int(kv["features"])
    rows = _rows(out / "rounds.csv")
    ledger = _rows(out / "budget.csv")
    summary = dict(
        line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines()
    )
    uses = [int(r["uplink_uses"]) for r in ledger]
    losses = [float(r["global_loss"]) for r in rows] + [float(summary["final_loss"])]

    problems = []
    if len(rows) != rounds or len(ledger) != rounds:
        problems.append(f"expected {rounds} rounds, got {len(rows)} and {len(ledger)}")
    if not all(math.isfinite(x) for x in losses):
        problems.append("a loss is not finite")
    if int(summary["baseline_uplink_uses"]) != baseline:
        problems.append(f"baseline uses {summary['baseline_uplink_uses']} != {baseline}")
    if not uses or sum(uses) == 0:
        problems.append("no uplink channel uses recorded")
    elif float(summary["communication_gain"]) != baseline / sum(uses):
        problems.append(
            f"communication_gain {summary['communication_gain']} != "
            f"{baseline} / {sum(uses)}"
        )
    if kv.get("scheme") == "cs-over-the-air":
        m = int(kv["measurements"])
        expected = [m if int(r["round"]) % period == 0 else 0 for r in ledger]
        if uses != expected:
            problems.append(f"a scheduled round did not use exactly m = {m} channel uses")
    quality = {
        "final_loss": losses[-1],
        "agg_error_mean": statistics.fmean(float(r["aggregation_error"]) for r in rows),
        "communication_gain": float(summary["communication_gain"]),
    }
    return problems, quality


def schedule(seeds: list[int], trace: bool):
    """(scenario seed, traced, timed) for each call: a warm-up, then the
    seeds in turn; with tracing, each seed untraced and then traced."""
    yield seeds[0], False, False
    k = 0
    while True:
        s = seeds[k % len(seeds)]
        yield s, False, True
        if trace:
            yield s, True, True
        k += 1


class Measurement:
    """Timings, layer figures and check results of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_bytes: dict[int, dict] = {}
        self.quality: dict[int, dict] = {}
        self.setup_s: list[float] = []
        self.run_s: list[float] = []
        self.rounds_per_s: list[float] = []
        self.round_ms: list[float] = []
        # as measured, without probe time and not scaled
        self.raw_run_s: list[float] = []
        self.traced_run_s: list[float] = []
        self.layers: list[dict] = []
        self.absent: set[str] = set()
        self.probe_s: list[float] = []

    def fail(self, seed: int, message: str) -> None:
        self.failed += 1
        self.problems.append(f"seed {seed}: {message}")


def scaled_timings(t0, t1, intervals, pre, post) -> dict:
    """Timings of one untraced call scaled to the reference host speed.

    `intervals` holds (probe time, start, end) per round; the probe ran just
    before the start. Each stretch of the call is divided by the host's
    slowdown over it: the slower of the probes on either side of it, over
    PROBE_REF_S. The set-up lies between `pre` (the median of the probes
    before the call) and the first round's probe, a round and the gap after
    it between its own probe and the next round's, and the tail after the
    last round between that round's probe and `post`. A burst of load from
    elsewhere on the host that slows a round mostly slows one of the probes
    next to it as well. Probe time is left out.
    """
    probes = [p for p, _, _ in intervals]
    after = probes[1:] + [statistics.median(post)]
    slowdown = [max(a, b) / PROBE_REF_S for a, b in zip(probes, after)]
    first_start = intervals[0][1]
    setup = (first_start - probes[0] - t0) / (max(statistics.median(pre), probes[0]) / PROBE_REF_S)
    round_s = [(end - start) / k for (_, start, end), k in zip(intervals, slowdown)]
    gaps = [
        (start - p - end) / k
        for (_, _, end), (p, start, _), k in zip(intervals, intervals[1:], slowdown)
    ]
    span = sum(round_s) + sum(gaps)
    tail = (t1 - intervals[-1][2]) / slowdown[-1]
    return {
        "setup_s": setup,
        "run_s": setup + span + tail,
        "rounds_per_s": len(intervals) / span,
        "round_ms": [1e3 * x for x in round_s],
        "raw_run_s": t1 - t0 - sum(probes),
    }


def call_once(cli, tracing, probe, m, kv, cfg, seed, out, traced, timed) -> None:
    """One `airfed run` call, its output check, and its timings."""
    m.attempted += 1
    rec = tracing.Recorder() if traced else None
    intervals: list[tuple[float, float, float]] = []
    hooks = tracing.layer_hooks(rec) if traced else tracing.round_clock(intervals, probe)
    argv = ["run", str(cfg), "--seed", str(seed), "--out", str(out), "--quiet"]
    try:
        pre = [probe() for _ in range(EDGE_PROBES)]
        with tracing.installed(hooks) as absent:
            t0 = perf_counter()
            code = cli.main(argv)
            t1 = perf_counter()
        post = [probe() for _ in range(EDGE_PROBES)]
        m.absent.update(absent)
        if code != 0:
            m.fail(seed, f"airfed run exited with code {code}")
            return
        problems, quality = check_outputs(out, kv)
        files = {name: (out / name).read_bytes() for name in OUTPUT_FILES}
    except Exception:  # a crashing call is a failed call; keep measuring
        m.fail(seed, traceback.format_exc(limit=3).strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)
        return
    finally:
        shutil.rmtree(out, ignore_errors=True)
    first = m.first_bytes.setdefault(seed, files)
    problems += [f"rerun wrote a different {n}" for n in OUTPUT_FILES if files[n] != first[n]]
    if problems:
        m.fail(seed, "; ".join(problems))
        return
    m.quality.setdefault(seed, quality)
    if not timed:
        return
    if traced:
        m.traced_run_s.append(t1 - t0)
        m.layers.append(tracing.layer_metrics(rec, m.absent))
        return
    if not intervals:
        m.fail(seed, "no core.run_round call was timed")
        return
    timings = scaled_timings(t0, t1, intervals, pre, post)
    m.probe_s.extend(pre + [p for p, _, _ in intervals] + post)
    m.setup_s.append(timings["setup_s"])
    m.run_s.append(timings["run_s"])
    m.rounds_per_s.append(timings["rounds_per_s"])
    m.round_ms.extend(timings["round_ms"])
    m.raw_run_s.append(timings["raw_run_s"])


def measure(cli, tracing, probe, workload: str, seed: int, seconds: float, trace: bool):
    cfg = WORKLOAD_DIR / f"{workload}.cfg"
    kv = read_cfg(cfg)
    draw = random.Random(seed)
    seeds = [draw.randrange(2**31) for _ in range(WORKLOADS[workload])]
    min_timed = 2 if trace else len(seeds)
    m = Measurement()
    OUT_BASE.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_BASE))
    try:
        deadline = perf_counter() + seconds
        timed = 0
        for i, (s, traced, is_timed) in enumerate(schedule(seeds, trace)):
            call_once(cli, tracing, probe, m, kv, cfg, s, scratch / str(i), traced, is_timed)
            timed += is_timed
            if perf_counter() >= deadline and timed >= min_timed and timed % (1 + trace) == 0:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            OUT_BASE.rmdir()
        except OSError:
            pass  # another benchmark run still uses it
    return m, seeds


def _median(values):
    return statistics.median(values) if values else None


def _spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def end_to_end_values(m: Measurement) -> dict:
    """Scaled timings of the untraced calls, memory, and quality."""
    quality = list(m.quality.values())

    def mean_of(key):
        return statistics.fmean(q[key] for q in quality) if quality else None

    # a p90 needs at least 10 samples beyond it
    p90 = statistics.quantiles(m.round_ms, n=10)[8] if len(m.round_ms) >= 100 else None
    return {
        "setup_s": _median(m.setup_s),
        "run_s": _median(m.run_s),
        "rounds_per_s": _median(m.rounds_per_s),
        "round_ms_p50": _median(m.round_ms),
        "round_ms_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_loss": mean_of("final_loss"),
        "agg_error_mean": mean_of("agg_error_mean"),
        "communication_gain": mean_of("communication_gain"),
    }


def per_layer_values(m: Measurement) -> dict:
    names = dict.fromkeys(name for run in m.layers for name in run)
    values = {name: _median([run[name] for run in m.layers if name in run]) for name in names}
    if m.traced_run_s and m.raw_run_s:
        values["trace.overhead_s"] = _median(m.traced_run_s) - _median(m.raw_run_s)
    return values


def run_workload(args) -> int:
    os.environ.update(
        {k: str(BLAS_THREADS) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    )
    cli = import_program()
    import numpy as np

    import tracing

    load_start = os.getloadavg()
    m, seeds = measure(cli, tracing, host_probe(np), args.workload, args.seed, args.seconds, bool(args.trace))
    facts = machine_facts(np)
    facts["loadavg_start"] = load_start
    facts["loadavg_end"] = os.getloadavg()

    if args.trace:
        values = per_layer_values(m)
        units = {name: per_layer_unit(name) for name in values}
    else:
        values = end_to_end_values(m)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
        if value is not None
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seeds": seeds,
        "timed_calls": len(m.run_s) + len(m.traced_run_s),
        "round_samples": len(m.round_ms),
        "call_run_s": [round(x, 4) for x in m.run_s],
        "call_raw_run_s": [round(x, 4) for x in m.raw_run_s],
        "probe_s": _median(m.probe_s),
        "probe_spread": _spread(m.probe_s),
        "failed_share": m.failed / m.attempted,
        "absent_hooks": sorted(m.absent),
        "problems": m.problems[:10],
        "machine": facts,
    }
    print(json.dumps(report))
    for name, metric in metrics.items():
        print(f"{args.workload:<12} {name:<50} {metric['value']:>16.8g} {metric['unit']}")
    correct = m.failed == 0 and len(metrics) == len(values)
    print(
        json.dumps(
            {"correct": correct, "attempted": m.attempted, "failed": m.failed, "metrics": metrics}
        )
    )
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another, so that each
    reports its own peak memory; prints one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
