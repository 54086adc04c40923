"""Self-tests of the benchmark harness on a tiny scenario.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import airfed.cli as cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

# 5 clients, 3 selected per scheduled round, rounds 2 and 4 scheduled
TINY = """\
seed = 3
rounds = 4
period = 2
model = logistic
features = 30
clients = 5
client_size = 10
participation = 0.6
payload = gradients
sparsifier = topk
rho = 0.1
error_feedback = true
scheme = cs-over-the-air
measurements = 10
antennas = 4
sigma = 0.01
power_cap = 1e6
"""
SELECTED = 2 * 3


def _all_bindings():
    """Every (namespace, name, object) that a layer hook may replace."""
    found = []
    for targets in tracing.LAYERS.values():
        for target in targets:
            owner, attr, original = tracing._resolve(target)
            found += [(ns, n, original) for ns, n in tracing._bindings(owner, attr, original)]
    return found


@pytest.fixture
def tiny(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    return cfg


def _traced_run(cfg, out):
    rec = tracing.Recorder()
    with tracing.installed(tracing.layer_hooks(rec)) as absent:
        assert cli.main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert absent == []
    return rec


def test_encode_calls_equal_selected_clients(tiny, tmp_path):
    rec = _traced_run(tiny, tmp_path / "out")
    assert rec.calls["compression.encode"] == SELECTED
    assert rec.calls["models.sgd_local_update"] == SELECTED + 2 * 5  # + off-schedule
    assert rec.calls["channel.omp_recover"] == 2
    assert rec.calls["core.run_round"] == 4


def test_self_times_nonnegative_and_children_within_parent(tiny, tmp_path):
    rec = _traced_run(tiny, tmp_path / "out")
    assert all(rec.self_s(layer) >= 0 for layer in tracing.LAYERS)
    children = (
        "channel.sample_channel",
        "models.sgd_local_update",
        "compression.encode",
        "channel.solve_aggregation_weights",
        "channel.transmit_round",
        "models.global_loss",
    )
    assert sum(rec.busy[c] for c in children) <= rec.busy["core.run_round"]
    recovery = ("channel.omp_recover", "channel.measurement_matrix")
    assert sum(rec.busy[c] for c in recovery) <= rec.busy["channel.transmit_round"]
    # self times under one round partition it, less the hooks' own cost
    in_round = ("core.run_round", *children, *recovery)
    assert sum(rec.self_s(layer) for layer in in_round) <= rec.busy["core.run_round"]


def test_hooks_restored_after_run_and_after_error(tiny, tmp_path):
    before = _all_bindings()
    load_scenario = cli.load_scenario
    _traced_run(tiny, tmp_path / "out")
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.layer_hooks(tracing.Recorder())):
            assert cli.load_scenario is not load_scenario  # `from` imports are hooked too
            raise RuntimeError("run failed")
    for namespace, name, original in before:
        assert getattr(namespace, name) is original


def test_absent_target_is_reported_and_its_metrics_dropped():
    with tracing.installed({"channel:no_such_function": lambda fn: fn}) as absent:
        pass
    assert absent == ["channel:no_such_function"]
    values = tracing.layer_metrics(tracing.Recorder(), absent=["channel:omp_recover"])
    assert not any(name.startswith("channel.omp_recover.") for name in values)
    assert "channel.transmit_round.self_s" in values


def test_output_check_catches_a_wrong_gain(tiny, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", str(tiny), "--out", str(out), "--quiet"]) == 0
    kv = run.read_cfg(tiny)
    assert run.check_outputs(out, kv)[0] == []
    summary = out / "summary.txt"
    summary.write_text(summary.read_text().replace("communication_gain = ", "communication_gain = 1"))
    assert any("communication_gain" in p for p in run.check_outputs(out, kv)[0])


def _call(p):
    """(t1, intervals) of a call with a 1 s set-up, two rounds of 2 s with a
    0.5 s gap and a 0.25 s tail, whose probes before each round take p."""
    intervals = [(p, 1 + p, 3 + p), (p, 3.5 + 2 * p, 5.5 + 2 * p)]
    return 5.75 + 2 * p, intervals


def test_scaled_timings_divide_each_stretch_by_its_slowdown():
    ref = run.PROBE_REF_S
    t1, intervals = _call(ref)
    at_ref = run.scaled_timings(0.0, t1, intervals, [ref] * 3, [ref] * 3)
    assert at_ref["setup_s"] == pytest.approx(1)
    assert at_ref["run_s"] == pytest.approx(5.75)
    assert at_ref["raw_run_s"] == pytest.approx(5.75)
    assert at_ref["rounds_per_s"] == pytest.approx(2 / 4.5)
    assert at_ref["round_ms"] == pytest.approx([2000, 2000])
    # a host twice as slow in the probes halves every scaled timing
    t1, intervals = _call(2 * ref)
    halved = run.scaled_timings(0.0, t1, intervals, [2 * ref] * 3, [2 * ref] * 3)
    assert halved["setup_s"] == pytest.approx(0.5)
    assert halved["run_s"] == pytest.approx(5.75 / 2)
    assert halved["raw_run_s"] == pytest.approx(5.75)
    assert halved["rounds_per_s"] == pytest.approx(2 / 2.25)
    assert halved["round_ms"] == pytest.approx([1000, 1000])
    # a round is scaled by the slower of the probes before and after it
    intervals = [(ref, 1 + ref, 3 + ref), (2 * ref, 3.5 + 3 * ref, 5.5 + 3 * ref)]
    mixed = run.scaled_timings(0.0, 5.75 + 3 * ref, intervals, [ref] * 3, [4 * ref] * 3)
    assert mixed["setup_s"] == pytest.approx(1)
    assert mixed["round_ms"] == pytest.approx([1000, 500])
    assert mixed["rounds_per_s"] == pytest.approx(2 / (1 + 0.25 + 0.5))
    assert mixed["run_s"] == pytest.approx(1 + 1.75 + 0.25 / 4)
