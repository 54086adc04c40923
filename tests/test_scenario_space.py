"""Property test over the scenario space: every consistent file runs, and its
output files agree with each other.

`scenario_files` draws a value for every key of `scenario._KEYS` and writes
the keys that `_RELEVANT_ONLY_WITH` lets apply, so each file is one a user
could write. A key without an entry in `SPACE` fails the strategy. Sizes stay
small (at most 6 features and 6 clients, 1 to 3 rounds, m < d), so 150 files
run twice each in about 2.5 s. `cli.main` reports an AirfedError as exit 1
and lets any other exception escape; no file drawn here diverges, so each
must exit 0. Some of them send nothing (every participant misses the
deadline, or the threshold keeps no entry), and their summary reads
`communication_gain = undefined`.

Two metamorphic relations run on the same strategy: a file that writes the
default text of some keys, where their `_RELEVANT_ONLY_WITH` rule lets them
apply, writes the same output files as the file without them; and so does
`period = 1` against no `period`.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from airfed import channel, cli, compression, core, models
from airfed.scenario import _KEYS, _RELEVANT_ONLY_WITH

OUTPUT_FILES = ("rounds.csv", "budget.csv", "events.csv", "summary.txt")


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def grid(lo, hi, first=0):
    """lo + (hi - lo) * i / 100 for i from `first` to 100, as text: values
    spread over the range, where st.floats crowds them at its bounds and
    a deadline rarely falls inside the spread of the delays."""
    return st.integers(first, 100).map(lambda i: repr(lo + (hi - lo) * i / 100))


def fractions():
    return grid(0, 1, first=1)


def dim(texts):
    """The parameter dimension of the model the drawn texts describe."""
    p, h = int(texts["features"]), int(texts["hidden"])
    return h * p + 2 * h + 1 if texts["model"] == models.MLP else p


# every key's values as file text; a function takes the texts drawn for the
# keys before it in `_KEYS`
SPACE = {
    "seed": ints(0, 2**16),
    "rounds": ints(1, 3),
    "model": st.sampled_from(models.MODEL_KINDS),
    "features": ints(1, 6),
    "hidden": ints(1, 3),
    "l2": grid(0, 0.1),
    "clients": ints(1, 6),
    "client_size": ints(1, 8),
    "sizes": lambda t: st.one_of(
        st.just(""),
        st.lists(ints(1, 8), min_size=int(t["clients"]), max_size=int(t["clients"]))
        .map(",".join),
    ),
    "skew": grid(0, 1),
    "label_noise": grid(0, 0.5),
    "mu": grid(0, 0.5),
    "batch": st.one_of(st.just("full"), ints(1, 4)),
    "local_steps": ints(1, 2),
    "payload": st.just("gradients"),
    "period": lambda t: ints(1, min(3, int(t["rounds"]))),
    "deadline": st.one_of(st.just("none"), grid(0, 1)),
    "participation": st.one_of(st.just("1"), fractions()),
    "selection": st.sampled_from(core.SELECTIONS),
    "delay_mean": grid(0, 1),
    "delay_jitter": grid(0, 1),
    "sparsifier": st.sampled_from(compression.SPARSIFIERS),
    "tau": grid(0, 1),
    "rho": fractions(),
    "quantizer": st.sampled_from(compression.QUANTIZERS),
    "error_feedback": st.sampled_from(["true", "false"]),
    "momentum": grid(0, 0.9),
    "clip": st.one_of(st.just("none"), grid(0, 10, first=1)),
    "warmup": st.lists(fractions(), min_size=1, max_size=3).map(",".join),
    # the compressed scheme needs 1 <= m < d
    "scheme": lambda t: st.sampled_from(
        [s for s in channel.SCHEMES if dim(t) > 1 or s != channel.CS_OVER_THE_AIR]
    ),
    "antennas": ints(1, 4),
    "sigma": grid(0, 1),
    "power_cap": grid(0, 10, first=1),
    "measurements": lambda t: ints(1, max(1, dim(t) - 1)),
    "loss_threshold": st.one_of(st.just("none"), grid(-10, 10)),
}


def draw_texts(draw, defaulted=frozenset()) -> dict[str, str]:
    """A text for every key of `_KEYS`: its default text for the keys in
    `defaulted`, and a draw from `SPACE` for the others."""
    texts = {}
    for key in _KEYS:  # a KeyError here: a scenario key with no strategy
        space = SPACE[key]
        if key in defaulted:
            texts[key] = _KEYS[key][0]
        else:
            texts[key] = draw(space(texts) if callable(space) else space)
    return texts


def file_text(texts: dict[str, str], omitted=frozenset()) -> str:
    """The file that writes each key of `texts` whose `_RELEVANT_ONLY_WITH`
    rule holds for the texts' values, save the `omitted` keys."""
    values = {key: _KEYS[key][1](key, text) for key, text in texts.items()}
    return "".join(
        f"{key} = {text}\n"
        for key, text in texts.items()
        if key not in omitted
        and (key not in _RELEVANT_ONLY_WITH or _RELEVANT_ONLY_WITH[key][1](values))
    )


@st.composite
def scenario_files(draw) -> str:
    return file_text(draw_texts(draw))


@st.composite
def default_pairs(draw, keys=None) -> tuple[str, str]:
    """A file that writes the default text of `keys` (drawn when None) where
    they apply, and the same file without them. Omitted keys take their
    defaults, so both files give each key the same value."""
    if keys is None:
        keys = draw(st.sets(st.sampled_from(list(_KEYS)), min_size=1))
    texts = draw_texts(draw, keys)
    return file_text(texts), file_text(texts, omitted=keys)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def outcome(text: str, out: Path) -> tuple[int, dict[str, bytes]]:
    """The exit code of `airfed run` on the text and the output files it
    wrote. `cli.main` turns an AirfedError into exit 1, so any other
    exception escapes this call."""
    out.mkdir()
    (out / "s.cfg").write_text(text)
    code = cli.main(["run", str(out / "s.cfg"), "--out", str(out), "--quiet"])
    return code, {
        name: (out / name).read_bytes() for name in OUTPUT_FILES if (out / name).exists()
    }


def run(text: str, out: Path) -> dict[str, bytes]:
    """The output files of a run on the text, which must exit 0."""
    code, files = outcome(text, out)
    assert code == 0 and files.keys() == set(OUTPUT_FILES)
    return files


def test_every_scenario_key_has_a_strategy():
    assert SPACE.keys() == _KEYS.keys()


# every round has deadline misses, and each also an exclusion or a fallback
MISSES_AND_EXCLUSIONS = """\
seed = 1
rounds = 3
model = linear
features = 3
clients = 6
client_size = 4
deadline = 1.0
delay_mean = 1.0
delay_jitter = 0.5
scheme = over-the-air
antennas = 2
power_cap = 0.5
"""


@given(scenario_files())
@example(MISSES_AND_EXCLUSIONS)
@settings(max_examples=150, deadline=None)
def test_consistent_files_run_and_their_outputs_agree(tmp_path_factory, text):
    base = tmp_path_factory.mktemp("run")
    first = run(text, base / "a")
    assert run(text, base / "b") == first, "a rerun wrote different bytes"

    rounds = read_csv(base / "a" / "rounds.csv")
    budget = read_csv(base / "a" / "budget.csv")
    summary = dict(
        line.split(" = ") for line in first["summary.txt"].decode().splitlines()
    )
    assert len(rounds) == len(budget) == int(summary["rounds"])
    for column in ("uplink_uses", "uplink_bits", "downlink_bits"):
        total = sum(int(row[column]) for row in budget)
        assert total == int(summary[f"total_{column}"]), column
    for r, b in zip(rounds, budget):
        assert (r["round"], r["uplink_uses"], r["uplink_bits"]) == (
            b["round"], b["uplink_uses"], b["uplink_bits"]
        )

    participants = {r["round"]: set(filter(None, r["participants"].split(";")))
                    for r in rounds}
    for event in read_csv(base / "a" / "events.csv"):
        if event["kind"] in ("excluded", "deadline-miss"):
            left_out = set(event["detail"].split(";"))
            assert not left_out & participants[event["round"]], event

    uses, base_uses = int(summary["total_uplink_uses"]), int(summary["baseline_uplink_uses"])
    gain = summary["communication_gain"]
    assert (gain == "undefined") if uses == 0 else (float(gain) == base_uses / uses)
    assert math.isfinite(float(summary["final_loss"]))


# A default is the value of an omitted key, so writing it changes nothing: not
# the parse, not a draw, not a byte of output. Defaults make bigger runs (10
# rounds, 10 features, 4 clients of 50 rows), and some make an invalid file
# (`measurements = 0` with the compressed scheme), which must fail alike.
@given(default_pairs())
@settings(max_examples=150, deadline=None)
def test_writing_a_default_changes_no_output(tmp_path_factory, pair):
    with_defaults, without = pair
    assume(with_defaults != without)  # some chosen key applies to the file
    base = tmp_path_factory.mktemp("defaults")
    assert outcome(with_defaults, base / "a") == outcome(without, base / "b")


@given(default_pairs(keys={"period"}))
@settings(max_examples=60, deadline=None)
def test_period_one_is_no_period(tmp_path_factory, pair):
    with_period, without = pair
    assert "period = 1\n" in with_period and "period" not in without
    base = tmp_path_factory.mktemp("period")
    assert run(with_period, base / "a") == run(without, base / "b")
