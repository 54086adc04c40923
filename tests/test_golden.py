"""Golden outputs: the output files of `airfed run` on the benchmark workloads
and the example scenarios, each at one seed, against the files committed in
tests/golden/.

Integer and text cells must match exactly. The loss and error columns listed
in FLOAT_CELLS may move by RTOL relative, the last-ulp change a reordered
sum makes. Columns are compared by name, so an output may gain columns.

A change that moves outputs on purpose rewrites the files with

    PYTHONPATH=src python3 tests/test_golden.py --regen [CASE ...]

which rewrites the named cases (every case when none is named) and prints,
per file, the values that moved and the final loss before and after. A
change that must keep every output byte is checked against its parent with

    PYTHONPATH=src python3 tests/test_golden.py --against REV

which runs every case at seeds 7 and 11 with the parent's src and with this
tree, at one BLAS thread, and prints the cells that differ at all: per
moved column the number of moved cells, the first one, and for a float
column the largest relative change, and exits 1 when any column moved, so
a script can stop on it. REV is a directory that holds a checkout of the
parent, or else a git revision such as HEAD~1, whose src is extracted (`git
archive`) into a temporary directory.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = 7
CASES = {
    "cs-recovery": ROOT / "perfbench" / "workloads" / "cs-recovery.cfg",
    "ota-crowd": ROOT / "perfbench" / "workloads" / "ota-crowd.cfg",
    "digital-dgc": ROOT / "perfbench" / "workloads" / "digital-dgc.cfg",
    "baseline": ROOT / "scenarios" / "baseline.cfg",
    "cs_ota_demo": ROOT / "scenarios" / "cs_ota_demo.cfg",
    "ota_demo": ROOT / "scenarios" / "ota_demo.cfg",
    "channel_select": ROOT / "tests" / "scenarios" / "channel_select.cfg",
    "mlp_period": ROOT / "tests" / "scenarios" / "mlp_period.cfg",
}
CSV_FILES = ("rounds.csv", "budget.csv", "events.csv")
FLOAT_CELLS = {
    ("rounds.csv", "global_loss"),
    ("rounds.csv", "aggregation_error"),
    ("summary.txt", "final_loss"),
}
RTOL = 1e-12


def outputs(path: Path, seed: int = SEED) -> dict:
    """{file: {column: [cells]}} of one `airfed run`, as written (text)."""
    from airfed import cli

    with tempfile.TemporaryDirectory() as tmp:
        args = ["run", str(path), "--out", tmp, "--seed", str(seed), "--quiet"]
        assert cli.main(args) == 0
        out = {}
        for name in CSV_FILES:
            with open(Path(tmp) / name, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            out[name] = {col: [row[i] for row in rows] for i, col in enumerate(header)}
        summary = (Path(tmp) / "summary.txt").read_text().splitlines()
        out["summary.txt"] = {
            key: [value] for key, _, value in (line.partition(" = ") for line in summary)
        }
    return out


def relative_change(want: str, got: str) -> float:
    """|got − want| / |want| of two float cells as written: 0 when the text
    is equal, inf when it is not and either value is 0 or non-finite."""
    if want == got:
        return 0.0
    a, b = float(want), float(got)
    if a == 0 or not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / abs(a)


def _same(file: str, column: str, want: str, got: str, rtol: float) -> bool:
    if (file, column) not in FLOAT_CELLS:
        return want == got
    return relative_change(want, got) <= rtol


def moved(want: dict, got: dict, rtol: float = RTOL) -> list[str]:
    """One line per golden column whose cells differ beyond `rtol`
    (exactly, for integer and text columns), naming the first row; a float
    column's line also gives its largest relative change."""
    lines = []
    for file, columns in want.items():
        for column, cells in columns.items():
            new = got.get(file, {}).get(column)
            if new is None:
                lines.append(f"{file}:{column} is missing")
            elif len(new) != len(cells):
                lines.append(f"{file}:{column} has {len(new)} rows, golden {len(cells)}")
            else:
                rows = [
                    i for i, (a, b) in enumerate(zip(cells, new))
                    if not _same(file, column, a, b, rtol)
                ]
                if rows:
                    i = rows[0]
                    line = (
                        f"{file}:{column} differs in {len(rows)} of {len(cells)} rows, "
                        f"first row {i}: {cells[i]!r} -> {new[i]!r}"
                    )
                    if (file, column) in FLOAT_CELLS:
                        largest = max(map(relative_change, cells, new))
                        line += f", largest relative change {largest:.2g}"
                    lines.append(line)
    return lines


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name):
    want = json.loads(golden_path(name).read_text())
    assert moved(want, outputs(CASES[name])) == []


def outputs_at_blas_threads(
    name: str, threads: int, seed: int = SEED, src: Path = ROOT / "src"
) -> dict:
    """`outputs` of one case in a fresh process whose BLAS runs `threads`
    threads (the count is fixed when numpy loads), importing airfed from
    `src`."""
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import test_golden as g; "
        "print(json.dumps(g.outputs(g.CASES[sys.argv[2]], int(sys.argv[3]))))"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(GOLDEN_DIR.parent), name, str(seed)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_reruns_match_across_blas_thread_counts():
    # the block loss product X W^T sums in an order that depends on the
    # BLAS thread count, so reruns are byte-identical only at a fixed count;
    # every cell but the loss cells is identical at 1 and 2 threads, also
    # where local SGD steps with the Gram matrix X X^T (digital-dgc)
    loss = {("rounds.csv", "global_loss"), ("summary.txt", "final_loss")}
    for name in ("cs-recovery", "digital-dgc"):
        one, two = (outputs_at_blas_threads(name, n) for n in (1, 2))
        assert moved(one, two) == []
        for file, columns in one.items():
            for column, cells in columns.items():
                if (file, column) not in loss:
                    assert two[file][column] == cells, f"{name} {file}:{column}"


def test_moved_names_a_changed_cell():
    want = {"rounds.csv": {"global_loss": ["1.0", "2.0"], "participants": ["0;1", "1"]}}
    ulp = {"rounds.csv": {"global_loss": ["1.0", "2.0000000000000004"],
                          "participants": ["0;1", "1"], "new_column": ["x", "y"]}}
    assert moved(want, ulp) == []
    wrong = {"rounds.csv": {"global_loss": ["1.0", "2.1"], "participants": ["0;1", "2"]}}
    assert len(moved(want, wrong)) == 2
    assert moved(want, {"rounds.csv": {"participants": ["0;1", "1"]}}) == [
        "rounds.csv:global_loss is missing"
    ]


def test_relative_change_of_float_cells():
    assert relative_change("0.5", "0.5") == relative_change("nan", "nan") == 0.0
    assert relative_change("2.0", "2.0000000000000004") == 2.0**-52
    assert relative_change("-4.0", "-3.0") == 0.25
    for want, got in (("0.0", "1e-300"), ("1.0", "inf"), ("nan", "1.0"), ("1.0", "nan")):
        assert relative_change(want, got) == math.inf


def test_moved_gives_the_count_and_largest_change_of_a_float_column():
    want = {"rounds.csv": {"global_loss": ["1.0", "2.0", "4.0"], "round": ["1", "2", "3"]},
            "summary.txt": {"final_loss": ["4.0"]}}
    got = {"rounds.csv": {"global_loss": ["1.0", "2.0000000000000004", "4.000000000000004"],
                          "round": ["1", "2", "4"]},
           "summary.txt": {"final_loss": ["4.000000000000004"]}}
    assert moved(want, got, rtol=0.0) == [
        "rounds.csv:global_loss differs in 2 of 3 rows, first row 1: "
        "'2.0' -> '2.0000000000000004', largest relative change 1.1e-15",
        "rounds.csv:round differs in 1 of 3 rows, first row 2: '3' -> '4'",
        "summary.txt:final_loss differs in 1 of 1 rows, first row 0: "
        "'4.0' -> '4.000000000000004', largest relative change 1.1e-15",
    ]
    assert moved(want, got) == ["rounds.csv:round differs in 1 of 3 rows, first row 2: '3' -> '4'"]


def regen(names: list[str]) -> None:
    """Rewrite the golden files of the named cases and list, per file, what
    moved."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        target = golden_path(name)
        old = json.loads(target.read_text()) if target.exists() else None
        new = outputs(CASES[name])
        target.write_text(json.dumps(new, indent=0) + "\n")
        if old is None:
            print(f"{name}: new file")
            continue
        changes = moved(old, new, rtol=0.0)
        before = old["summary.txt"]["final_loss"][0]
        after = new["summary.txt"]["final_loss"][0]
        print(f"{name}: {len(changes)} columns moved; final_loss {before} -> {after}")
        for line in changes:
            print(f"  {line}")


def against(checkout: Path, seeds: tuple[int, ...] = (SEED, 11)) -> int:
    """Run every case at each seed with `checkout`/src and with this tree,
    each in its own process at one BLAS thread, list per case and seed the
    cells that differ at all (`moved` at rtol 0), and return the number of
    moved columns over all cases and seeds."""
    total = 0
    for name in sorted(CASES):
        for seed in seeds:
            old, new = (
                outputs_at_blas_threads(name, 1, seed, src)
                for src in (checkout.resolve() / "src", ROOT / "src")
            )
            changes = moved(old, new, rtol=0.0)
            print(f"{name} seed {seed}: {len(changes)} columns moved")
            for line in changes:
                print(f"  {line}")
            total += len(changes)
    return total


@contextmanager
def revision_checkout(revision: str):
    """A temporary directory that holds `src/` as committed at the git
    revision, removed on exit."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", revision, "src"],
        capture_output=True, check=True,
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        # extraction filters exist from Python 3.12, 3.11.4 and 3.10.12 on
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, **safe)
        yield Path(tmp)


def against_revision(where: str) -> int:
    """`against` a checkout directory, or the git revision `where` names."""
    if Path(where).is_dir():
        return against(Path(where))
    with revision_checkout(where) as checkout:
        return against(checkout)


def test_against_a_checkout_lists_what_moved(monkeypatch, capsys):
    monkeypatch.setattr(sys.modules[__name__], "CASES", {"baseline": CASES["baseline"]})
    assert against(ROOT, seeds=(SEED,)) == 0
    assert capsys.readouterr().out == f"baseline seed {SEED}: 0 columns moved\n"


def test_against_exits_1_when_a_column_moved(monkeypatch, capsys):
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "CASES", {"baseline": CASES["baseline"]})
    monkeypatch.setattr(module, "moved", lambda want, got, rtol: ["summary.txt:rounds moved"])
    assert main(["--against", str(ROOT)]) == 1
    assert capsys.readouterr().out == "".join(
        f"baseline seed {seed}: 1 columns moved\n  summary.txt:rounds moved\n"
        for seed in (SEED, 11)
    )


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs git and the repository's history",
)
def test_against_a_revision_runs_its_committed_src(monkeypatch):
    seen = []

    def record(checkout):
        files = sorted(p.relative_to(checkout).as_posix()
                       for p in checkout.rglob("*") if p.is_file())
        seen.append((checkout, {f: (checkout / f).read_bytes() for f in files}))

    monkeypatch.setattr(sys.modules[__name__], "against", record)
    against_revision("HEAD")
    [(checkout, files)] = seen
    committed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-tree", "-r", "--name-only", "HEAD", "src"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert sorted(files) == committed and "src/airfed/channel.py" in files
    for name in ("src/airfed/channel.py", "src/airfed/models.py"):
        shown = subprocess.run(
            ["git", "-C", str(ROOT), "show", f"HEAD:{name}"], capture_output=True, check=True
        ).stdout
        assert files[name] == shown
    assert not checkout.exists()  # the temporary checkout is gone


def test_regen_rewrites_only_the_named_cases(tmp_path, monkeypatch, capsys):
    committed = json.loads(golden_path("baseline").read_text())
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)
    stale = golden_path("ota_demo")
    stale.write_text("{}\n")
    regen(["baseline"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["baseline.json", "ota_demo.json"]
    assert stale.read_text() == "{}\n"
    assert moved(committed, json.loads(golden_path("baseline").read_text())) == []
    assert capsys.readouterr().out == "baseline: new file\n"


def main(argv: list[str]) -> int:
    """The script's exit status: 1 when `--against` finds a moved column or
    the arguments are not a usage below, else 0."""
    flag, *names = argv or [""]
    if flag == "--against" and len(names) == 1:
        return 1 if against_revision(names[0]) else 0
    if flag == "--regen" and set(names) <= set(CASES):
        regen(names or sorted(CASES))
        return 0
    print(
        "usage: PYTHONPATH=src python3 tests/test_golden.py --regen [CASE ...]\n"
        "       PYTHONPATH=src python3 tests/test_golden.py --against DIR|REV\n"
        f"cases: {' '.join(sorted(CASES))}",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
