"""Command-line experiment runner.

    airfed run <scenario-file> [--out DIR] [--seed N] [--quiet]
    airfed compare <file1> <file2> ... [--out DIR] [--seed N] [--quiet]
    airfed validate <scenario-file> [--quiet]

Exit codes: 0 success, 1 usage/config error or a failed run, 2 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import core
from .budget import BudgetLedger, baseline_uses, communication_gain, write_csv
from .errors import AirfedError, ProtocolError
from .scenario import Scenario, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_gain(gain: float) -> str:
    return "undefined" if math.isnan(gain) else _fmt(gain)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airfed", description="Federated-learning-over-wireless simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, nargs in (("run", None), ("compare", "+"), ("validate", None)):
        p = sub.add_parser(name)
        p.add_argument("scenario", nargs=nargs or 1)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--quiet", action="store_true")
    return parser


# rounds.csv: one (header, value of a RoundRecord) pair per column, in order
ROUNDS_COLUMNS = (
    ("round", lambda r: r.round_index),
    ("global_loss", lambda r: _fmt(r.global_loss)),
    ("aggregation_error", lambda r: _fmt(r.aggregation_error)),
    ("participants", lambda r: core.format_ids(r.participants)),
    ("uplink_uses", lambda r: r.uplink_uses),
    ("uplink_bits", lambda r: r.uplink_bits),
)


def write_rounds_csv(path: Path, records: list[core.RoundRecord]) -> None:
    header = [h for h, _ in ROUNDS_COLUMNS]
    write_csv(path, header, ([value(r) for _, value in ROUNDS_COLUMNS] for r in records))


def write_events_csv(path: Path, records: list[core.RoundRecord]) -> None:
    """One row per recorded (kind, detail) event, in round order."""
    rows = ((r.round_index, *event) for r in records for event in r.events)
    write_csv(path, ["round", "kind", "detail"], rows)


def write_summary(
    path: Path,
    scenario: Scenario,
    records: list[core.RoundRecord],
    ledger: BudgetLedger,
) -> None:
    base_uses = baseline_uses(
        [r.round_index for r in records],
        scenario.round_cfg.period,
        scenario.partition.n_clients,
        scenario.model_spec.dim,
    )
    gain = _fmt_gain(communication_gain(base_uses, ledger.total_uses))
    lines = [
        f"final_loss = {_fmt(records[-1].global_loss)}",
        f"rounds = {len(records)}",
        f"total_uplink_uses = {ledger.total_uses}",
        f"total_uplink_bits = {ledger.total_uplink_bits}",
        f"total_downlink_bits = {ledger.total_downlink_bits}",
        f"baseline_uplink_uses = {base_uses}",
        f"communication_gain = {gain}",
    ]
    path.write_text("\n".join(lines) + "\n")


def write_round_files(
    out: Path, records: list[core.RoundRecord], ledger: BudgetLedger
) -> None:
    """rounds.csv, budget.csv and events.csv of the given rounds."""
    out.mkdir(parents=True, exist_ok=True)
    write_rounds_csv(out / "rounds.csv", records)
    ledger.to_csv(out / "budget.csv")
    write_events_csv(out / "events.csv", records)


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario[0], args.seed)
    out = Path(args.out)
    try:
        records, ledger = core.run_training(scenario)
    except ProtocolError as exc:
        # a failed run leaves its finished rounds, but no summary
        write_round_files(out, exc.records, core.ledger_of(exc.records))
        raise
    write_round_files(out, records, ledger)
    write_summary(out / "summary.txt", scenario, records, ledger)
    if not args.quiet:
        print((out / "summary.txt").read_text(), end="")
    return EXIT_OK


def cmd_compare(args) -> int:
    scenarios = [load_scenario(p, args.seed) for p in args.scenario]
    first = scenarios[0]
    # the parsed problem must agree, however each file spells it
    for path, sc in zip(args.scenario[1:], scenarios[1:]):
        for name in (
            "model_spec", "partition", "train_cfg", "rounds", "seed", "loss_threshold"
        ):
            if getattr(sc, name) != getattr(first, name):
                raise AirfedError(
                    f"scenario {path} differs from {args.scenario[0]} in `{name}`"
                )
    threshold = first.loss_threshold
    rows = []
    first_uses = None
    for path, sc in zip(args.scenario, scenarios):
        records, ledger = core.run_training(sc)
        reached = (
            r.round_index for r in records
            if threshold is not None and r.global_loss <= threshold
        )
        if first_uses is None:
            first_uses = ledger.total_uses
        gain = _fmt_gain(communication_gain(first_uses, ledger.total_uses))
        rows.append(
            [
                sc.round_cfg.scheme.kind,
                sc.round_cfg.codec.codec_id,
                _fmt(records[-1].global_loss),
                next(reached, -1),
                ledger.total_uses,
                gain,
            ]
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ["scheme", "codec", "final_loss", "rounds_to_threshold", "total_uses", "gain"]
    write_csv(out / "compare.csv", header, rows)
    if not args.quiet:
        print((out / "compare.csv").read_text(), end="")
    return EXIT_OK


def cmd_validate(args) -> int:
    load_scenario(args.scenario[0], args.seed)
    if not args.quiet:
        print(f"{args.scenario[0]}: ok")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        return cmd_validate(args)
    except AirfedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
