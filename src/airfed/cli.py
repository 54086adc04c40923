"""Command-line experiment runner.

    airfed run <scenario-file> [--out DIR] [--seed N] [--quiet]
    airfed compare <file1> <file2> ... [--out DIR] [--seed N] [--quiet]
    airfed validate <scenario-file> [--quiet]

Exit codes: 0 success, 1 usage/config error or a failed run, 2 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from . import core
from .budget import BudgetLedger, baseline_uses, communication_gain
from .errors import AirfedError, ProtocolError
from .scenario import Scenario, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_gain(gain: float) -> str:
    return "undefined" if math.isnan(gain) else _fmt(gain)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="airfed", description="Federated-learning-over-wireless simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, nargs in (("run", None), ("compare", "+"), ("validate", None)):
        p = sub.add_parser(name)
        p.add_argument("scenario", nargs=nargs or 1)
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--quiet", action="store_true")
    return parser


def _load(path: str, seed_override: int | None) -> Scenario:
    scenario = load_scenario(path)
    if seed_override is not None:
        scenario.seed = seed_override
        scenario.raw["seed"] = str(seed_override)
    return scenario


def write_rounds_csv(path: Path, records: list[core.RoundRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "round",
                "global_loss",
                "aggregation_error",
                "participants",
                "uplink_uses",
                "uplink_bits",
            ]
        )
        for r in records:
            writer.writerow(
                [
                    r.round_index,
                    _fmt(r.global_loss),
                    _fmt(r.aggregation_error),
                    ";".join(str(c) for c in r.participants),
                    r.uplink_uses,
                    r.uplink_bits,
                ]
            )


def write_events_csv(path: Path, records: list[core.RoundRecord]) -> None:
    """One row per round event; `kind` is the event text before its first ':'."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "kind", "detail"])
        for r in records:
            for event in r.events:
                kind, _, detail = event.partition(":")
                writer.writerow([r.round_index, kind, detail.strip()])


def write_summary(
    path: Path,
    scenario: Scenario,
    records: list[core.RoundRecord],
    ledger: BudgetLedger,
) -> None:
    final_loss = records[-1].global_loss if records else float("nan")
    base_uses = baseline_uses(
        [r.round_index for r in records],
        scenario.round_cfg.period,
        scenario.n_clients,
        scenario.dim,
    )
    gain = _fmt_gain(communication_gain(base_uses, ledger.total_uses))
    lines = [
        f"final_loss = {_fmt(final_loss)}",
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
    scenario = _load(args.scenario[0], args.seed)
    out = Path(args.out)
    try:
        records, ledger = core.run_training(scenario)
    except ProtocolError as exc:
        # a failed run leaves its finished rounds, but no summary
        write_round_files(out, exc.records, exc.ledger)
        raise
    write_round_files(out, records, ledger)
    write_summary(out / "summary.txt", scenario, records, ledger)
    if not args.quiet:
        print((out / "summary.txt").read_text(), end="")
    return EXIT_OK


def cmd_compare(args) -> int:
    scenarios = [_load(p, args.seed) for p in args.scenario]
    first = scenarios[0]
    for path, sc in zip(args.scenario[1:], scenarios[1:]):
        for key in Scenario.SHARED_KEYS:
            if sc.raw.get(key, "") != first.raw.get(key, ""):
                raise AirfedError(
                    f"scenario {path} differs from {args.scenario[0]} "
                    f"on shared key `{key}`"
                )
    threshold = first.loss_threshold
    rows = []
    first_uses = None
    for path, sc in zip(args.scenario, scenarios):
        records, ledger = core.run_training(sc)
        final_loss = records[-1].global_loss if records else float("nan")
        to_threshold = -1
        if threshold is not None:
            for r in records:
                if r.global_loss <= threshold:
                    to_threshold = r.round_index
                    break
        if first_uses is None:
            first_uses = ledger.total_uses
        gain = _fmt_gain(communication_gain(first_uses, ledger.total_uses))
        rows.append(
            [
                sc.round_cfg.scheme.kind,
                sc.round_cfg.codec.codec_id,
                _fmt(final_loss),
                to_threshold,
                ledger.total_uses,
                gain,
            ]
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "compare.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scheme", "codec", "final_loss", "rounds_to_threshold", "total_uses", "gain"]
        )
        writer.writerows(rows)
    if not args.quiet:
        print((out / "compare.csv").read_text(), end="")
    return EXIT_OK


def cmd_validate(args) -> int:
    _load(args.scenario[0], args.seed)
    if not args.quiet:
        print(f"{args.scenario[0]}: ok")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
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
