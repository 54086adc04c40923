"""Append-only communication ledger, the uncompressed baseline, and the
uplink-overhead gain metric."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import AirfedError


class LedgerEntry(NamedTuple):  # budget.csv's columns, in order; round_index is `round`
    round_index: int
    scheme: str
    uplink_uses: int
    uplink_bits: int
    downlink_bits: int


@dataclass
class BudgetLedger:
    entries: list[LedgerEntry] = field(default_factory=list)

    @property
    def total_uses(self) -> int:
        return sum(e.uplink_uses for e in self.entries)

    @property
    def total_uplink_bits(self) -> int:
        return sum(e.uplink_bits for e in self.entries)

    @property
    def total_downlink_bits(self) -> int:
        return sum(e.downlink_bits for e in self.entries)

    def record(
        self,
        round_index: int,
        scheme: str,
        uplink_uses: int,
        uplink_bits: int,
        downlink_bits: int,
    ) -> None:
        if min(uplink_uses, uplink_bits, downlink_bits) < 0:
            raise AirfedError("ledger counts must be non-negative")
        self.entries.append(
            LedgerEntry(round_index, scheme, uplink_uses, uplink_bits, downlink_bits)
        )

    def to_csv(self, path) -> None:
        write_csv(path, ["round", *LedgerEntry._fields[1:]], self.entries)


def write_csv(path, header: list[str], rows) -> None:
    """The header row, then the rows: every CSV file airfed writes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def baseline_uses(round_indices: list[int], period: int, n_clients: int, dim: int) -> int:
    """Reference overhead: uncompressed ideal-digital links, K*d symbols on
    every scheduled aggregation round (those with t % period == 0)."""
    scheduled = sum(1 for t in round_indices if t % period == 0)
    return scheduled * n_clients * dim


def communication_gain(baseline: int, uses: int) -> float:
    """Baseline uplink channel uses over the candidate's uses; nan when the
    candidate used none."""
    if uses == 0:
        return float("nan")
    return baseline / uses
