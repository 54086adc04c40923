import math

import pytest

from airfed import cli
from airfed.budget import BudgetLedger, baseline_uses, communication_gain
from airfed.errors import AirfedError


class TestLedger:
    def test_empty_totals(self):
        led = BudgetLedger()
        assert led.total_uses == 0
        assert led.total_uplink_bits == 0
        assert led.total_downlink_bits == 0

    def test_totals_accumulate(self):
        led = BudgetLedger()
        led.record(1, "x", 5, 100, 10)
        led.record(2, "x", 7, 200, 10)
        assert led.total_uses == 12
        assert led.total_uplink_bits == 300
        assert led.total_downlink_bits == 20

    def test_totals_order_independent(self):
        a = BudgetLedger()
        a.record(1, "x", 5, 1, 0)
        a.record(2, "x", 7, 2, 0)
        b = BudgetLedger()
        b.record(2, "x", 7, 2, 0)
        b.record(1, "x", 5, 1, 0)
        assert a.total_uses == b.total_uses
        assert a.total_uplink_bits == b.total_uplink_bits

    def test_negative_counts_rejected(self):
        with pytest.raises(AirfedError):
            BudgetLedger().record(1, "x", -1, 0, 0)

    def test_csv_export(self, tmp_path):
        led = BudgetLedger()
        led.record(1, "over-the-air", 100, 6400, 640)
        path = tmp_path / "budget.csv"
        led.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,scheme,uplink_uses,uplink_bits,downlink_bits"
        assert lines[1] == "1,over-the-air,100,6400,640"


def ledger_of(scheme, uses_per_round, rounds):
    led = BudgetLedger()
    for t in rounds:
        led.record(t, scheme, uses_per_round, uses_per_round * 64, 0)
    return led


class TestCommunicationGain:
    def test_over_the_air_gain_is_client_count(self):
        K, d, T = 20, 1000, 7
        rounds = list(range(1, T + 1))
        ota = ledger_of("over-the-air", d, rounds)
        assert communication_gain(baseline_uses(rounds, 1, K, d), ota.total_uses) == K

    def test_cs_gain(self):
        K, d, m_cs = 20, 1000, 10
        rounds = [1, 2, 3]
        cs = ledger_of("cs-over-the-air", m_cs, rounds)
        base = baseline_uses(rounds, 1, K, d)
        assert communication_gain(base, cs.total_uses) == K * d / m_cs

    def test_identity_gain(self):
        base = baseline_uses([1, 2], 1, 5, 100)
        assert communication_gain(base, base) == 1.0

    def test_gain_invariant_in_rounds(self):
        K, d = 6, 50
        for T in (1, 4, 16):
            rounds = list(range(1, T + 1))
            ota = ledger_of("over-the-air", d, rounds)
            assert communication_gain(baseline_uses(rounds, 1, K, d), ota.total_uses) == K

    def test_zero_scheme_total_undefined(self):
        base = baseline_uses([1], 1, 2, 10)
        empty = ledger_of("x", 0, [1])
        assert math.isnan(communication_gain(base, empty.total_uses))

    def test_mismatched_rounds_rejected(self, tmp_path):
        # gains compare runs over the same rounds: `compare` refuses others
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        a.write_text("rounds = 2\nfeatures = 3\n")
        b.write_text("rounds = 1\nfeatures = 3\n")
        assert cli.main(["compare", str(a), str(b), "--out", str(tmp_path), "--quiet"]) == 1
