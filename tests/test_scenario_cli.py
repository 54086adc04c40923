import csv
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airfed import cli, core, models
from airfed.errors import ProtocolError
from airfed.scenario import _KEYS, ScenarioError, parse_scenario

# values a scenario key may take: defaults, keywords, numbers of every kind
# (nan and inf included) and arbitrary text
KEYWORDS = sorted(
    {default for default, _ in _KEYS.values()}
    | {"mlp", "linear", "threshold", "topk", "binary", "four-level", "gradients"}
    | {"over-the-air", "cs-over-the-air", "channel", "true", "1,2", "0.5,1"}
    | {"none", "full", "three-level"}
)
VALUES = st.one_of(
    st.sampled_from(KEYWORDS),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(),
)
KEY_LINES = st.lists(
    st.sampled_from(sorted(_KEYS)).flatmap(
        lambda key: st.tuples(st.just(key), st.one_of(st.just(_KEYS[key][0]), VALUES))
    ),
    max_size=len(_KEYS),
    unique_by=lambda kv: kv[0],
)


def parses_or_raises_scenario_error(text):
    try:
        parse_scenario(text)
    except ScenarioError:
        pass


class TestParseScenario:
    def test_minimal_file_all_defaults(self):
        sc = parse_scenario("seed = 1")
        assert sc.seed == 1
        assert sc.rounds == 10
        assert sc.model_spec.kind == models.LOGISTIC
        assert sc.round_cfg.period == 1
        assert sc.round_cfg.scheme.kind == "ideal-digital"

    def test_comments_and_blank_lines(self):
        sc = parse_scenario("# header\n\nseed = 2  # trailing comment\n")
        assert sc.seed == 2

    def test_negative_mu_names_key(self):
        with pytest.raises(ScenarioError, match="`mu`"):
            parse_scenario("mu = -0.1")

    def test_unknown_key_named(self):
        with pytest.raises(ScenarioError, match="unknown key `unknown_key`"):
            parse_scenario("unknown_key = 3")

    def test_parse_error_has_line_number(self):
        with pytest.raises(ScenarioError, match="line 2"):
            parse_scenario("seed = 1\nnot a key value line")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario("seed = 1\nseed = 2")

    def test_sizes_must_match_clients(self):
        with pytest.raises(ScenarioError, match="`sizes`"):
            parse_scenario("clients = 3\nsizes = 10,20")

    def test_weights_payload_rejected(self):
        # clients upload only the pseudo-gradient
        with pytest.raises(ScenarioError, match="`payload`"):
            parse_scenario("payload = weights")

    def test_over_the_air_parses_without_payload_line(self):
        sc = parse_scenario("scheme = over-the-air\nantennas = 4")
        assert sc.round_cfg.scheme.kind == "over-the-air"

    def test_cs_measurements_must_compress(self):
        with pytest.raises(ScenarioError, match="`measurements`"):
            parse_scenario(
                "scheme = cs-over-the-air\npayload = gradients\n"
                "features = 10\nmeasurements = 10"
            )

    def test_mlp_dimension_derived(self):
        sc = parse_scenario("model = mlp\nfeatures = 4\nhidden = 3")
        assert sc.model_spec.n_features == 4
        assert sc.model_spec.dim == 3 * 4 + 2 * 3 + 1

    def test_channel_and_delay_settings_reach_round_cfg(self):
        sc = parse_scenario(
            "scheme = over-the-air\npayload = gradients\nantennas = 4\nsigma = 0.3\n"
            "power_cap = 2.5\ndeadline = 1\ndelay_mean = 0.7\ndelay_jitter = 0.2"
        )
        cfg = sc.round_cfg
        assert (cfg.n_antennas, cfg.noise_std, cfg.power_cap) == (4, 0.3, 2.5)
        assert (cfg.deadline, cfg.delay_mean, cfg.delay_jitter) == (1.0, 0.7, 0.2)

    @pytest.mark.parametrize(
        "text",
        [
            "mu = inf",
            "sigma = inf",
            "power_cap = inf",
            "sparsifier = threshold\ntau = inf",
            "l2 = inf",
            "label_noise = inf",
            "delay_mean = inf",
            "delay_jitter = inf",
            "loss_threshold = nan",
        ],
    )
    def test_non_finite_numbers_rejected(self, text):
        key = text.rpartition("\n")[2].split(" = ")[0]
        with pytest.raises(ScenarioError, match=f"`{key}`: expected a finite number"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "text, key",
        [
            ("sparsifier = topk\ntau = 0.5", "tau"),
            ("scheme = over-the-air\npayload = gradients\nmeasurements = 4", "measurements"),
            ("model = logistic\nhidden = 4", "hidden"),
            ("label_noise = 5", "label_noise"),
            ("clients = 2\nclient_size = 7\nsizes = 3,4", "client_size"),
            ("rho = 0.5", "rho"),
            ("sparsifier = threshold\nwarmup = 0.5", "warmup"),
            ("error_feedback = off\nmomentum = 0.9", "momentum"),
            ("sigma = 0.5", "sigma"),
            ("selection = channel\npower_cap = 3", "power_cap"),
            ("antennas = 4", "antennas"),
            ("delay_mean = 2", "delay_mean"),
            ("deadline = none\ndelay_jitter = 1", "delay_jitter"),
        ],
    )
    def test_irrelevant_key_rejected(self, text, key):
        with pytest.raises(ScenarioError, match=f"`{key}`: only applies with"):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("error_feedback = true\nmomentum = 1", "momentum must be in"),
            ("sparsifier = topk\nwarmup = 0.5,2", "warmup fractions must be in"),
            ("clients = 2\nsizes = 3,0", "`sizes`: every size must be >= 1"),
            ("scheme = cs-over-the-air", "`measurements`: required for cs-over-the-air"),
            ("rounds = 3\nperiod = 5", "`period`: must be <= rounds"),
        ],
    )
    def test_invalid_setting_names_its_key(self, text, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            parse_scenario(text)

    def test_antennas_apply_to_channel_aware_selection(self):
        sc = parse_scenario("selection = channel\nantennas = 4")
        assert sc.round_cfg.n_antennas == 4

    @pytest.mark.parametrize("key", list(_KEYS))
    def test_writing_a_default_equals_omitting_it(self, key):
        # the `compare` command relies on this: it checks parsed values
        try:
            sc = parse_scenario(f"{key} = {_KEYS[key][0]}")
        except ScenarioError as exc:
            assert str(exc).startswith(f"invalid value for `{key}`: only applies with")
        else:
            assert sc == parse_scenario("")

    @pytest.mark.parametrize("spelling", ["true", "on", "1", "TRUE"])
    def test_momentum_applies_under_every_error_feedback_spelling(self, spelling):
        sc = parse_scenario(f"error_feedback = {spelling}\nmomentum = 0.9")
        assert sc.round_cfg.codec.momentum == 0.9

    def test_defaults_of_irrelevant_keys_are_not_counted(self):
        sc = parse_scenario("model = linear\nsparsifier = topk\nrho = 0.5")
        assert sc.model_spec.kind == models.LINEAR

    def test_client_count_bounded(self):
        with pytest.raises(ScenarioError, match="`clients`"):
            parse_scenario("clients = 10000000000")

    @given(st.text())
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_text_raises_only_scenario_error(self, text):
        parses_or_raises_scenario_error(text)

    @given(KEY_LINES)
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_values_raise_only_scenario_error(self, lines):
        parses_or_raises_scenario_error("\n".join(f"{k} = {v}" for k, v in lines))


def run_cli(args):
    return cli.main(args)


BASE = "seed = 9\nrounds = 6\nclients = 5\nclient_size = 10\nfeatures = 8\nmu = 0.1\n"

# a copy of the digital-dgc benchmark workload
DIGITAL_DGC = """\
seed = 0
rounds = 300
model = logistic
features = 2000
clients = 20
client_size = 64
mu = 0.01
l2 = 0.01
batch = 16
local_steps = 5
payload = gradients
participation = 0.5
deadline = 1.0
delay_mean = 0.8
delay_jitter = 0.4
sparsifier = topk
rho = 0.01
warmup = 0.25,0.0625,0.015625
quantizer = four-level
error_feedback = true
momentum = 0.9
clip = 5
"""


class TestRunCommand:
    def test_zero_rounds_header_only(self, tmp_path, capsys):
        # a run of zero rounds has no final loss: the parser rejects it
        f = tmp_path / "s.cfg"
        f.write_text("seed = 1\nrounds = 0\n")
        assert run_cli(["run", str(f), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert "invalid value for `rounds`: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_byte_identical_reruns(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text(BASE + "participation = 0.6\ndelay_jitter = 0.2\ndeadline = 5\n")
        for out in ("a", "b"):
            assert run_cli(["run", str(f), "--out", str(tmp_path / out), "--quiet"]) == 0
        for name in ("rounds.csv", "budget.csv", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_over_the_air_gain_is_client_count(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text(
            BASE
            + "scheme = over-the-air\npayload = gradients\nantennas = 8\n"
            + "power_cap = 1000000\n"
        )
        out = tmp_path / "out"
        assert run_cli(["run", str(f), "--out", str(out), "--quiet"]) == 0
        summary = dict(
            line.split(" = ") for line in (out / "summary.txt").read_text().splitlines()
        )
        assert float(summary["communication_gain"]) == 5.0

    def test_fallback_rounds_record_ideal_digital(self, tmp_path):
        # the cap is too tight for any client: every upload falls back to digital
        f = tmp_path / "s.cfg"
        f.write_text(
            BASE
            + "scheme = over-the-air\npayload = gradients\nantennas = 4\n"
            + "power_cap = 1e-6\nperiod = 2\n"
        )
        out = tmp_path / "out"
        assert run_cli(["run", str(f), "--out", str(out), "--quiet"]) == 0
        with open(out / "budget.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["scheme"] for r in rows] == [
            "ideal-digital" if int(r["round"]) % 2 == 0 else "over-the-air" for r in rows
        ]

    def test_events_csv_records_fallbacks(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text(
            BASE
            + "scheme = over-the-air\npayload = gradients\nantennas = 4\n"
            + "power_cap = 1e-6\nperiod = 2\n"
        )
        for out in ("a", "b"):
            assert run_cli(["run", str(f), "--out", str(tmp_path / out), "--quiet"]) == 0
        events = (tmp_path / "a" / "events.csv").read_bytes()
        assert events == (tmp_path / "b" / "events.csv").read_bytes()
        with open(tmp_path / "a" / "events.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["round"], r["kind"]) for r in rows] == [
            ("2", "scheme-error"), ("4", "scheme-error"), ("6", "scheme-error")
        ]
        assert all(r["detail"] and not r["detail"].startswith(" ") for r in rows)

    def run_twice_and_read(self, tmp_path, text):
        """rounds.csv and events.csv rows of a run, after checking that a
        rerun writes the same events.csv."""
        f = tmp_path / "s.cfg"
        f.write_text(text)
        for out in ("a", "b"):
            assert run_cli(["run", str(f), "--out", str(tmp_path / out), "--quiet"]) == 0
        events = (tmp_path / "a" / "events.csv").read_bytes()
        assert events == (tmp_path / "b" / "events.csv").read_bytes()
        with open(tmp_path / "a" / "rounds.csv", newline="") as fh:
            rounds = list(csv.DictReader(fh))
        with open(tmp_path / "a" / "events.csv", newline="") as fh:
            return rounds, list(csv.DictReader(fh))

    def test_events_csv_names_deadline_misses(self, tmp_path):
        # each client misses the deadline with probability 1/2
        rounds, events = self.run_twice_and_read(
            tmp_path, BASE + "delay_mean = 1\ndelay_jitter = 1\ndeadline = 1\n"
        )
        missed = {r["round"]: r["detail"] for r in events if r["kind"] == "deadline-miss"}
        assert missed and all(r["kind"] == "deadline-miss" for r in events)
        for r in rounds:
            aggregated = r["participants"].split(";") if r["participants"] else []
            named = missed[r["round"]].split(";") if r["round"] in missed else []
            # a row names the clients that missed: the rest were aggregated
            assert named == sorted(named, key=int)
            assert sorted(aggregated + named, key=int) == ["0", "1", "2", "3", "4"]

    def test_events_csv_names_excluded_clients(self, tmp_path):
        # two antennas for five clients: the beamformer cannot reach every one
        rounds, events = self.run_twice_and_read(
            tmp_path,
            BASE + "scheme = over-the-air\npayload = gradients\nantennas = 2\npower_cap = 1\n",
        )
        kinds = {r["round"]: r["kind"] for r in events}
        assert len(kinds) == len(events)  # at most one row per round
        excluded = {r["round"]: r["detail"] for r in events if r["kind"] == "excluded"}
        assert excluded and "scheme-error" in kinds.values()
        for r in rounds:
            aggregated = r["participants"].split(";")
            named = excluded[r["round"]].split(";") if r["round"] in excluded else []
            assert named == sorted(named, key=int)
            if kinds.get(r["round"]) == "scheme-error":
                # a fallback round sends every survivor over digital links
                assert aggregated == ["0", "1", "2", "3", "4"]
            else:
                assert sorted(aggregated + named, key=int) == ["0", "1", "2", "3", "4"]

    def test_divergence_exits_one_naming_the_round(self, tmp_path, capsys, monkeypatch):
        # round 1 is off-schedule and keeps the starting loss; in round 2 the
        # server takes the mean of two huge local steps per client, and the
        # linear model's loss overflows with finite parameters
        run_round = core.run_round
        calls = []

        def spy(*args):
            calls.append(args[0].round_index + 1)
            return run_round(*args)

        monkeypatch.setattr(core, "run_round", spy)
        f = tmp_path / "s.cfg"
        f.write_text(
            "seed = 3\nrounds = 100\nmodel = linear\nfeatures = 10\n"
            "clients = 4\nclient_size = 20\nperiod = 2\nmu = 1e100\n"
        )
        out = tmp_path / "out"
        assert run_cli(["run", str(f), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(
            "error: training diverged in round 2: non-finite"
        )
        # the run stops in the round whose loss overflows, not after it
        assert calls == [1, 2]
        # the finished round is left behind, with a finite loss and without
        # a summary
        for name in ("rounds.csv", "budget.csv"):
            with open(out / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [int(r["round"]) for r in rows] == [1]
        with open(out / "rounds.csv", newline="") as fh:
            losses = [float(r["global_loss"]) for r in csv.DictReader(fh)]
        assert all(math.isfinite(x) for x in losses)
        assert (out / "events.csv").read_text().splitlines() == ["round,kind,detail"]
        assert not (out / "summary.txt").exists()

    def test_overflowing_guard_norm_prints_only_the_error(self, tmp_path, capsys):
        # round 1 is off-schedule and keeps the starting loss; in round 2
        # the parameters pass 1e154, where the norm of the overflow guard
        # itself overflows, and the loss overflows
        f = tmp_path / "s.cfg"
        f.write_text(
            "seed = 3\nrounds = 100\nmodel = linear\nfeatures = 40\nclients = 4\n"
            "client_size = 20\nlocal_steps = 3\nperiod = 2\nmu = 1e30\n"
        )
        assert run_cli(["run", str(f), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: training diverged in round 2:")

    def test_a_loss_past_twice_its_start_exits_one_naming_the_round(
        self, tmp_path, capsys, monkeypatch
    ):
        # digital-dgc's workload with a ten times larger step: its loss
        # climbs from log 2 to more than twice that in round 45
        text = DIGITAL_DGC.replace("mu = 0.01", "mu = 0.1")
        f = tmp_path / "s.cfg"
        f.write_text(text)
        out = tmp_path / "out"
        assert run_cli(["run", str(f), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        # the reference: the same rounds without the bound
        sc = parse_scenario(text)
        population = models.make_synthetic(sc.partition, sc.seed)
        start = models.global_loss(sc.model_spec, np.zeros(sc.model_spec.dim), population)
        monkeypatch.setattr(core, "DIVERGENCE_FACTOR", math.inf)
        reference, _ = core.run_training(dataclasses.replace(sc, rounds=45))
        losses = [r.global_loss for r in reference]
        assert max(losses[:44]) <= 2 * start < losses[44]
        assert err == (
            f"error: training diverged in round 45: global loss {losses[44]:.6g} "
            f"exceeds 2 times the starting loss {start:.6g}\n"
        )
        with open(out / "rounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["global_loss"]) for r in rows] == losses[:44]
        assert not (out / "summary.txt").exists()

    def test_overflow_in_round_one_stops_at_the_round_check(
        self, tmp_path, capsys, monkeypatch
    ):
        # at this step size the first local step overflows the parameters,
        # so `core._finish` stops the run before any loss is evaluated; at
        # mu = 1e300 they stay finite, and the loss check stops it instead
        finish, raised = core._finish, []

        def spy(rec, server):
            try:
                return finish(rec, server)
            except ProtocolError as exc:
                raised.append(f"error: {exc}\n")
                raise

        monkeypatch.setattr(core, "_finish", spy)
        f = tmp_path / "s.cfg"
        f.write_text(
            "seed = 3\nmodel = linear\nfeatures = 10\nclients = 4\n"
            "client_size = 20\nmu = 1e308\n"
        )
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run_cli(["run", str(f), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged in round 1:")
        assert raised == [err]
        header = ",".join(h for h, _ in cli.ROUNDS_COLUMNS)
        assert (out / "rounds.csv").read_text().splitlines() == [header]
        assert not (out / "summary.txt").exists()

    def test_run_and_compare_print_their_files_unless_quiet(self, tmp_path, capsys):
        f = tmp_path / "s.cfg"
        f.write_text(BASE)
        out = tmp_path / "out"
        assert run_cli(["run", str(f), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (out / "summary.txt").read_text()
        assert run_cli(["compare", str(f), str(f), "--out", str(out)]) == 0
        assert capsys.readouterr().out == (out / "compare.csv").read_text()

    def test_zero_step_size_never_moves_the_model(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text(BASE.replace("mu = 0.1", "mu = 0"))
        out = tmp_path / "out"
        assert run_cli(["run", str(f), "--out", str(out), "--quiet"]) == 0
        with open(out / "rounds.csv", newline="") as fh:
            losses = {r["global_loss"] for r in csv.DictReader(fh)}
        assert len(losses) == 1

    def test_period_aware_baseline(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text(BASE.replace("rounds = 6", "rounds = 7") + "period = 3\n")
        out = tmp_path / "out"
        assert run_cli(["run", str(f), "--out", str(out), "--quiet"]) == 0
        summary = dict(
            line.split(" = ") for line in (out / "summary.txt").read_text().splitlines()
        )
        with open(out / "budget.csv", newline="") as fh:
            total = sum(int(r["uplink_uses"]) for r in csv.DictReader(fh))
        baseline = (7 // 3) * 5 * 8
        assert int(summary["baseline_uplink_uses"]) == baseline
        assert float(summary["communication_gain"]) == baseline / total

    def test_seed_override_changes_outputs(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text(BASE)
        run_cli(["run", str(f), "--out", str(tmp_path / "a"), "--quiet"])
        run_cli(["run", str(f), "--out", str(tmp_path / "b"), "--seed", "77", "--quiet"])
        assert (tmp_path / "a" / "rounds.csv").read_bytes() != (
            tmp_path / "b" / "rounds.csv"
        ).read_bytes()

    @pytest.mark.parametrize("command", ["run", "compare", "validate"])
    def test_seed_override_obeys_the_seed_rule(self, command, tmp_path, capsys):
        f = tmp_path / "s.cfg"
        f.write_text(BASE)
        out = tmp_path / "out"
        assert run_cli([command, str(f), "--seed", "-1", "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: invalid value for `seed`: must be >= 0\n"
        assert not out.exists()

    def test_bad_scenario_exits_one(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("mu = -5")
        assert run_cli(["run", str(f), "--quiet"]) == 1

    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    def test_non_utf8_file_exits_one_naming_the_byte(self, command, tmp_path, capsys):
        good = tmp_path / "good.cfg"
        good.write_text(BASE)
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"seed = 1\n# caf\xff\n")
        files = [str(good), str(bad)] if command == "compare" else [str(bad)]
        out = tmp_path / "out"
        assert run_cli([command, *files, "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text at byte 14\n"
        assert not out.exists()

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, capsys):
        f = tmp_path / "bom.cfg"
        f.write_bytes(b"\xef\xbb\xbf" + BASE.encode())
        assert run_cli(["validate", str(f)]) == 0
        assert capsys.readouterr().err == ""

    def test_byte_order_mark_counts_in_the_byte_offset(self, tmp_path, capsys):
        f = tmp_path / "bom.cfg"
        f.write_bytes(b"\xef\xbb\xbfseed = 1\n# caf\xff\n")
        assert run_cli(["validate", str(f)]) == 1
        assert capsys.readouterr().err == f"error: {f}: not UTF-8 text at byte 17\n"

    def test_missing_file_exits_two(self, tmp_path):
        assert run_cli(["run", str(tmp_path / "missing.cfg"), "--quiet"]) == 2

    def test_summary_recomputable_from_csvs(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text(BASE)
        out = tmp_path / "out"
        run_cli(["run", str(f), "--out", str(out), "--quiet"])
        with open(out / "rounds.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(out / "budget.csv", newline="") as fh:
            brows = list(csv.DictReader(fh))
        summary = dict(
            line.split(" = ") for line in (out / "summary.txt").read_text().splitlines()
        )
        assert float(summary["final_loss"]) == float(rows[-1]["global_loss"])
        assert int(summary["total_uplink_uses"]) == sum(
            int(r["uplink_uses"]) for r in brows
        )
        assert int(summary["total_uplink_bits"]) == sum(
            int(r["uplink_bits"]) for r in brows
        )


class TestCompareCommand:
    def test_scenario_against_itself(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text(BASE)
        out = tmp_path / "out"
        assert run_cli(["compare", str(f), str(f), "--out", str(out), "--quiet"]) == 0
        with open(out / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["final_loss"] == rows[1]["final_loss"]
        assert float(rows[0]["gain"]) == 1.0 and float(rows[1]["gain"]) == 1.0

    def test_baseline_vs_over_the_air(self, tmp_path):
        a = tmp_path / "baseline.cfg"
        b = tmp_path / "ota.cfg"
        a.write_text(BASE + "payload = gradients\n")
        b.write_text(
            BASE
            + "payload = gradients\nscheme = over-the-air\nantennas = 8\n"
            + "power_cap = 1000000\n"
        )
        out = tmp_path / "out"
        assert run_cli(["compare", str(a), str(b), "--out", str(out), "--quiet"]) == 0
        with open(out / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # noiseless solved beamformer: loss trajectories agree closely
        assert float(rows[0]["final_loss"]) == pytest.approx(
            float(rows[1]["final_loss"]), abs=1e-6
        )
        assert float(rows[1]["gain"]) == 5.0

    @pytest.mark.parametrize(
        "line, spelling",
        [
            ("mu = 0.1\n", ""),
            ("mu = 0.1", "mu = 0.10"),
            ("client_size = 10", "sizes = 10,10,10,10,10"),
        ],
    )
    def test_equal_problems_spelled_differently_accepted(self, tmp_path, line, spelling):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(BASE)
        b.write_text(BASE.replace(line, spelling))
        out = tmp_path / "out"
        assert run_cli(["compare", str(a), str(b), "--out", str(out), "--quiet"]) == 0
        with open(out / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["final_loss"] == rows[1]["final_loss"]

    def test_mismatched_shared_field_rejected(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(BASE)
        b.write_text(BASE + "clients = 3\n")
        assert run_cli(["compare", str(a), str(b), "--quiet"]) == 1

    @pytest.mark.parametrize("order", ["threshold-first", "threshold-second"])
    def test_mismatched_loss_threshold_rejected(self, tmp_path, capsys, order):
        # rounds_to_threshold is reported per row, so the rows must share it
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(BASE)
        b.write_text(BASE + "loss_threshold = 0.9\n")
        files = [b, a] if order == "threshold-first" else [a, b]
        out = tmp_path / "out"
        assert run_cli(["compare", *map(str, files), "--out", str(out), "--quiet"]) == 1
        assert "`loss_threshold`" in capsys.readouterr().err
        assert not (out / "compare.csv").exists()

    def compare_rows(self, tmp_path, *texts):
        """compare.csv rows of the given scenario texts, compared in `tmp_path`."""
        tmp_path.mkdir(exist_ok=True)
        files = []
        for i, text in enumerate(texts):
            files.append(tmp_path / f"s{i}.cfg")
            files[-1].write_text(text)
        out = tmp_path / "out"
        assert run_cli(["compare", *map(str, files), "--out", str(out), "--quiet"]) == 0
        with open(out / "compare.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def test_rounds_to_threshold_is_the_first_round_at_or_under_it(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text(BASE)
        out = tmp_path / "run"
        assert run_cli(["run", str(f), "--out", str(out), "--quiet"]) == 0
        with open(out / "rounds.csv", newline="") as fh:
            losses = [r["global_loss"] for r in csv.DictReader(fh)]
        # the loss falls every round, so the third round's loss is first met there
        assert all(float(b) < float(a) for a, b in zip(losses, losses[1:]))
        for threshold, want in ((losses[2], "3"), ("-1", "-1")):
            text = BASE + f"loss_threshold = {threshold}\n"
            rows = self.compare_rows(tmp_path / threshold, text, text)
            assert [r["rounds_to_threshold"] for r in rows] == [want, want]

    def test_codec_column_names_every_codec_stage(self, tmp_path):
        rows = self.compare_rows(
            tmp_path,
            BASE,
            BASE + "sparsifier = threshold\ntau = 0.01\nquantizer = binary\n",
            BASE + "sparsifier = topk\nrho = 0.25\nerror_feedback = true\n"
            "momentum = 0.5\nclip = 2\nwarmup = 0.5,1\nquantizer = four-level\n",
        )
        assert [r["codec"] for r in rows] == [
            "dense|none",
            "thr0.01|binary",
            "topk0.5,1|four-level|ef|m0.5|clip2",
        ]

    def test_codec_column_names_the_fractions_that_run(self, tmp_path):
        # with a warm-up, rho is never read: codecs that differ only in it
        # get one label, and a one-fraction warm-up reads as that fraction
        warmup = BASE + "sparsifier = topk\nwarmup = 0.5,0.125\n"
        rows = self.compare_rows(
            tmp_path,
            warmup + "rho = 0.01\n",
            warmup + "rho = 0.5\n",
            BASE + "sparsifier = topk\nwarmup = 0.5\n",
            BASE + "sparsifier = topk\nrho = 0.5\n",
        )
        assert [r["codec"] for r in rows] == [
            "topk0.5,0.125|none", "topk0.5,0.125|none", "topk0.5|none", "topk0.5|none"
        ]
        assert rows[0]["final_loss"] == rows[1]["final_loss"]
        assert rows[2]["final_loss"] == rows[3]["final_loss"]

    def test_gain_sweep_over_client_count(self, tmp_path):
        # paired baseline/over-the-air runs at several client counts
        for K in (5, 10, 20):
            f = tmp_path / f"s{K}.cfg"
            f.write_text(
                f"seed = 9\nrounds = 4\nclients = {K}\nclient_size = 5\nfeatures = 8\n"
                "payload = gradients\nscheme = over-the-air\nantennas = 32\n"
                "power_cap = 1000000\n"
            )
            out = tmp_path / f"out{K}"
            assert run_cli(["run", str(f), "--out", str(out), "--quiet"]) == 0
            summary = dict(
                line.split(" = ")
                for line in (out / "summary.txt").read_text().splitlines()
            )
            assert float(summary["communication_gain"]) == float(K)


ROOT = Path(__file__).parents[1]
WORKLOADS = sorted((ROOT / "perfbench" / "workloads").glob("*.cfg"))
DEMOS = sorted((ROOT / "scenarios").glob("*.cfg"))


@pytest.mark.parametrize("workload", WORKLOADS + DEMOS, ids=lambda p: p.stem)
def test_benchmark_workload_runs_three_rounds(workload, tmp_path):
    # a short copy of each benchmark input and demo scenario: a program
    # change that breaks one fails here, before the benchmark or a user runs it
    text, n = re.subn(r"(?m)^rounds = \d+$", "rounds = 3", workload.read_text())
    assert n == 1
    cfg = tmp_path / workload.name
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run_cli(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    with open(out / "rounds.csv", newline="") as fh:
        assert [r["round"] for r in csv.DictReader(fh)] == ["1", "2", "3"]
    with open(out / "events.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["round", "kind", "detail"]
    assert all(r["round"] in {"1", "2", "3"} and r["kind"] and r["detail"] for r in rows)


class TestValidateCommand:
    def test_valid_file(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("seed = 3\n")
        assert run_cli(["validate", str(f), "--quiet"]) == 0

    def test_invalid_file(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("participation = 0\n")
        assert run_cli(["validate", str(f), "--quiet"]) == 1

    def test_usage_error_exits_one(self):
        assert run_cli(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "args, named",
        [
            (["run", "x.cfg", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
            (["frobnicate"], "invalid choice: 'frobnicate'"),
        ],
        ids=["bad-seed", "unknown-command"],
    )
    def test_usage_error_names_the_problem(self, args, named, capsys):
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: airfed") and named in err

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: airfed")
