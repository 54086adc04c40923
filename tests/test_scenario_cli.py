import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airfed import cli, models
from airfed.scenario import _DEFAULTS, ScenarioError, parse_scenario

# values a scenario key may take: defaults, keywords, numbers of every kind
# (nan and inf included) and arbitrary text
KEYWORDS = sorted(
    set(_DEFAULTS.values())
    | {"mlp", "linear", "threshold", "topk", "binary", "four-level", "gradients"}
    | {"over-the-air", "cs-over-the-air", "channel", "true", "1,2", "0.5,1"}
)
VALUES = st.one_of(
    st.sampled_from(KEYWORDS),
    st.integers().map(str),
    st.floats().map(repr),
    st.text(),
)
KEY_LINES = st.lists(
    st.sampled_from(sorted(_DEFAULTS)).flatmap(
        lambda key: st.tuples(st.just(key), st.one_of(st.just(_DEFAULTS[key]), VALUES))
    ),
    max_size=len(_DEFAULTS),
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

    def test_analog_scheme_requires_gradients(self):
        with pytest.raises(ScenarioError):
            parse_scenario("scheme = over-the-air\npayload = weights")

    def test_cs_measurements_must_compress(self):
        with pytest.raises(ScenarioError, match="`measurements`"):
            parse_scenario(
                "scheme = cs-over-the-air\npayload = gradients\n"
                "features = 10\nmeasurements = 10"
            )

    def test_mlp_dimension_derived(self):
        sc = parse_scenario("model = mlp\nfeatures = 4\nhidden = 3")
        assert sc.model_spec.dim == 3 * 4 + 2 * 3 + 1

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
        ],
    )
    def test_irrelevant_key_rejected(self, text, key):
        with pytest.raises(ScenarioError, match=f"`{key}`: only applies with"):
            parse_scenario(text)

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


class TestRunCommand:
    def test_zero_rounds_header_only(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("seed = 1\nrounds = 0\n")
        assert run_cli(["run", str(f), "--out", str(tmp_path / "out"), "--quiet"]) == 0
        rounds = (tmp_path / "out" / "rounds.csv").read_text().splitlines()
        assert len(rounds) == 1 and rounds[0].startswith("round,")
        budget = (tmp_path / "out" / "budget.csv").read_text().splitlines()
        assert len(budget) == 1

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

    def test_divergence_exits_one_naming_the_round(self, tmp_path, capsys):
        # at this step size the linear model's loss first overflows in round 82
        f = tmp_path / "s.cfg"
        f.write_text(
            "seed = 3\nrounds = 100\nmodel = linear\nfeatures = 10\n"
            "clients = 4\nclient_size = 20\nmu = 50\n"
        )
        out = tmp_path / "out"
        assert run_cli(["run", str(f), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: training diverged in round 82")
        # the 81 finished rounds are left behind, without a summary
        for name in ("rounds.csv", "budget.csv"):
            with open(out / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [int(r["round"]) for r in rows] == list(range(1, 82))
        assert (out / "events.csv").read_text().splitlines() == ["round,kind,detail"]
        assert not (out / "summary.txt").exists()

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

    def test_bad_scenario_exits_one(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("mu = -5")
        assert run_cli(["run", str(f), "--quiet"]) == 1

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

    def test_mismatched_shared_field_rejected(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text(BASE)
        b.write_text(BASE + "clients = 3\n")
        assert run_cli(["compare", str(a), str(b), "--quiet"]) == 1

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
