"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ARTIFACT = Path(__file__).parent / "dst" / "artifacts" / "no-churn-keys.json"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.n == 125
        assert args.fanout == 3

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "9z"])

    @pytest.mark.parametrize("argv, flag", [
        (["demo", "-n", "5", "--rounds", "-1"], "--rounds"),
        (["demo", "-n", "5", "--rounds", "0"], "--rounds"),
        (["figure", "6a", "--seeds", "0"], "--seeds"),
        (["figure", "5b", "--seeds", "-2"], "--seeds"),
        (["analyze", "100", "--view", "0"], "--view"),
        (["analyze", "100", "--view", "-3"], "--view"),
        (["validate-partition", "100", "--view", "0"], "--view"),
        (["validate-partition", "100", "--view", "-1"], "--view"),
    ])
    def test_non_positive_counts_are_usage_errors(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err


class TestCommands:
    def test_demo_succeeds_and_prints_curve(self, capsys):
        assert main(["demo", "-n", "30", "--view", "8", "--rounds", "10"]) == 0
        out = capsys.readouterr().out
        assert "lpbcast demo" in out
        assert "infected" in out

    def test_demo_exit_code_on_incomplete_infection(self, capsys):
        # One round cannot infect 30 processes.
        assert main(["demo", "-n", "30", "--view", "8", "--rounds", "1"]) == 1

    def test_analyze(self, capsys):
        assert main(["analyze", "125"]) == 0
        out = capsys.readouterr().out
        assert "p (Eq. 1)" in out
        assert "0.0228" in out

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "10", "--fanout", "10"], "fanout 10 exceeds"),
        (["tune", "100", "--publish-rate", "-1"], "publish_rate must be"),
        (["tune", "100", "--publish-rate", "nan"], "publish_rate must be"),
    ])
    def test_out_of_domain_analysis_inputs_exit_2(self, capsys, argv,
                                                  message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2, 3])
    def test_tune_smallest_systems_recommend_fanout_one(self, capsys, n):
        assert main(["tune", str(n)]) == 0
        assert "F=1," in capsys.readouterr().out

    def test_tune(self, capsys):
        assert main(["tune", "250"]) == 0
        out = capsys.readouterr().out
        assert "fanout F" in out
        assert "view size l" in out

    def test_tune_with_publish_rate(self, capsys):
        assert main(["tune", "250", "--publish-rate", "10"]) == 0
        assert "|eventIds|m" in capsys.readouterr().out

    def test_figure_2(self, capsys):
        assert main(["figure", "2"]) == 0
        out = capsys.readouterr().out
        assert "F=3" in out and "F=6" in out

    def test_figure_3b(self, capsys):
        assert main(["figure", "3b"]) == 0
        assert "rounds to 99%" in capsys.readouterr().out

    def test_figure_4(self, capsys):
        assert main(["figure", "4"]) == 0
        assert "n=125" in capsys.readouterr().out

    def test_figure_5b_with_one_seed(self, capsys):
        assert main(["figure", "5b", "--seeds", "1"]) == 0
        assert "l=10" in capsys.readouterr().out

    def test_figure_7a_with_one_seed(self, capsys):
        assert main(["figure", "7a", "--seeds", "1"]) == 0
        assert "lpbcast" in capsys.readouterr().out

    def test_latency(self, capsys):
        assert main(["latency", "125"]) == 0
        out = capsys.readouterr().out
        assert "E[delivery round" in out
        assert "99%" in out

    def test_validate_partition(self, capsys):
        assert main(["validate-partition", "8", "--view", "1",
                     "--trials", "500"]) == 0
        out = capsys.readouterr().out
        assert "empirical partition rate" in out

    def test_fuzz_preset_campaign_runs_and_reports(self, capsys):
        assert main(["fuzz", "--count", "2", "--seed", "5", "--max-n", "20",
                     "--max-rounds", "15", "--preset", "steady_state",
                     "--preset", "mass_departure"]) == 0
        out = capsys.readouterr().out
        assert "[1/2] OK    steady_state reliability=" in out
        assert "[2/2] OK    mass_departure reliability=" in out
        assert "2/2 scenario(s) checked, mean reliability" in out

    def test_fuzz_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--preset", "nonsense"])

    def test_fuzz_columnar_refuses_churn_presets(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--columnar", "--preset", "flash_crowd",
                  "--count", "1", "--quiet"])
        assert excinfo.value.code == 2
        assert "joins or leaves" in capsys.readouterr().err

    def test_fuzz_replay_of_a_malformed_artifact_exits_2(self, tmp_path,
                                                         capsys):
        path = tmp_path / "case.json"
        path.write_text("[]")
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--replay", str(path)])
        assert excinfo.value.code == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, named", [
        ("n", "10", "'n'"), ("rounds", None, "'rounds'"),
        ("loss_rate", "x", "'loss_rate'"), ("fanout", 2.5, "'fanout'"),
        ("plan", {"drops": 5}, "'drops'"), ("fan_out", 3, "fan_out"),
    ])
    def test_fuzz_replay_of_an_ill_typed_artifact_exits_2(
            self, tmp_path, capsys, key, value, named):
        artifact = json.loads(ARTIFACT.read_text())
        artifact["spec"][key] = value
        path = tmp_path / "case.json"
        path.write_text(json.dumps(artifact))
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--replay", str(path)])
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.n == 30
        assert args.rounds == 10
        assert args.engine == "serial"
        assert not args.no_tracing

    def test_trace_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--engine", "quantum"])

    def test_trace_rejects_shards_on_serial_engine(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "-n", "12", "--rounds", "4",
                  "--engine", "serial", "--shards", "2"])
        assert excinfo.value.code == 2
        assert "does not accept" in capsys.readouterr().err

    def test_trace_prints_counters_profile_and_events(self, capsys):
        assert main(["trace", "-n", "12", "--rounds", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "telemetry trace:" in out
        assert "sim.sends" in out
        assert "time.round" in out
        assert "round.start" in out

    def test_trace_exports_validate(self, capsys, tmp_path):
        jsonl = tmp_path / "trace.jsonl"
        prom = tmp_path / "trace.prom"
        assert main(["trace", "-n", "12", "--rounds", "4", "--seed", "3",
                     "--jsonl", str(jsonl), "--prom", str(prom),
                     "--validate"]) == 0
        out = capsys.readouterr().out
        assert "schema OK" in out
        assert jsonl.read_text().startswith('{"')
        assert "# TYPE" in prom.read_text()

    def test_trace_sharded_matches_serial_output_counters(self, capsys):
        outputs = {}
        for engine in ("serial", "sharded"):
            # --shards only rides along with the sharded engine: the strict
            # factory rejects it elsewhere instead of silently ignoring it.
            extra = ["--shards", "2"] if engine == "sharded" else []
            assert main(["trace", "-n", "12", "--rounds", "4", "--seed", "3",
                         "--engine", engine, *extra]) == 0
            out = capsys.readouterr().out
            start = out.index("-- counter totals --")
            end = out.index("-- timing profile --")
            outputs[engine] = out[start:end]
        assert outputs["serial"] == outputs["sharded"]
