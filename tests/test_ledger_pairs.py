"""The paired-run tool's arithmetic: seed parsing, alternation, verdicts.

``benchmarks/ledger_pairs.py`` normally spends minutes in subprocesses;
here ``run_once`` is replaced by a table of canned results.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "ledger_pairs", ROOT / "benchmarks" / "ledger_pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_parse_seeds():
    assert pairs.parse_seeds("1-4,9,11-12") == [1, 2, 3, 4, 9, 11, 12]
    assert pairs.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        pairs.parse_seeds("5-4")


class TestSummarise:
    parent = [100.0, 104.0, 98.0, 101.0, 99.0, 103.0, 97.0, 102.0, 100.0, 101.0]

    def verdict(self, change, claimed, better="lower", bound=0.25):
        return pairs.summarise("m", better, bound, self.parent, change, claimed)

    def test_claim_met_needs_nine_wins_and_a_gap_beyond_the_parents_iqr(self):
        line, met = self.verdict([v - 30 for v in self.parent], claimed=True)
        assert met and "CLAIM MET: 10/10" in line
        # Wins every pair, but by less than the parent's own spread.
        line, met = self.verdict([v - 1 for v in self.parent], claimed=True)
        assert not met and "NOT MET" in line
        # A large median gap with two pairs lost.
        change = [v - 30 for v in self.parent]
        change[0] = change[1] = 200.0
        line, met = self.verdict(change, claimed=True)
        assert not met and "8/10" in line

    def test_direction_follows_better(self):
        line, met = self.verdict([v + 30 for v in self.parent], claimed=True,
                                 better="higher")
        assert met
        line, met = self.verdict([v + 30 for v in self.parent], claimed=True)
        assert not met and "0/10" in line

    def test_unclaimed_metric_is_judged_against_its_bound(self):
        line, met = self.verdict([v * 1.3 for v in self.parent], claimed=False)
        assert not met and "WORSE by 30.0%" in line
        line, met = self.verdict([v * 1.1 for v in self.parent], claimed=False)
        assert met and "no worse" in line
        # Spread wider than a tight bound: unresolved, unless every run of
        # the change beats every run of the parent.
        line, met = self.verdict(list(self.parent), claimed=False, bound=0.01)
        assert met and "unresolved" in line
        line, met = self.verdict([v - 50 for v in self.parent], claimed=False,
                                 bound=0.01)
        assert met and "no worse" in line


def test_main_alternates_sides_and_reports_failed_operations(
        tmp_path, monkeypatch, capsys):
    declared = {"run_seconds": 10, "end_to_end": [
        {"name": "cpu_us_per_delivery", "better": "lower", "bound": 0.25},
        {"name": "delivered_fraction", "better": "higher", "bound": 0.005}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
    parent = tmp_path / "parent"
    parent.mkdir()
    calls = []

    def run_once(checkout, workload, seed, seconds):
        side = "parent" if checkout == parent.resolve() else "change"
        calls.append((side, workload, seed, seconds))
        cpu = 1800.0 + seed if side == "parent" else 1100.0 + seed
        return {"correct": True, "attempted": 2400,
                "failed": 15 if (side, seed) == ("change", 2) else 0,
                "metrics": {"cpu_us_per_delivery": {"value": cpu},
                            "delivered_fraction": {"value": 1.0}}}

    monkeypatch.setattr(pairs, "run_once", run_once)
    status = pairs.main(["--parent", str(parent), "--change", str(tmp_path),
                         "--workload", "udp_stream", "--seeds", "1-4",
                         "--metric", "cpu_us_per_delivery"])
    assert [side for side, *_ in calls] == [
        "parent", "change", "change", "parent",
        "parent", "change", "change", "parent"]
    assert {call[1:] for call in calls} == {
        ("udp_stream", seed, 10) for seed in (1, 2, 3, 4)}
    output = capsys.readouterr().out
    assert "CLAIM MET: 4/4 pairs won" in output
    assert "change: failed 15 of 9600 operations" in output
    assert status == 1      # a larger share of operations failed


def test_workload_list_gets_a_table_each_and_fingerprints_are_compared(
        tmp_path, monkeypatch, capsys):
    declared = {"run_seconds": 10, "end_to_end": [
        {"name": "deliveries_per_s", "better": "higher", "bound": 0.25},
        {"name": "cpu_us_per_delivery", "better": "lower", "bound": 0.25}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
    parent = tmp_path / "parent"
    parent.mkdir()
    calls = []

    def run_once(checkout, workload, seed, seconds):
        side = "parent" if checkout == parent.resolve() else "change"
        calls.append((workload, seed, side))
        faster = side == "change" and workload == "serial_stream"
        slower = side == "change" and workload == "udp_stream"
        result = {"correct": True, "attempted": 100, "failed": 0, "metrics": {
            "deliveries_per_s": {"value": (36000.0 if faster else 27000.0) + seed},
            "cpu_us_per_delivery": {"value": (1500.0 if slower else 1000.0) + seed}}}
        if workload == "serial_stream":          # deterministic: run.py prints it
            result["fingerprint"] = f"print-of-seed-{seed}"
        elif workload == "async_stream":         # ... and here the change moved it
            result["fingerprint"] = f"{side if seed == 2 else 'same'}-{seed}"
        return result

    monkeypatch.setattr(pairs, "run_once", run_once)
    argv = ["--parent", str(parent), "--change", str(tmp_path), "--seeds", "1-2",
            "--metric", "deliveries_per_s"]
    status = pairs.main(argv + ["--workload", "serial_stream,async_stream,udp_stream"])
    output = capsys.readouterr().out
    # Workloads in the order given, each with its own alternation from seed 1.
    assert [call[0] for call in calls] == (
        ["serial_stream"] * 4 + ["async_stream"] * 4 + ["udp_stream"] * 4)
    assert [call[2] for call in calls] == ["parent", "change", "change", "parent"] * 3
    tables = output.split(" pairs, --seconds 10 --trace 0")
    assert len(tables) == 4
    serial, async_, udp = tables[1:]
    # --metric is a claim on the first workload only; elsewhere the same
    # metric is judged against its bound like every other.
    assert "CLAIM MET: 2/2 pairs won" in serial
    assert "CLAIM" not in async_ and "CLAIM" not in udp
    assert "fingerprints equal on 2 of 2 seeds" in serial
    assert "   1 fingerprint print-of-seed-1 on both sides" in serial
    assert "fingerprints equal on 1 of 2 seeds" in async_
    assert "   2 fingerprint parent parent-2 change change-2" in async_
    assert "fingerprint" not in udp              # nothing printed, nothing said
    assert "WORSE by 49.9%" in udp
    assert "2 of 3 workloads acceptable; not: udp_stream" in output
    assert status == 1

    # A differing fingerprint is information, not a verdict.
    assert pairs.main(argv + ["--workload", "serial_stream,async_stream"]) == 0
    assert "2 of 2 workloads acceptable" in capsys.readouterr().out


def test_run_once_reads_the_result_line_and_the_fingerprint(tmp_path, monkeypatch):
    stdout = ("== serial_stream  seed=3 seconds=10.0\n"
              "    counter fingerprint: 842098b3\n"
              "  checks: 5/5 passed\n"
              '{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}\n')
    seen = {}

    def fake_run(command, **kwargs):
        seen["command"], seen["cwd"] = command, kwargs["cwd"]
        return pairs.subprocess.CompletedProcess(command, 0, stdout=stdout)

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    result = pairs.run_once(tmp_path, "serial_stream", 3, 10)
    assert result["fingerprint"] == "842098b3" and result["correct"] is True
    assert seen["cwd"] == tmp_path and "--record" not in seen["command"]
    assert seen["command"][1:] == [
        "benchmarks/ledger/run.py", "--workload", "serial_stream", "--seed", "3",
        "--seconds", "10", "--trace", "0"]
    stdout = stdout.replace("    counter fingerprint: 842098b3\n", "")
    assert "fingerprint" not in pairs.run_once(tmp_path, "udp_stream", 3, 10)
