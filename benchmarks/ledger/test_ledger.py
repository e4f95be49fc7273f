"""Smoke run, schema and attribution self-tests of the perf ledger.

    python -m pytest benchmarks/ledger -q

Not part of tier 1 (``testpaths`` is ``tests``).  Nothing here asserts a
wall-clock threshold: the smoke run checks outputs and schema, and the
attribution tests compare a run with itself after a slowdown was planted
in one op.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
from run import DEFAULT_SECONDS, WORKLOAD_NAMES  # noqa: E402

PLANT_MICROS = 200


def run_ledger(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


def worker(workload: str, trace: bool, plant: str = None) -> dict:
    """One smoke-sized worker run; returns the document it printed."""
    spec = {"workload": workload, "seed": 5, "seconds": DEFAULT_SECONDS,
            "smoke": True, "trace": trace, "probes": False, "plant": plant}
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    document = json.loads(done.stdout.strip().splitlines()[-1])
    assert document["correct"], document["checks"]
    return document


def test_benchmark_json_names_the_ledger_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/ledger"]
    assert spec["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert spec["run_seconds"] == DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(m) for m in ledger.DRIVER_END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [tuple(m) for m in ledger.PER_LAYER]
    assert len(spec["per_layer"]) <= 128


def test_smoke_runs_all_six_workloads_and_every_check():
    done = run_ledger("--smoke")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]
    for name in WORKLOAD_NAMES:
        assert f"== {name} " in done.stdout
    assert "all checks passed" in done.stdout
    assert "schema:" not in done.stdout
    for name in WORKLOAD_NAMES:
        assert (ledger.OUT_DIR / f"trace-{name}.json").is_file()


def test_driver_line_carries_exactly_the_declared_metrics():
    for trace, units in (("0", ledger.DRIVER_E2E_UNITS), ("1", ledger.LAYER_UNITS)):
        done = run_ledger("--workload", "async_stream", "--smoke", "--seed", "3",
                          "--seconds", "10", "--trace", trace)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] >= 1
        assert set(line["metrics"]) == set(units)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, exit non-zero, no result."""
    target = tmp_path / "benchmarks" / "ledger"
    target.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (target / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "udp_pull",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# -- attribution -------------------------------------------------------------

def worsened_beyond_bound(base: dict, other: dict) -> list:
    """End-to-end metrics of ``other`` worse than ``base`` by more than
    their bound."""
    return [name for name, _unit, better, bound in ledger.END_TO_END
            if name in base["end_to_end"]
            and ledger.worsening(better, base["end_to_end"][name],
                                 other["end_to_end"][name]) > bound]


def assert_attributed(op: str, workload: str, metric: str, bypassing: str) -> None:
    """Plant a busy-wait in ``op`` and require that (1) the traced run puts
    the added time in that op's self time and not in its caller's, (2) the
    predicted end-to-end ``metric`` moves on ``workload``, and (3) the
    workload that bypasses the op never calls it and stays inside every
    bound."""
    plant = f"{op}:{PLANT_MICROS}"
    base = worker(workload, trace=True)
    slowed = worker(workload, trace=True, plant=plant)
    calls = slowed["per_layer"][f"{op}.calls"]
    assert calls > 0
    planted_s = calls * PLANT_MICROS / 1e6

    def busy(document: dict) -> dict:
        return {name[:-len(".busy_s")]: value
                for name, value in document["per_layer"].items()
                if name.endswith(".busy_s")}

    added = {name: busy(slowed)[name] - value for name, value in busy(base).items()}
    assert added[op] >= 0.7 * planted_s, (added[op], planted_s)
    elsewhere = {name: value for name, value in added.items() if name != op}
    worst = max(elsewhere, key=elsewhere.get)
    assert elsewhere[worst] < 0.3 * planted_s, (worst, elsewhere[worst], planted_s)

    before = worker(workload, trace=False)
    after = worker(workload, trace=False, plant=plant)
    _name, _unit, better, bound = next(
        entry for entry in ledger.END_TO_END if entry[0] == metric)
    moved = ledger.worsening(better, before["end_to_end"][metric],
                             after["end_to_end"][metric])
    assert moved > bound, (metric, before["end_to_end"][metric],
                           after["end_to_end"][metric])

    assert worker(bypassing, trace=True, plant=plant)["per_layer"][f"{op}.calls"] == 0
    # Host noise can push a toy-sized run past a bound by itself; a real
    # effect would do so every time, so one clean pair out of three settles it.
    for _attempt in range(3):
        offenders = worsened_beyond_bound(worker(bypassing, trace=False),
                                          worker(bypassing, trace=False, plant=plant))
        if not offenders:
            break
    assert not offenders, offenders


def test_planted_decode_slowdown_lands_in_wire_binary_and_udp_cpu():
    assert_attributed("wire.binary.decode", "udp_stream", "cpu_us_per_delivery",
                      bypassing="serial_stream")


def test_planted_truncate_slowdown_lands_in_core_view_and_churn_rounds():
    assert_attributed("core.view.truncate", "serial_churn_pull",
                      "node_rounds_per_s", bypassing="columnar_mega")
