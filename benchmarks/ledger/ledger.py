"""The ledger's vocabulary: metric names, units, directions and bounds,
the quantile definitions, the host fingerprint, and the history file.

``BENCHMARK.json`` at the repository root repeats :data:`DRIVER_END_TO_END`
and :data:`PER_LAYER` for the driver; ``test_ledger.py`` holds them in step.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from spans import OP_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
HISTORY = HERE / "history.jsonl"

#: (name, unit, better, bound).  ``bound`` is the share of the reference
#: median by which the metric may worsen before it counts as a regression.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("deliveries_per_s", "1/s", "higher", 0.25),
    ("node_rounds_per_s", "1/s", "higher", 0.25),
    ("cpu_us_per_delivery", "us", "lower", 0.25),
    ("latency_p50_periods", "periods", "lower", 0.25),
    ("latency_p99_periods", "periods", "lower", 0.25),
    ("delivered_fraction", "ratio", "higher", 0.005),
    ("messages_per_delivery", "ratio", "lower", 0.05),
    ("bytes_per_delivery", "B", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Defined on the UDP workloads only: nothing else puts bytes on a wire.
#: The driver of ``BENCHMARK.json`` wants each of its end-to-end metrics
#: from every workload and never zero, so there this one is listed among
#: the per-layer metrics (no bound, 0 on the sim workloads); the ledger's
#: own ``--compare`` holds it to its bound where it is defined.
UDP_ONLY = frozenset({"bytes_per_delivery"})
DRIVER_END_TO_END = tuple(entry for entry in END_TO_END
                          if entry[0] not in UDP_ONLY)

#: End-to-end metrics measured on the host's clock.
HOST_TIME = frozenset({"setup_s", "deliveries_per_s", "node_rounds_per_s",
                       "cpu_us_per_delivery"})
#: Counts and simulated time: on the deterministic workloads these repeat
#: exactly per seed, so between two commits any difference is the code's.
#: One bound per metric has to clear the UDP workloads' run-to-run spread
#: and so gates nothing here; ``--compare`` reports the exact verdict.
EXACT = frozenset({"latency_p50_periods", "latency_p99_periods",
                   "delivered_fraction", "messages_per_delivery"})
DETERMINISTIC = frozenset({"serial_stream", "serial_churn_pull",
                           "async_stream", "columnar_mega"})

_COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("core.node.useless_receive_ratio", "ratio", "lower"),
    ("core.node.redeliveries", "count", "lower"),
    ("core.retransmit.recovered_ratio", "ratio", "higher"),
    ("core.subscription.leave_refusals", "count", "lower"),
    ("wire.binary.bytes_per_message", "B", "lower"),
    ("wire.frame.messages_per_datagram", "ratio", "higher"),
    ("wire.frame.splits", "count", "lower"),
    ("wire.frame.oversize", "count", "lower"),
    ("wire.varint.write_ns", "ns", "lower"),
    ("wire.varint.read_ns", "ns", "lower"),
    ("faults.injector.dropped", "count", "lower"),
    ("faults.injector.duplicated", "count", "lower"),
    ("faults.injector.delayed", "count", "lower"),
    ("telemetry.tracing_overhead_ratio", "ratio", "lower"),
    ("sim.round_runner.time_round_s", "s", "lower"),
    ("sim.round_runner.time_tick_s", "s", "lower"),
    ("sim.round_runner.time_delivery_s", "s", "lower"),
    ("sim.round_runner.time_observers_s", "s", "lower"),
    ("sim.parallel_runner.rounds_per_s", "1/s", "higher"),
    ("sim.parallel_runner.sync_s", "s", "lower"),
    ("sim.parallel_runner.fingerprint_equal", "count", "higher"),
    ("sim.parallel_runner.speedup_vs_serial", "ratio", "higher"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.events_per_s", "1/s", "higher"),
    ("sim.columnar_runner.run_round.p50_s", "s", "lower"),
    ("sim.columnar_runner.run_round.max_s", "s", "lower"),
    ("sim.columnar_runner.memory_bytes", "B", "lower"),
    ("sim.columnar_runner.bytes_per_node", "B", "lower"),
    ("sim.columnar_shm.rounds_per_s_w1", "1/s", "higher"),
    ("sim.columnar_shm.rounds_per_s_wN", "1/s", "higher"),
    ("sim.columnar_shm.speedup", "ratio", "higher"),
    ("sim.columnar_shm.honoured_fingerprint_equal", "count", "higher"),
    ("sim.columnar_shm.shm_leaked", "count", "lower"),
    ("runtime.udp.sent", "count", "lower"),
    ("runtime.udp.received", "count", "higher"),
    ("runtime.udp.bytes_sent", "B", "lower"),
    ("runtime.udp.lost_injected", "count", "lower"),
    ("runtime.udp.send_errors", "count", "lower"),
    ("runtime.udp.decode_errors", "count", "lower"),
    ("runtime.udp.truncated", "count", "lower"),
    ("runtime.udp.tick_late_p50_ms", "ms", "lower"),
    ("runtime.udp.tick_late_p99_ms", "ms", "lower"),
    ("runtime.udp.cpu_util", "ratio", "lower"),
    ("runtime.udp.threads", "count", "lower"),
    ("bench.generator.late_p99_ms", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
) + tuple(entry[:3] for entry in END_TO_END if entry[0] in UDP_ONLY)

#: (name, unit, better) of every per-layer metric: ``calls`` and ``busy_s``
#: per traced op, then the counters and probes.  A layer that does no work
#: on a workload reads 0 there — the "≠" predictions of README.md.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    entry for op in OP_NAMES
    for entry in ((f"{op}.calls", "count", "lower"),
                  (f"{op}.busy_s", "s", "lower"))
) + _COUNTERS

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
DRIVER_E2E_UNITS = {name: unit for name, unit, _, _ in DRIVER_END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# Quantiles
# ---------------------------------------------------------------------------

def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending sample."""
    if not sorted_values:
        raise ValueError("quantile of an empty sample")
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return (sorted_values[low]
            + (sorted_values[high] - sorted_values[low]) * (position - low))


def grouped_quantile(histogram: Dict[int, int], q: float) -> float:
    """Quantile of whole-round latencies.  A round engine only knows that
    a delivery counted at round ``k`` happened somewhere in ``(k-1, k]``
    periods after the publish, so the sample is grouped data: the quantile
    is interpolated inside the group that holds it.  Unlike the raw order
    statistic this moves smoothly with the distribution instead of
    jumping a whole period when a few deliveries shift."""
    total = sum(histogram.values())
    if not total:
        raise ValueError("quantile of an empty histogram")
    target = q * total
    below = 0
    for latency in sorted(histogram):
        count = histogram[latency]
        if below + count >= target:
            return (latency - 1) + (target - below) / count
        below += count
    return float(max(histogram))


def highest_supported_percentile(samples: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it."""
    if samples < 20:
        return None
    return 100.0 * (1.0 - 10.0 / samples)


# ---------------------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------------------

def spin_seconds(iterations: int = 2_000_000, clock=time.perf_counter) -> float:
    """A fixed pure-Python loop, timed: how fast this host runs the
    interpreter right now.  Taken before and after every run so a slow
    minute on a shared box is visible beside the numbers it distorted."""
    start = clock()
    total = 0
    for value in range(iterations):
        total += value & 7
    return clock() - start


#: What one iteration of that loop costs on the host the ledger was first
#: measured on when nothing else runs there.  Host times are stated at this
#: speed (README, "Host time at reference speed"); the value itself is
#: arbitrary and must not change, or the figures stop being comparable.
SPIN_REFERENCE_NS = 35.0
GAUGE_ITERATIONS = 20_000


def gauge() -> float:
    """One sample of the host's speed right now: the spin loop, briefly,
    on the calling thread's own CPU clock."""
    return spin_seconds(GAUGE_ITERATIONS, time.thread_time)


def host_speed(samples: Sequence[float]) -> float:
    """How many times slower than the reference host the gauge ran
    (median of ``samples``; 1.0 is the reference, more is slower)."""
    return (statistics.median(samples) / GAUGE_ITERATIONS * 1e9
            / SPIN_REFERENCE_NS)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> Dict[str, object]:
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def commit_id() -> str:
    """HEAD, marked when the working tree differs from it (the run that
    first measures a change is made before the change is committed)."""
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, text=True,
                                  capture_output=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    head = git("rev-parse", "--short=12", "HEAD")
    if head is None:
        return "unknown"
    return head + ("+uncommitted" if git("status", "--porcelain") else "")


# ---------------------------------------------------------------------------
# History and comparison
# ---------------------------------------------------------------------------

def record(entry: Dict[str, object]) -> None:
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def last_like(current: Dict[str, object]) -> Optional[Dict[str, object]]:
    """The last recorded entry from the same host with the same seed and
    sizes-determining arguments as ``current``."""
    keys = ("host", "seed", "seconds", "smoke")
    if not HISTORY.exists():
        return None
    found = None
    with open(HISTORY, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            if all(entry.get(key) == current[key] for key in keys):
                found = entry
    return found


def worsening(better: str, reference: float, value: float) -> float:
    """Share of ``reference`` by which ``value`` is worse (negative: better)."""
    if reference == 0:
        return 0.0 if value == 0 else float("inf")
    change = (value - reference) / abs(reference)
    return change if better == "lower" else -change


def verdict(name: str, better: str, bound: float, reference: float,
            value: float, spin_change: float) -> str:
    """better / within bound / worse / unresolved.  A host-time metric is
    *unresolved* rather than worse when the host's own spin loop moved by
    more than the metric's bound between the two entries: the box changed
    speed, and the difference cannot be pinned on the code."""
    worse_by = worsening(better, reference, value)
    if worse_by < -bound:
        return "better"
    if worse_by <= bound:
        return "within bound"
    if name in HOST_TIME and abs(spin_change) > bound:
        return "unresolved"
    return "worse"


def compare(reference: Dict[str, object], current: Dict[str, object]) -> List[str]:
    """One line per (workload, metric) against ``reference``."""
    spin_then = reference["host_spin_s"]["before"]
    spin_now = current["host_spin_s"]["before"]
    spin_change = (spin_now - spin_then) / spin_then
    lines = [f"against {reference['commit']} recorded {reference['recorded_at']}"
             f" (host.spin_s {spin_then:.4f} -> {spin_now:.4f},"
             f" {spin_change:+.1%})"]
    for workload, result in current["workloads"].items():
        then = reference["workloads"].get(workload)
        if then is None or then["sizes"] != result["sizes"]:
            lines.append(f"  {workload}: no entry of the same size to compare")
            continue
        valid = all(then.get("validity", {}).values()) and all(
            result.get("validity", {}).values())
        for name, _unit, better, bound in END_TO_END:
            if name not in result["end_to_end"]:
                continue            # not defined on this workload
            old, new = then["end_to_end"][name], result["end_to_end"][name]
            status = verdict(name, better, bound, old, new, spin_change)
            if not valid:
                status = "unresolved, invalid window"
            if name in EXACT and workload in DETERMINISTIC:
                status += ", identical" if old == new else ", CHANGED"
            lines.append(
                f"  {workload:18s} {name:22s} {old:14.6g} -> {new:14.6g}  "
                f"{worsening(better, old, new):+8.2%} worse  [{status}]")
    return lines


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def format_metrics(values: Dict[str, float], units: Dict[str, str],
                   indent: str = "  ", skip_zero: bool = False) -> Iterable[str]:
    for name, value in values.items():
        if skip_zero and not value:
            continue
        yield f"{indent}{name:46s} {value:16.6g} {units.get(name, '')}"


def as_metric_objects(values: Dict[str, float],
                      units: Dict[str, str]) -> Dict[str, Dict[str, object]]:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def src_path() -> Path:
    """The program's source directory; absent in a checkout that holds only
    the benchmark, which must then refuse to run."""
    path = ROOT / "src"
    if not (path / "repro" / "__init__.py").is_file():
        print(f"ledger: {path}/repro not found — the benchmark measures the "
              "repository it sits in and cannot run without it", file=sys.stderr)
        raise SystemExit(2)
    return path
