"""One workload in one fresh process; ``run.py`` starts it and reads the
JSON document it prints as its last line.

    python benchmarks/ledger/worker.py '<json spec>'

The spec names the workload, seed, seconds, whether the run is a smoke run,
whether spans are recorded, whether the workload's probes run afterwards,
and (attribution self-test only) an op to slow down.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from typing import Dict, List

import ledger

sys.path.insert(0, str(ledger.src_path()))

import probes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.wire import check_golden_vectors  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(workload: workloads.Workload) -> Dict[str, object]:
    """Build, measure and tear down the workload's instances.

    Untraced, the workload is measured on ``workload.replays`` fresh
    instances.  Replays of a deterministic workload get the same inputs
    and must reproduce the first instance's outputs; the windows of a
    real-time one are pooled.  Either way the instances cut their windows
    into the same steps, and the host-time metrics charge each step what
    its fastest instance took, at the reference host's speed: on this host
    interference only ever adds time, in bursts of seconds that the first
    removes and stretches of minutes that the second does.  ``setup_s`` is
    the median of the run's set-ups.  A traced run does everything once."""
    checks: Dict[str, bool] = {}

    def note(found: Dict[str, bool]) -> None:
        for name, passed in found.items():
            checks[name] = checks.get(name, True) and passed

    shm_before = workloads.shm_entries()
    traced = workload.tracer is not None
    setup_times: List[float] = []

    def run_instance(measured: bool = True) -> workloads.Window:
        start = time.perf_counter()
        instance = workload.setup()
        setup_time = time.perf_counter() - start
        after_setup = [ledger.gauge() for _ in range(5)]
        window = workloads.Window()
        if measured:
            workload.measure(instance, window)
        note(workload.teardown(instance, window))
        if instance.recorder is not None:
            window.layer["core.node.redeliveries"] = sum(
                instance.recorder.redeliveries_by_pid)
        # Host times are stated at the reference host's speed (README).
        host_time = workload.wall_is_host_time
        window.state_at_reference_speed(
            ledger.host_speed(window.gauge or after_setup), wall_too=host_time)
        setup_times.append(
            setup_time / ledger.host_speed(after_setup) if host_time else setup_time)
        return window

    if not traced:
        for _ in range(workload.spare_setups):
            run_instance(measured=False)
    windows = [run_instance() for _ in range(1 if traced else workload.replays)]
    window = windows[0]
    if any(len(other.steps) != len(window.steps) for other in windows):
        raise RuntimeError("instances cut their windows into different steps")
    walls_each = [each.wall_s for each in windows]
    wall_s, cpu_s = (
        sum(min(each.steps[index][column] for each in windows)
            for index in range(len(window.steps)))
        for column in (0, 1))
    if workload.deterministic:
        note({"replays_reproduce_outputs": all(
            other.outputs() == window.outputs() for other in windows[1:])})
    else:
        for other in windows[1:]:
            window.pool(other)
        wall_s, cpu_s = wall_s * window.pooled, cpu_s * window.pooled

    note({"no_shm_residue": workloads.shm_entries() <= shm_before})
    floor = workloads.FRACTION_FLOOR
    fraction = window.deliveries / window.expected
    # An invalid window's fraction measures the host it ran on, not the
    # program: it is reported, and proves nothing either way.
    if all(window.validity.values()):
        note({"delivered_fraction_above_floor": fraction >= floor})

    if window.latency_histogram is not None:
        histogram = window.latency_histogram

        def latency(q: float) -> float:
            return ledger.grouped_quantile(histogram, q)
    else:
        ordered = sorted(value / window.period_s for value in window.latencies)

        def latency(q: float) -> float:
            return ledger.quantile(ordered, q)
    high = ledger.highest_supported_percentile(window.deliveries)

    deliveries = window.deliveries
    values = {
        "setup_s": statistics.median(setup_times),
        "deliveries_per_s": deliveries / wall_s,
        "node_rounds_per_s": window.node_periods / wall_s,
        "cpu_us_per_delivery": cpu_s / deliveries * 1e6,
        "latency_p50_periods": latency(0.50),
        "latency_p99_periods": latency(0.99),
        "delivered_fraction": fraction,
        "messages_per_delivery": window.messages / deliveries,
        "peak_rss_mb": peak_rss_mb(),
    }
    if window.bytes is not None:
        values["bytes_per_delivery"] = window.bytes / deliveries
    end_to_end = {name: values[name] for name in ledger.E2E_UNITS if name in values}
    info = dict(window.info)
    info.update({
        "latency_samples": deliveries,
        "latency_highest_supported_percentile": high,
        "latency_highest_supported_periods":
            latency(high / 100.0) if high is not None else None,
        "window_wall_s_each": walls_each,
        "setups": len(setup_times),
        "window_wall_s": wall_s / window.pooled,
        "floor": floor,
        "fingerprint": window.fingerprint,
    })
    return {
        "workload": workload.name, "seed": workload.seed,
        "seconds": workload.seconds, "sizes": workload.sizes,
        "end_to_end": end_to_end, "attempted": window.expected,
        "failed": window.expected - deliveries, "checks": checks,
        "validity": window.validity,
        "info": info, "layer": window.layer, "period_s": window.period_s,
    }


def per_layer(document: dict, result: Dict[str, object]) -> Dict[str, float]:
    """Every per-layer metric of one traced run, 0 where the layer did no
    work.  Computed from the span file plus the run's end-of-run counters."""
    totals = spans.layer_totals(document)
    counts = document["counts"]
    layer = result["layer"]
    values = {name: 0.0 for name in ledger.LAYER_UNITS}
    for op in spans.OP_NAMES:
        values[f"{op}.calls"] = totals[op]["calls"]
        values[f"{op}.busy_s"] = totals[op]["busy_s"]
    for name, value in layer.items():
        if name in values:
            values[name] = value

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    values["core.node.useless_receive_ratio"] = ratio(
        counts.get("core.node.useless_receives", 0),
        totals["core.node.receive"]["calls"])
    values["core.retransmit.recovered_ratio"] = ratio(
        layer.get("core.retransmit.retransmits_delivered", 0),
        layer.get("core.retransmit.retransmit_requests_sent", 0))
    values["core.subscription.leave_refusals"] = counts.get(
        "core.subscription.leave_refusals", 0)
    values["wire.binary.bytes_per_message"] = ratio(
        counts.get("wire.binary.encoded_bytes", 0),
        totals["wire.binary.encode"]["calls"])
    values["wire.frame.messages_per_datagram"] = ratio(
        counts.get("wire.frame.messages", 0), counts.get("wire.frame.datagrams", 0))
    values["sim.engine.events_per_s"] = ratio(
        layer.get("sim.engine.events", 0),
        totals["sim.async_runner.run_until"]["total_s"])
    values["bytes_per_delivery"] = result["end_to_end"].get("bytes_per_delivery", 0.0)

    rounds = sorted(end - start for start, end, _pid, _round in
                    spans.span_rows(document, "sim.columnar_runner.run_round"))
    if rounds:
        values["sim.columnar_runner.run_round.p50_s"] = ledger.quantile(rounds, 0.5)
        values["sim.columnar_runner.run_round.max_s"] = rounds[-1]

    if "runtime.udp.sent" in layer:
        # The wait the timer loop imposes: the interval between one host's
        # successive on_tick calls, minus the period it was asked to keep.
        starts: Dict[int, List[float]] = {}
        for start, _end, pid, _round in spans.span_rows(document, "core.node.tick"):
            starts.setdefault(pid, []).append(start)
        late = sorted(
            (later - earlier - result["period_s"]) * 1e3
            for times in starts.values()
            for earlier, later in zip(sorted(times), sorted(times)[1:]))
        if late:
            values["runtime.udp.tick_late_p50_ms"] = ledger.quantile(late, 0.5)
            values["runtime.udp.tick_late_p99_ms"] = ledger.quantile(late, 0.99)
    return values


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    name = spec["workload"]
    tracer = None
    golden = check_golden_vectors() > 0
    if spec.get("plant"):
        op, micros = spec["plant"].split(":")
        spans.plant_delay(op, float(micros))
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[name](
        spec["seed"], spec["seconds"], spec["smoke"], tracer)

    result = run_workload(workload)
    result["checks"]["golden_wire_vectors"] = golden

    if tracer is not None:
        tracer.uninstall()
        ledger.OUT_DIR.mkdir(exist_ok=True)
        path = ledger.OUT_DIR / f"trace-{name}.json"
        result["spans"] = tracer.dump(path)
        result["trace_file"] = str(path.relative_to(ledger.ROOT))
        document = spans.load_spans(path)
        result["per_layer"] = per_layer(document, result)

    if spec["probes"]:
        extra: Dict[str, float] = {}
        if tracer is not None:
            extra.update(probes.varint_replay(tracer.captured_datagrams))
        home = probes.HOME_PROBES.get(name)
        if home is not None:
            metrics, checks = home(spec["seed"], spec["smoke"])
            extra.update(metrics)
            result["checks"].update(checks)
        result["probes"] = extra
        if tracer is not None:
            result["per_layer"].update(extra)

    result["correct"] = all(result["checks"].values())
    del result["layer"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
