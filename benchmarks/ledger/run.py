"""The perf ledger: one command for every end-to-end and per-layer number.

    python benchmarks/ledger/run.py                      # six workloads, end to end
    python benchmarks/ledger/run.py --trace              # ... plus the per-layer budget
    python benchmarks/ledger/run.py --workload udp_pull --seed 7
    python benchmarks/ledger/run.py --smoke              # toy sizes, checks + schema only
    python benchmarks/ledger/run.py --record --compare   # history.jsonl

Every workload runs in a fresh subprocess (``worker.py``), one after
another; inputs come from ``--seed``; outputs are checked; every metric is
printed by name with its unit.  With ``--workload`` the last line of
standard output is the JSON object ``BENCHMARK.json``'s driver reads.  The
exit status is non-zero if any correctness check fails.  README.md defines
the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from typing import Dict, List, Optional

import ledger

DEFAULT_SECONDS = 10
CHILD_TIMEOUT_S = 170
WORKLOAD_NAMES = ("serial_stream", "serial_churn_pull", "async_stream",
                  "columnar_mega", "udp_stream", "udp_pull")


def run_child(spec: Dict[str, object]) -> Dict[str, object]:
    """Run one worker subprocess and return the document it printed."""
    done = subprocess.run(
        [sys.executable, str(ledger.HERE / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, cwd=ledger.ROOT)
    if done.returncode != 0:
        raise RuntimeError(
            f"worker for {spec['workload']} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_one(name: str, args, driver: bool) -> Dict[str, object]:
    """The untraced run of one workload, then (``--trace``) the traced
    rerun at identical size.  End-to-end metrics always come from the
    untraced run; the difference between the two is the tracing overhead."""
    spec = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "trace": False,
            "probes": not args.trace and not driver}
    spin_before = ledger.spin_seconds()
    result = run_child(spec)
    if args.trace:
        traced = run_child(dict(spec, trace=True, probes=True))
        traced["per_layer"]["bench.trace_overhead_ratio"] = (
            traced["info"]["window_wall_s"] / result["info"]["window_wall_s"])
        result["per_layer"] = traced["per_layer"]
        result["trace_file"] = traced["trace_file"]
        result["spans"] = traced["spans"]
        result["traced_checks"] = traced["checks"]
        result["correct"] = result["correct"] and traced["correct"]
    result["host_spin_s"] = {"before": spin_before, "after": ledger.spin_seconds()}
    return result


def schema_problems(result: Dict[str, object], traced: bool) -> List[str]:
    """What a smoke run asserts besides the checks: every metric present,
    finite, and (end to end) never zero."""
    problems = []
    for name in ledger.DRIVER_E2E_UNITS:
        value = result["end_to_end"].get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
            problems.append(f"end_to_end {name} = {value!r}")
    if traced:
        for name in ledger.LAYER_UNITS:
            value = result["per_layer"].get(name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"per_layer {name} = {value!r}")
    if result["attempted"] < 1 or result["failed"] < 0:
        problems.append("attempted/failed out of range")
    return problems


def print_result(result: Dict[str, object], traced: bool, host) -> None:
    info = result["info"]
    print(f"== {result['workload']}  seed={result['seed']} "
          f"seconds={result['seconds']}")
    print(f"  sizes: {json.dumps(result['sizes'], sort_keys=True)}")
    print("  end to end:")
    for line in ledger.format_metrics(result["end_to_end"], ledger.E2E_UNITS, "    "):
        print(line)
    high = info["latency_highest_supported_percentile"]
    tail = (f"; p{high:.4g} = {info['latency_highest_supported_periods']:.4g} "
            "periods (ungated)" if high is not None else "")
    print(f"    latency samples: {info['latency_samples']}{tail}")
    each = ", ".join(f"{wall:.3f}" for wall in info["window_wall_s_each"])
    print(f"    window wall s: {each} by instance; {info['window_wall_s']:.3f} "
          f"with every step at its fastest; host at {info['host_speed']:.3g}x "
          "the reference spin")
    print(f"    operations: attempted {result['attempted']}, failed "
          f"{result['failed']} (delivered_fraction floor {info['floor']}); "
          f"drained for {info['drained']:.3g} periods")
    if info.get("fingerprint"):
        print(f"    counter fingerprint: {info['fingerprint']}")
    if result["validity"]:
        broken = sorted(name for name, kept in result["validity"].items() if not kept)
        print(f"    open loop: generator late p99 {info['generator_late_p99_ms']:.3g} ms "
              f"(limit {info['generator_late_limit_ms']:.3g}), "
              f"{info['cpu_util']:.3g} core (limit {info['cpu_util_limit']:.3g}): "
              + (f"INVALID WINDOW ({', '.join(broken)}), latency here measures "
                 "the host" if broken else "valid"))
    spin = result["host_spin_s"]
    print(f"    host.spin_s before {spin['before']:.4f} after {spin['after']:.4f}; "
          f"nproc {host['nproc']}; {host['platform']}; python {host['python']}; "
          f"numpy {host['numpy']}")
    if traced:
        print(f"  per layer ({result['spans']} spans in {result['trace_file']}; "
              "layers that did no work are omitted, they read 0):")
        for line in ledger.format_metrics(result["per_layer"], ledger.LAYER_UNITS,
                                          "    ", skip_zero=True):
            print(line)
    checks = dict(result["checks"])
    for name, passed in result.get("traced_checks", {}).items():
        checks[name] = checks.get(name, True) and passed
    failed = sorted(name for name, passed in checks.items() if not passed)
    print(f"  checks: {len(checks) - len(failed)}/{len(checks)} passed"
          + (f"; FAILED: {', '.join(failed)}" if failed else ""))


def parse(argv: Optional[List[str]]):
    parser = argparse.ArgumentParser(
        description="lpbcast perf ledger (see benchmarks/ledger/README.md)")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the stream each window publishes")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="also rerun traced for per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes (traced unless --workload is given); "
                             "asserts checks and schema only")
    parser.add_argument("--record", action="store_true",
                        help="append this run to history.jsonl")
    parser.add_argument("--compare", action="store_true",
                        help="compare with the last same-host history entry")
    args = parser.parse_args(argv)
    if args.smoke and args.workload is None:
        args.trace = 1
    return args


def main(argv: Optional[List[str]] = None) -> int:
    ledger.src_path()       # refuse to run without the program beside us
    args = parse(argv)
    driver = args.workload is not None
    names = (args.workload,) if driver else WORKLOAD_NAMES
    host = ledger.host_fingerprint()
    traced = bool(args.trace)
    started = time.perf_counter()

    results: Dict[str, Dict[str, object]] = {}
    correct = True
    for name in names:
        result = run_one(name, args, driver)
        if args.smoke:
            problems = schema_problems(result, traced)
            for problem in problems:
                print(f"  schema: {problem}")
            result["correct"] = result["correct"] and not problems
        print_result(result, traced, host)
        correct = correct and result["correct"]
        results[name] = result

    entry = {
        "commit": ledger.commit_id(),
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host,
        "host_spin_s": {"before": results[names[0]]["host_spin_s"]["before"],
                        "after": results[names[-1]]["host_spin_s"]["after"]},
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "workloads": {
            name: {key: result[key] for key in ("sizes", "end_to_end", "validity",
                                                "per_layer") if key in result}
            for name, result in results.items()},
    }
    if args.compare:
        reference = ledger.last_like(entry)
        if reference is None:
            print("compare: history.jsonl has no entry from this host with "
                  "this seed and --seconds")
        else:
            for line in ledger.compare(reference, entry):
                print(line)
    if args.record:
        ledger.record(entry)
        print(f"recorded {entry['commit']} in {ledger.HISTORY.relative_to(ledger.ROOT)}")

    print(f"ledger: {len(names)} workload(s) in "
          f"{time.perf_counter() - started:.1f} s, "
          + ("all checks passed" if correct else "CHECKS FAILED"))
    if driver:
        result = results[args.workload]
        metrics = (ledger.as_metric_objects(result["per_layer"], ledger.LAYER_UNITS)
                   if traced else
                   ledger.as_metric_objects(result["end_to_end"],
                                            ledger.DRIVER_E2E_UNITS))
        print(json.dumps({"correct": bool(correct), "attempted": result["attempted"],
                          "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
