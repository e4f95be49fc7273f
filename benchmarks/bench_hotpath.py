"""Hot-path throughput benchmarks + the perf-regression harness.

This is the measurement side of the round-engine hot-path work: four small
benchmarks covering the paths the optimization touched, written to
``BENCH_hotpath.json`` at the repo root in a fixed, schema-validated shape
so successive runs (and future PRs) are comparable:

* ``node_tick`` — one warmed lpbcast node's ``on_tick`` throughput
  (gossip construction, membership payload, view/buffer truncation);
* ``node_receive`` — ``handle_message`` throughput against a pre-built
  gossip stream (digest processing, membership phases I/II, delivery);
* ``serial_round_loop`` — the end-to-end serial engine at n=5000, the
  scenario behind the "≥1.5x rounds/s" acceptance bar;
* ``shard_sync`` — the sharded engine's cross-shard payload exchange,
  read straight from the ``time.shard.sync`` phase timer;
* ``codec`` — wire-codec encode/decode throughput and encoded size over a
  captured corpus of real gossip traffic, for both the JSON and binary
  formats, plus the golden byte-vector check and the decode fast-path
  speedup against the recorded pre-cursor baseline;
* ``columnar`` — the mega-scale columnar engine: wall-clock for n=100,000
  over 20 rounds (acceptance bar: under 60 s), the columnar-vs-serial
  rounds/s speedup at the serial loop's n (bar: ≥20x), and a fixed-seed
  honoured-subset parity check against the serial engine;
* ``mega_1m`` — the bit-packed engine at n=1,000,000 (full mode; the
  ``--check`` smoke runs n=200,000 over ``workers=2``): build and round
  wall-clock, peak RSS via ``resource.getrusage``, resident state
  bytes-per-node, and a workers=1 vs workers=N honoured-fingerprint
  cross-check (bars, full mode: build + 10 rounds ≤ 120 s, ≤ 8 GB RSS);
* ``multicore`` — shared-memory speedup at n=100,000: the same scenario
  timed at workers=1 and workers=N with byte-identical honoured
  fingerprints required (speed bar ≥2x, enforced in full mode only when
  the host has ≥4 cores — worker count is always explicit, never derived
  from the machine).

``--check`` runs the same code at reduced sizes and asserts only
*correctness* properties — the emitted document validates against the
schema, the serial/sharded engines produce identical counter fingerprints,
the columnar honoured subset matches serial, both mega sections'
worker-count parity holds, the golden byte vectors hold and the binary
codec stays ≥2x smaller than JSON — never wall-clock thresholds, so it is
safe on noisy shared CI runners.  The wall-clock acceptance bars (60 s /
20x / 120 s / 8 GB / 2x-on-4-cores) are enforced in full mode only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not any(os.path.basename(p) == "src" for p in sys.path):
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core import LpbcastConfig  # noqa: E402
from repro.core.message import GossipMessage  # noqa: E402
from repro.sim import (  # noqa: E402
    NetworkModel,
    build_lpbcast_nodes,
    create_simulation,
)

SCHEMA_VERSION = 4

#: Binary decode throughput recorded before the varint local-offset-cursor
#: fast path landed (same corpus, same machine class) — the denominator of
#: the codec section's ``decode_speedup_vs_baseline``.
DECODE_BASELINE_PER_SEC = 73_933.3

#: The document contract, checked by :func:`validate`: each leaf is the
#: required type (a tuple means "any of these types").  Kept dependency-free
#: on purpose — the container has no jsonschema.
SCHEMA = {
    "schema_version": int,
    "mode": str,
    "python": str,
    "platform": str,
    "results": {
        "node_tick": {
            "iterations": int,
            "seconds": float,
            "ticks_per_sec": float,
        },
        "node_receive": {
            "iterations": int,
            "seconds": float,
            "messages_per_sec": float,
        },
        "serial_round_loop": {
            "n": int,
            "rounds": int,
            "seconds": float,
            "rounds_per_sec": float,
        },
        "shard_sync": {
            "n": int,
            "shards": int,
            "rounds": int,
            "sync_count": int,
            "sync_seconds_total": float,
            "sync_seconds_mean": float,
        },
        "parity": {
            "n": int,
            "rounds": int,
            "serial_sha256": str,
            "sharded_sha256": str,
            "agree": bool,
        },
        "columnar": {
            "backend": str,
            "mega_n": int,
            "mega_rounds": int,
            "mega_seconds": float,
            "mega_rounds_per_sec": float,
            "speedup_n": int,
            "speedup_rounds": int,
            "serial_rounds_per_sec": float,
            "columnar_rounds_per_sec": float,
            "speedup": float,
            "honoured_parity": bool,
        },
        "mega_1m": {
            "n": int,
            "rounds": int,
            "workers": int,
            "build_seconds": float,
            "run_seconds": float,
            "seconds_total": float,
            "rounds_per_sec": float,
            "peak_rss_bytes": int,
            "workers_peak_rss_bytes": int,
            "state_bytes": int,
            "bytes_per_node": float,
            "parity_n": int,
            "parity_workers": int,
            "honoured_parity": bool,
        },
        "multicore": {
            "n": int,
            "rounds": int,
            "workers": int,
            "cores": int,
            "single_rounds_per_sec": float,
            "multi_rounds_per_sec": float,
            "speedup": float,
            "honoured_parity": bool,
        },
        "codec": {
            "corpus_n": int,
            "corpus_gossips": int,
            "json_bytes_per_gossip": float,
            "binary_bytes_per_gossip": float,
            "compression_ratio": float,
            "json_encode_per_sec": float,
            "json_decode_per_sec": float,
            "binary_encode_per_sec": float,
            "binary_decode_per_sec": float,
            "decode_baseline_per_sec": float,
            "decode_speedup_vs_baseline": float,
            "golden_vectors_ok": bool,
        },
    },
}


def validate(doc, spec=SCHEMA, path="$"):
    """Recursively check ``doc`` against ``spec``; raises ValueError with
    the offending path on a missing key or type mismatch."""
    if isinstance(spec, dict):
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: expected object, got {type(doc).__name__}")
        for key, sub in spec.items():
            if key not in doc:
                raise ValueError(f"{path}.{key}: missing")
            validate(doc[key], sub, f"{path}.{key}")
        return
    if spec is float:
        spec = (int, float)  # a whole-valued float serializes as int
    if not isinstance(doc, spec):
        wanted = getattr(spec, "__name__", spec)
        raise ValueError(f"{path}: expected {wanted}, got {type(doc).__name__}")
    if isinstance(doc, bool) and spec is int:
        raise ValueError(f"{path}: expected int, got bool")


# -- scenarios ---------------------------------------------------------------

def _warmed_pair(cfg_seed=11):
    """Two connected nodes from a small warmed system, for microbenches."""
    cfg = LpbcastConfig(fanout=3, view_max=10)
    nodes = build_lpbcast_nodes(64, cfg, seed=cfg_seed)
    sim = create_simulation("serial", seed=cfg_seed)
    sim.add_nodes(nodes)
    nodes[0].lpb_cast("warm", 0.0)
    sim.run(3)  # fill views, buffers and digests with realistic content
    return nodes[0], nodes[1]


def bench_node_tick(iterations):
    node, _ = _warmed_pair()
    now = 10.0
    begin = time.perf_counter()
    for i in range(iterations):
        node.on_tick(now + i)
    seconds = time.perf_counter() - begin
    return {"iterations": iterations, "seconds": seconds,
            "ticks_per_sec": iterations / seconds}


def bench_node_receive(iterations):
    sender, receiver = _warmed_pair()
    # A realistic gossip stream: actual tick output, replayed round-robin.
    stream = []
    now = 10.0
    while len(stream) < 64:
        ticked = sender.on_tick(now)
        stream.extend(out.message for out in ticked
                      if isinstance(out.message, GossipMessage))
        now += 1.0
        if now > 100.0 and not stream:
            raise RuntimeError("warmed sender produced no gossip traffic")
    handle = receiver.handle_message
    src = sender.pid
    begin = time.perf_counter()
    for i in range(iterations):
        handle(src, stream[i % len(stream)], now + i)
    seconds = time.perf_counter() - begin
    return {"iterations": iterations, "seconds": seconds,
            "messages_per_sec": iterations / seconds}


def bench_serial_round_loop(n, rounds, warmup=2, seed=42):
    cfg = LpbcastConfig(fanout=3, view_max=25)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    sim = create_simulation("serial", seed=seed)
    sim.add_nodes(nodes)
    for i in range(3):
        sim.nodes[nodes[i].pid].lpb_cast(f"warm-{i}", 0.0)
    sim.run(warmup)
    begin = time.perf_counter()
    sim.run(rounds)
    seconds = time.perf_counter() - begin
    return {"n": n, "rounds": rounds, "seconds": seconds,
            "rounds_per_sec": rounds / seconds}


def bench_shard_sync(n, rounds, shards, seed=43):
    cfg = LpbcastConfig(fanout=3, view_max=25)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    sim = create_simulation("sharded", seed=seed, shards=shards)
    sim.add_nodes(nodes)
    sim.nodes[nodes[0].pid].lpb_cast("seed-event", 0.0)
    try:
        sim.run(rounds)
        stats = sim.telemetry.histogram_stats("time.shard.sync")
    finally:
        sim.close()
    count, total = (stats[0], stats[1]) if stats else (0, 0.0)
    return {"n": n, "shards": shards, "rounds": rounds,
            "sync_count": count, "sync_seconds_total": total,
            "sync_seconds_mean": total / count if count else 0.0}


def _counter_sha256(sim):
    items = []
    for (name, key), value in sim.telemetry.snapshot()["counters"].items():
        items.append((name, tuple((str(k), repr(v)) for k, v in key), value))
    items.sort()
    return hashlib.sha256(repr(items).encode()).hexdigest()


def bench_parity(n, rounds, seed=20260806, shards=2):
    """Fingerprint the counter state of the same run on both engines —
    the bench-side twin of the golden test in tests/telemetry."""
    digests = {}
    for engine in ("serial", "sharded"):
        cfg = LpbcastConfig(fanout=3, view_max=15)
        nodes = build_lpbcast_nodes(n, cfg, seed=seed)
        network = NetworkModel(loss_rate=0.05, rng=random.Random(seed + 1))
        extra = {"shards": shards} if engine == "sharded" else {}
        sim = create_simulation(engine, network=network, seed=seed, **extra)
        sim.add_nodes(nodes)
        sim.nodes[nodes[0].pid].lpb_cast("evt", 0.0)
        try:
            sim.run(rounds)
            digests[engine] = _counter_sha256(sim)
        finally:
            close = getattr(sim, "close", None)
            if close is not None:
                close()
    return {"n": n, "rounds": rounds,
            "serial_sha256": digests["serial"],
            "sharded_sha256": digests["sharded"],
            "agree": digests["serial"] == digests["sharded"]}


def bench_columnar(mega_n, mega_rounds, speedup_rounds, serial_loop,
                   seed=7):
    """The mega-scale engine: n=100k wall-clock, speedup vs serial, and a
    fixed-seed honoured-subset parity check.

    The mega run bootstraps columns directly (:meth:`build` — no per-node
    objects); the speedup run ingests the same prebuilt nodes the serial
    loop used so the two engines time the identical scenario shape.
    """
    from repro.sim import ColumnarRoundSimulation
    from repro.sim.columnar_runner import honoured_records
    from repro.telemetry import counter_records

    cfg = LpbcastConfig(fanout=3, view_max=25)
    sim = ColumnarRoundSimulation.build(mega_n, cfg, seed=seed)
    sim.nodes[0].lpb_cast("mega", 0.0)
    begin = time.perf_counter()
    sim.run(mega_rounds)
    mega_seconds = time.perf_counter() - begin

    n = serial_loop["n"]
    nodes = build_lpbcast_nodes(n, cfg, seed=42)
    csim = create_simulation("columnar", seed=42)
    csim.add_nodes(nodes)
    for i in range(3):
        csim.nodes[nodes[i].pid].lpb_cast(f"warm-{i}", 0.0)
    csim.run(2)
    begin = time.perf_counter()
    csim.run(speedup_rounds)
    columnar_rps = speedup_rounds / (time.perf_counter() - begin)
    serial_rps = serial_loop["rounds_per_sec"]

    honoured = {}
    for engine in ("serial", "columnar"):
        pnodes = build_lpbcast_nodes(64, cfg, seed=9)
        psim = create_simulation(engine, seed=9)
        psim.add_nodes(pnodes)
        psim.nodes[pnodes[0].pid].lpb_cast("evt", 0.0)
        psim.run(6)
        honoured[engine] = honoured_records(counter_records(psim.telemetry))

    return {
        "backend": "numpy",  # schema v4 field; the only implementation
        "mega_n": mega_n,
        "mega_rounds": mega_rounds,
        "mega_seconds": mega_seconds,
        "mega_rounds_per_sec": mega_rounds / mega_seconds,
        "speedup_n": n,
        "speedup_rounds": speedup_rounds,
        "serial_rounds_per_sec": serial_rps,
        "columnar_rounds_per_sec": columnar_rps,
        "speedup": columnar_rps / serial_rps,
        "honoured_parity": honoured["serial"] == honoured["columnar"],
    }


def _rss_bytes():
    """Peak resident set of this process and of its reaped children, in
    bytes (``ru_maxrss`` is KB on Linux, bytes on macOS)."""
    import resource
    scale = 1 if sys.platform == "darwin" else 1024
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * scale)


def bench_mega_1m(n, rounds, workers, parity_n, parity_rounds,
                  parity_workers, seed=13):
    """Million-node scale on the bit-packed columnar engine.

    Times the direct columnar bootstrap (no per-node objects) and the
    round loop, records peak RSS and resident engine-state bytes per node,
    then cross-checks a smaller fixed-seed scenario at workers=1 vs
    workers=``parity_workers``: the honoured fingerprints must be
    byte-identical (the multi-core mode's determinism contract).
    """
    from repro.sim.columnar_runner import (
        ColumnarRoundSimulation,
        honoured_fingerprint,
    )
    from repro.telemetry import counter_records

    cfg = LpbcastConfig(fanout=3, view_max=25)
    begin = time.perf_counter()
    sim = ColumnarRoundSimulation.build(n, cfg, seed=seed, workers=workers)
    build_seconds = time.perf_counter() - begin
    try:
        for i in range(3):
            sim.nodes[i].lpb_cast(f"mega-{i}", 0.0)
        begin = time.perf_counter()
        sim.run(rounds)
        run_seconds = time.perf_counter() - begin
        state_bytes = sim.memory_bytes()
    finally:
        sim.close()
    rss_self, rss_children = _rss_bytes()

    fingerprints = {}
    for w in (1, parity_workers):
        psim = ColumnarRoundSimulation.build(parity_n, cfg, seed=seed + 1,
                                             workers=w)
        try:
            for i in range(3):
                psim.nodes[i].lpb_cast(f"parity-{i}", 0.0)
            psim.run(parity_rounds)
            fingerprints[w] = honoured_fingerprint(
                counter_records(psim.telemetry))
        finally:
            psim.close()

    return {
        "n": n,
        "rounds": rounds,
        "workers": workers,
        "build_seconds": build_seconds,
        "run_seconds": run_seconds,
        "seconds_total": build_seconds + run_seconds,
        "rounds_per_sec": rounds / run_seconds,
        "peak_rss_bytes": rss_self,
        "workers_peak_rss_bytes": rss_children,
        "state_bytes": state_bytes,
        "bytes_per_node": state_bytes / n,
        "parity_n": parity_n,
        "parity_workers": parity_workers,
        "honoured_parity": fingerprints[1] == fingerprints[parity_workers],
    }


def bench_multicore(n, rounds, workers, seed=17):
    """Shared-memory speedup: the identical scenario timed at workers=1
    and workers=``workers``, with byte-identical honoured fingerprints
    required — a speedup that changed the output would be a bug, not a
    result."""
    from repro.sim.columnar_runner import (
        ColumnarRoundSimulation,
        honoured_fingerprint,
    )
    from repro.telemetry import counter_records

    cfg = LpbcastConfig(fanout=3, view_max=25)
    rps, fps = {}, {}
    for w in (1, workers):
        sim = ColumnarRoundSimulation.build(n, cfg, seed=seed, workers=w)
        try:
            for i in range(3):
                sim.nodes[i].lpb_cast(f"mc-{i}", 0.0)
            sim.run(2)  # warm: infect enough state that rounds do real work
            begin = time.perf_counter()
            sim.run(rounds)
            rps[w] = rounds / (time.perf_counter() - begin)
            fps[w] = honoured_fingerprint(counter_records(sim.telemetry))
        finally:
            sim.close()
    return {
        "n": n,
        "rounds": rounds,
        "workers": workers,
        "cores": os.cpu_count() or 1,
        "single_rounds_per_sec": rps[1],
        "multi_rounds_per_sec": rps[workers],
        "speedup": rps[workers] / rps[1],
        "honoured_parity": fps[1] == fps[workers],
    }


def bench_codec(n, rounds, seed=2026):
    """Encode/decode throughput and size over real gossip traffic.

    The corpus is every gossip emitted during a fixed-seed serial run,
    captured at the engine's own accounting point, so the numbers reflect
    genuine digest/view/event mixes rather than synthetic shapes.
    """
    from repro.core.codec import from_json, to_json
    from repro.telemetry import Telemetry
    from repro.wire import check_golden_vectors, decode_binary, encode_binary
    from repro.wire.golden import GOLDEN_VECTORS

    class _Capture(Telemetry):
        def __init__(self):
            super().__init__()
            self.messages = []

        def record_sends(self, round_no, src, outgoings):
            self.messages.extend(out.message for out in outgoings)
            super().record_sends(round_no, src, outgoings)

    cfg = LpbcastConfig(fanout=4, view_max=12)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    sim = create_simulation("serial", seed=seed)
    sim.telemetry = _Capture()
    sim.add_nodes(nodes)
    for i in range(1, 4):
        sim.nodes[i].lpb_cast(f"event-{i}", float(i))
    sim.run(rounds)
    gossips = [m for m in sim.telemetry.messages
               if isinstance(m, GossipMessage)]

    json_blobs = [to_json(m).encode("utf-8") for m in gossips]
    binary_blobs = [encode_binary(m) for m in gossips]

    def timed(fn, items):
        begin = time.perf_counter()
        for item in items:
            fn(item)
        return len(items) / (time.perf_counter() - begin)

    json_bytes = sum(len(b) for b in json_blobs)
    binary_bytes = sum(len(b) for b in binary_blobs)
    decode_per_sec = timed(decode_binary, binary_blobs)
    return {
        "corpus_n": n,
        "corpus_gossips": len(gossips),
        "json_bytes_per_gossip": json_bytes / len(gossips),
        "binary_bytes_per_gossip": binary_bytes / len(gossips),
        "compression_ratio": json_bytes / binary_bytes,
        "json_encode_per_sec": timed(to_json, gossips),
        "json_decode_per_sec": timed(
            from_json, [b.decode("utf-8") for b in json_blobs]),
        "binary_encode_per_sec": timed(encode_binary, gossips),
        "binary_decode_per_sec": decode_per_sec,
        "decode_baseline_per_sec": DECODE_BASELINE_PER_SEC,
        "decode_speedup_vs_baseline": decode_per_sec / DECODE_BASELINE_PER_SEC,
        "golden_vectors_ok": check_golden_vectors() == len(GOLDEN_VECTORS),
    }


# -- driver ------------------------------------------------------------------

FULL_PARAMS = dict(tick_iters=2000, recv_iters=20000, loop_n=5000,
                   loop_rounds=8, sync_n=2000, sync_rounds=5, sync_shards=4,
                   parity_n=200, parity_rounds=8,
                   codec_n=500, codec_rounds=6,
                   mega_n=100_000, mega_rounds=20, col_rounds=40,
                   mega1m_n=1_000_000, mega1m_rounds=10, mega1m_workers=1,
                   mega1m_parity_n=100_000, mega1m_parity_rounds=5,
                   mega1m_parity_workers=2,
                   mc_n=100_000, mc_rounds=10, mc_workers=4)
CHECK_PARAMS = dict(tick_iters=200, recv_iters=1000, loop_n=200,
                    loop_rounds=3, sync_n=120, sync_rounds=3, sync_shards=2,
                    parity_n=96, parity_rounds=6,
                    codec_n=150, codec_rounds=4,
                    mega_n=1500, mega_rounds=4, col_rounds=3,
                    # The CI smoke's reduced mega run: n=200k over two
                    # shared-memory workers, parity cross-checked.
                    mega1m_n=200_000, mega1m_rounds=10, mega1m_workers=2,
                    mega1m_parity_n=50_000, mega1m_parity_rounds=4,
                    mega1m_parity_workers=2,
                    mc_n=5_000, mc_rounds=4, mc_workers=2)


def run(params, mode):
    serial_loop = bench_serial_round_loop(
        params["loop_n"], params["loop_rounds"])
    results = {
        "node_tick": bench_node_tick(params["tick_iters"]),
        "node_receive": bench_node_receive(params["recv_iters"]),
        "serial_round_loop": serial_loop,
        "shard_sync": bench_shard_sync(
            params["sync_n"], params["sync_rounds"], params["sync_shards"]),
        "parity": bench_parity(params["parity_n"], params["parity_rounds"]),
        # Codec before the mega sections: the 1M run's allocation churn
        # depresses interpreter-bound throughput numbers measured after it.
        "codec": bench_codec(params["codec_n"], params["codec_rounds"]),
        "columnar": bench_columnar(
            params["mega_n"], params["mega_rounds"], params["col_rounds"],
            serial_loop),
        "mega_1m": bench_mega_1m(
            params["mega1m_n"], params["mega1m_rounds"],
            params["mega1m_workers"], params["mega1m_parity_n"],
            params["mega1m_parity_rounds"], params["mega1m_parity_workers"]),
        "multicore": bench_multicore(
            params["mc_n"], params["mc_rounds"], params["mc_workers"]),
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": results,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="toy sizes; assert schema + engine parity only "
                             "(no wall-clock thresholds) — the CI mode")
    parser.add_argument("--output", default=os.path.join(
        REPO_ROOT, "BENCH_hotpath.json"))
    args = parser.parse_args(argv)

    mode = "check" if args.check else "full"
    doc = run(CHECK_PARAMS if args.check else FULL_PARAMS, mode)
    validate(doc)
    if not doc["results"]["parity"]["agree"]:
        print("FAIL: serial and sharded counter fingerprints differ",
              file=sys.stderr)
        print(json.dumps(doc["results"]["parity"], indent=2), file=sys.stderr)
        return 1
    codec = doc["results"]["codec"]
    if not codec["golden_vectors_ok"]:
        print("FAIL: golden byte vectors no longer hold — the binary wire "
              "format changed", file=sys.stderr)
        return 1
    if codec["compression_ratio"] < 2.0:
        print(f"FAIL: binary codec only {codec['compression_ratio']:.2f}x "
              f"smaller than JSON (floor is 2x)", file=sys.stderr)
        return 1
    columnar = doc["results"]["columnar"]
    if not columnar["honoured_parity"]:
        print("FAIL: columnar honoured counter subset diverges from serial",
              file=sys.stderr)
        return 1
    mega = doc["results"]["mega_1m"]
    if not mega["honoured_parity"]:
        print(f"FAIL: mega_1m honoured fingerprint differs between "
              f"workers=1 and workers={mega['parity_workers']} at "
              f"n={mega['parity_n']}", file=sys.stderr)
        return 1
    multicore = doc["results"]["multicore"]
    if not multicore["honoured_parity"]:
        print(f"FAIL: multicore honoured fingerprint differs between "
              f"workers=1 and workers={multicore['workers']} at "
              f"n={multicore['n']}", file=sys.stderr)
        return 1
    if mode == "full":
        # Wall-clock acceptance bars, full mode only (CI check runs on
        # noisy shared runners and asserts correctness, not speed).
        if columnar["mega_seconds"] >= 60.0:
            print(f"FAIL: columnar n={columnar['mega_n']} took "
                  f"{columnar['mega_seconds']:.1f}s for "
                  f"{columnar['mega_rounds']} rounds (bar: <60s)",
                  file=sys.stderr)
            return 1
        if columnar["speedup"] < 20.0:
            print(f"FAIL: columnar only {columnar['speedup']:.1f}x faster "
                  f"than serial at n={columnar['speedup_n']} (bar: ≥20x)",
                  file=sys.stderr)
            return 1
        if mega["seconds_total"] > 120.0:
            print(f"FAIL: mega_1m n={mega['n']} build + {mega['rounds']} "
                  f"rounds took {mega['seconds_total']:.1f}s (bar: ≤120s)",
                  file=sys.stderr)
            return 1
        if mega["peak_rss_bytes"] > 8 * 1024**3:
            print(f"FAIL: mega_1m peak RSS "
                  f"{mega['peak_rss_bytes'] / 1024**3:.2f} GB (bar: ≤8 GB)",
                  file=sys.stderr)
            return 1
        # The multi-core speed bar only means something with real cores
        # under the workers; parity above is asserted unconditionally.
        if multicore["cores"] >= 4 and multicore["speedup"] < 2.0:
            print(f"FAIL: multicore only {multicore['speedup']:.2f}x at "
                  f"n={multicore['n']} with workers="
                  f"{multicore['workers']} on {multicore['cores']} cores "
                  f"(bar: ≥2x)", file=sys.stderr)
            return 1
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

    r = doc["results"]
    print(f"wrote {args.output} (mode={mode})")
    print(f"  node_tick        : {r['node_tick']['ticks_per_sec']:>12.0f} ticks/s")
    print(f"  node_receive     : {r['node_receive']['messages_per_sec']:>12.0f} msgs/s")
    print(f"  serial_round_loop: {r['serial_round_loop']['rounds_per_sec']:>12.3f} rounds/s "
          f"(n={r['serial_round_loop']['n']})")
    print(f"  shard_sync       : {r['shard_sync']['sync_seconds_mean'] * 1e3:>12.3f} ms/sync "
          f"(shards={r['shard_sync']['shards']})")
    print(f"  parity           : engines agree "
          f"({r['parity']['serial_sha256'][:12]}…)")
    print(f"  columnar         : n={r['columnar']['mega_n']} x "
          f"{r['columnar']['mega_rounds']} rounds in "
          f"{r['columnar']['mega_seconds']:.2f}s "
          f"({r['columnar']['backend']}); "
          f"{r['columnar']['speedup']:.1f}x serial at "
          f"n={r['columnar']['speedup_n']}")
    print(f"  mega_1m          : n={r['mega_1m']['n']} x "
          f"{r['mega_1m']['rounds']} rounds in "
          f"{r['mega_1m']['seconds_total']:.1f}s total "
          f"(workers={r['mega_1m']['workers']}, "
          f"{r['mega_1m']['peak_rss_bytes'] / 1024**3:.2f} GB peak, "
          f"{r['mega_1m']['bytes_per_node']:.1f} B/node)")
    print(f"  multicore        : {r['multicore']['speedup']:.2f}x at "
          f"n={r['multicore']['n']} "
          f"(workers={r['multicore']['workers']}, "
          f"{r['multicore']['cores']} core(s), parity "
          f"{'ok' if r['multicore']['honoured_parity'] else 'BROKEN'})")
    print(f"  codec            : {r['codec']['compression_ratio']:>12.2f}x smaller "
          f"({r['codec']['binary_bytes_per_gossip']:.1f}B vs "
          f"{r['codec']['json_bytes_per_gossip']:.1f}B/gossip, "
          f"{r['codec']['binary_encode_per_sec']:.0f} enc/s, "
          f"{r['codec']['binary_decode_per_sec']:.0f} dec/s, "
          f"{r['codec']['decode_speedup_vs_baseline']:.2f}x decode baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
