"""Short replays that answer one question each about a layer no workload's
measured window can isolate.  Each runs after its home workload's window,
with the span wrappers removed, and returns ``(metrics, checks)``.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Sequence, Tuple

from repro import sim as rsim
from repro.core import LpbcastConfig
from repro.sim.columnar_runner import ColumnarRoundSimulation, honoured_fingerprint
from repro.telemetry import counter_fingerprint, counter_records
from repro.wire import binary as wire_binary
from repro.wire import decode_frame
from repro.wire import frame as wire_frame
from repro.wire import varint

from spans import Patches
from workloads import SerialStream, shm_entries

Result = Tuple[Dict[str, float], Dict[str, bool]]


def _serial_stream_replay(workload: SerialStream, rounds: int, engine: str,
                          tracing: bool = False, **engine_kwargs):
    """``rounds`` publishing rounds of serial_stream's inputs on ``engine``;
    returns ``(wall seconds, counter fingerprint, shard-sync seconds)``."""
    sim, _nodes = workload.build_engine(engine, **engine_kwargs)
    try:
        sim.telemetry.tracing = tracing
        start = time.perf_counter()
        for _ in range(rounds):
            now = float(sim.round)
            for pid in workload.publishers():
                sim.nodes[pid].lpb_cast(None, now)
            sim.run_round()
        wall = time.perf_counter() - start
        sync = sim.telemetry.histogram_stats("time.shard.sync")
        return wall, counter_fingerprint(sim.telemetry), sync[1] if sync else 0.0
    finally:
        close = getattr(sim, "close", None)
        if close is not None:
            close()


def serial_stream_probes(seed: int, smoke: bool) -> Result:
    """The program's own tracing on vs off, and ROADMAP item 2's question:
    is the sharded engine ever faster than serial on this box?"""
    workload = SerialStream(seed, 10, smoke)
    rounds = 4 if smoke else 10
    serial_wall, serial_print, _ = _serial_stream_replay(workload, rounds, "serial")
    traced_wall, _, _ = _serial_stream_replay(workload, rounds, "serial", tracing=True)
    sharded_wall, sharded_print, sync = _serial_stream_replay(
        workload, rounds, "sharded", shards=2)
    equal = serial_print == sharded_print
    metrics = {
        "telemetry.tracing_overhead_ratio": traced_wall / serial_wall,
        "sim.parallel_runner.rounds_per_s": rounds / sharded_wall,
        "sim.parallel_runner.sync_s": sync,
        "sim.parallel_runner.fingerprint_equal": float(equal),
        "sim.parallel_runner.speedup_vs_serial": serial_wall / sharded_wall,
    }
    return metrics, {"serial_equals_sharded_fingerprint": equal}


def _columnar_replay(n: int, rounds: int, seed: int, workers: int):
    config = LpbcastConfig(fanout=3, view_max=25)
    sim = ColumnarRoundSimulation.build(n, config, seed=seed, backend="numpy",
                                        workers=workers)
    try:
        for index in range(3):
            sim.nodes[index].lpb_cast(None, 0.0)
        sim.run(2)      # infect enough state that the timed rounds do real work
        start = time.perf_counter()
        sim.run(rounds)
        wall = time.perf_counter() - start
        return wall, honoured_fingerprint(counter_records(sim.telemetry))
    finally:
        sim.close()


def _serial_vs_columnar_honoured(seed: int) -> bool:
    config = LpbcastConfig(fanout=3, view_max=25)
    prints = []
    for engine in ("serial", "columnar"):
        nodes = rsim.build_lpbcast_nodes(64, config, seed=seed)
        sim = rsim.create_simulation(engine, seed=seed)
        sim.add_nodes(nodes)
        sim.nodes[nodes[0].pid].lpb_cast(None, 0.0)
        sim.run(6)
        prints.append(honoured_fingerprint(counter_records(sim.telemetry)))
    return prints[0] == prints[1]


def columnar_shm_probe(seed: int, smoke: bool) -> Result:
    """Shared-memory workers on the cores this host has (``nproc`` is in
    the host fingerprint; no claim is made about more cores)."""
    n = 20_000 if smoke else 200_000
    rounds = 3 if smoke else 6
    workers = max(2, os.cpu_count() or 1)
    before = shm_entries()
    wall_1, print_1 = _columnar_replay(n, rounds, seed, 1)
    wall_n, print_n = _columnar_replay(n, rounds, seed, workers)
    leaked = len(shm_entries() - before)
    equal = print_1 == print_n and _serial_vs_columnar_honoured(seed)
    metrics = {
        "sim.columnar_shm.rounds_per_s_w1": rounds / wall_1,
        "sim.columnar_shm.rounds_per_s_wN": rounds / wall_n,
        "sim.columnar_shm.speedup": wall_1 / wall_n,
        "sim.columnar_shm.honoured_fingerprint_equal": float(equal),
        "sim.columnar_shm.shm_leaked": float(leaked),
    }
    return metrics, {"columnar_honoured_fingerprints_agree": equal,
                     "no_shm_residue_after_workers": leaked == 0}


def _varint_corpus(datagrams: Sequence[bytes]) -> Tuple[List[int], List[int]]:
    """Every integer the codec reads while decoding ``datagrams``: the
    consumers' references to the varint readers are swapped for recording
    ones (the varint module itself is left alone, so a reader that calls
    another is counted once)."""
    unsigned: List[int] = []
    signed: List[int] = []

    def recording(reader, sink, many: bool):
        def read(data, pos, *count):
            value, new_pos = reader(data, pos, *count)
            if many:
                sink.extend(value)
            else:
                sink.append(value)
            return value, new_pos
        return read

    readers = (("read_uvarint", unsigned, False), ("read_svarint", signed, False),
               ("read_svarint_run", signed, True))
    patches = Patches()
    for module in (wire_binary, wire_frame):
        for name, sink, many in readers:
            original = module.__dict__.get(name)
            if original is not None:
                patches.replace(module, name, original,
                                recording(original, sink, many))
    try:
        for datagram in datagrams:
            decode_frame(datagram)
    finally:
        patches.undo()
    return unsigned, signed


def varint_replay(datagrams: Sequence[bytes]) -> Dict[str, float]:
    """ns per integer through the public varint writers and readers, over
    the integers the run's own datagrams carried."""
    unsigned, signed = _varint_corpus(datagrams)
    total = len(unsigned) + len(signed)
    if not total:
        return {"wire.varint.write_ns": 0.0, "wire.varint.read_ns": 0.0}
    ubuf, sbuf = bytearray(), bytearray()
    write_u, write_s = varint.write_uvarint, varint.write_svarint
    start = time.perf_counter()
    for value in unsigned:
        write_u(ubuf, value)
    for value in signed:
        write_s(sbuf, value)
    write_s_total = time.perf_counter() - start

    read_u, read_s = varint.read_uvarint, varint.read_svarint
    udata, sdata = bytes(ubuf), bytes(sbuf)
    start = time.perf_counter()
    pos = 0
    for _ in unsigned:
        _value, pos = read_u(udata, pos)
    pos = 0
    for _ in signed:
        _value, pos = read_s(sdata, pos)
    read_total = time.perf_counter() - start
    return {"wire.varint.write_ns": write_s_total / total * 1e9,
            "wire.varint.read_ns": read_total / total * 1e9}


HOME_PROBES = {"serial_stream": serial_stream_probes,
               "columnar_mega": columnar_shm_probe}
