"""Tests for the run recorder."""

import io

import pytest

from repro.sim.recorder import RunRecorder

from ..helpers import small_system


def recorded_run(rounds=6, n=15, publish=True):
    sim, nodes, log = small_system(n=n, seed=22)
    recorder = RunRecorder(nodes)
    sim.add_observer(recorder.on_round)
    if publish:
        nodes[0].lpb_cast("x", now=0.0)
    sim.run(rounds)
    return sim, nodes, recorder


def engine_run(engine, rounds=6, n=16, seed=31, shards=2):
    """The same recorded scenario on any round engine."""
    import random

    from repro.core import LpbcastConfig
    from repro.sim import NetworkModel, build_lpbcast_nodes, create_simulation

    cfg = LpbcastConfig(fanout=3, view_max=8)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    network = NetworkModel(loss_rate=0.05, rng=random.Random(seed + 1))
    extra = {"shards": shards} if engine == "sharded" else {}
    sim = create_simulation(engine, network=network, seed=seed, **extra)
    sim.add_nodes(nodes)
    recorder = RunRecorder(nodes)
    sim.add_observer(recorder.on_round)

    def publish(round_no, s):
        if round_no <= 3:
            s.nodes[nodes[round_no].pid].lpb_cast(f"evt-{round_no}",
                                                  float(round_no))

    sim.add_round_hook(publish)
    try:
        sim.run(rounds)
    finally:
        close = getattr(sim, "close", None)
        if close is not None:
            close()
    return sim, nodes, recorder


class TestRecording:
    def test_one_record_per_round(self):
        _, _, recorder = recorded_run(rounds=6)
        assert len(recorder) == 6
        assert recorder.series("round") == [1, 2, 3, 4, 5, 6]

    def test_delivery_progress_monotone(self):
        _, _, recorder = recorded_run()
        delivered = recorder.series("delivered_total")
        assert all(b >= a for a, b in zip(delivered, delivered[1:]))
        assert recorder.last()["delivered_total"] == 15  # everyone got it

    def test_view_stats_present(self):
        _, _, recorder = recorded_run()
        assert recorder.last()["in_degree_mean"] == pytest.approx(8.0)

    def test_view_stats_optional(self):
        sim, nodes, log = small_system(n=10, seed=23)
        recorder = RunRecorder(nodes, sample_view_stats=False)
        sim.add_observer(recorder.on_round)
        sim.run(2)
        assert "in_degree_mean" not in recorder.last()

    def test_alive_count_tracks_crashes(self):
        sim, nodes, log = small_system(n=10, seed=24)
        recorder = RunRecorder(nodes)
        sim.add_observer(recorder.on_round)
        sim.run(2)
        sim.crash(nodes[0].pid)
        sim.run(2)
        assert recorder.series("alive") == [10, 10, 9, 9]

    def test_last_empty_raises(self):
        with pytest.raises(ValueError):
            RunRecorder([]).last()


class TestExport:
    def test_json_lines_round_trip(self):
        _, _, recorder = recorded_run(rounds=3)
        text = recorder.to_json_lines()
        parsed = RunRecorder.from_json_lines(text)
        assert parsed == recorder.records

    def test_streaming_to_file_object(self):
        sim, nodes, log = small_system(n=10, seed=25)
        buffer = io.StringIO()
        recorder = RunRecorder(nodes, stream=buffer)
        sim.add_observer(recorder.on_round)
        sim.run(3)
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 3
        assert RunRecorder.from_json_lines(buffer.getvalue()) == recorder.records

    def test_json_lines_identical_serial_vs_sharded(self):
        # The export of a sharded run must be byte-identical to the serial
        # engine's for the same seed (aggregate merge, not node pickles).
        texts = {}
        for engine in ("serial", "sharded"):
            sim, nodes, recorder = engine_run(engine)
            texts[engine] = recorder.to_json_lines()
        assert texts["serial"] == texts["sharded"]

    def test_buffer_pressure_visible_under_load(self):
        # Starved buffers, visible in the operational record: ``events``
        # purges notifications before their first gossip (the Fig. 6
        # mechanism), while ``eventIds`` — bounded at ten ids held *out of
        # order* — keeps all 140 streams' ids in ten frontiers and writes
        # nothing off.
        from repro.core import LpbcastConfig
        from repro.sim import BroadcastWorkload, RoundSimulation, build_lpbcast_nodes

        cfg = LpbcastConfig(fanout=3, view_max=8, event_ids_max=10,
                            events_max=10)
        nodes = build_lpbcast_nodes(20, cfg, seed=26)
        sim = RoundSimulation(seed=26)
        sim.add_nodes(nodes)
        workload = BroadcastWorkload(nodes[:10], events_per_round=2,
                                     start=1, stop=8)
        sim.add_round_hook(workload.on_round)
        recorder = RunRecorder(nodes)
        sim.add_observer(recorder.on_round)
        sim.run(12)
        last = recorder.last()
        assert last["events_dropped_total"] > 0
        assert last["event_ids_occupancy"] <= 10
        assert last["event_ids_evicted_total"] == 0
        assert last["delivered_total"] == 140 * 20       # each id, once


class TestAllEngines:
    def test_sharded_records_equal_serial(self):
        # Same seed, same scenario: the sharded engine's per-round records
        # must match the serial engine's exactly (including float view
        # statistics — both derive them from the same merged integers).
        _, _, serial = engine_run("serial")
        _, _, sharded = engine_run("sharded")
        assert serial.records == sharded.records
        assert serial.last()["delivered_total"] > 0
        assert "in_degree_mean" in serial.last()

    def test_sharded_crash_mid_run_still_matches(self):
        import random

        from repro.core import LpbcastConfig
        from repro.sim import (NetworkModel, build_lpbcast_nodes,
                               create_simulation)

        records = {}
        for engine in ("serial", "sharded"):
            cfg = LpbcastConfig(fanout=3, view_max=8)
            nodes = build_lpbcast_nodes(12, cfg, seed=33)
            extra = {"shards": 2} if engine == "sharded" else {}
            sim = create_simulation(engine, seed=33, **extra)
            sim.add_nodes(nodes)
            recorder = RunRecorder(nodes)
            sim.add_observer(recorder.on_round)
            nodes[0].lpb_cast("x", now=0.0)
            try:
                sim.run(2)
                sim.crash(nodes[3].pid)
                sim.crash(nodes[7].pid)
                sim.run(2)
            finally:
                close = getattr(sim, "close", None)
                if close is not None:
                    close()
            records[engine] = recorder.records
        assert records["serial"] == records["sharded"]
        assert records["serial"][-1]["alive"] == 10

    def test_async_runtime_snapshot(self):
        # The discrete-event runtime exposes the same aggregate feed, so
        # the recorder can snapshot it directly (workloads poll it).
        from repro.core import LpbcastConfig
        from repro.sim import AsyncGossipRuntime, build_lpbcast_nodes

        cfg = LpbcastConfig(fanout=3, view_max=8, gossip_period=1.0)
        nodes = build_lpbcast_nodes(12, cfg, seed=34)
        runtime = AsyncGossipRuntime(seed=34)
        runtime.add_nodes(nodes)
        nodes[0].lpb_cast("x", now=0.0)
        runtime.run_until(6.0)
        recorder = RunRecorder(nodes)
        record = recorder.snapshot(runtime, round_number=6)
        assert record["alive"] == 12
        assert record["delivered_total"] > 0
        assert record["in_degree_mean"] > 0

    def test_crash_all_nodes_edge(self):
        # alive == []: totals and occupancies report zero, view statistics
        # are omitted (no graph), and nothing raises on either engine.
        for engine in ("serial", "sharded"):
            import random

            from repro.core import LpbcastConfig
            from repro.sim import build_lpbcast_nodes, create_simulation

            cfg = LpbcastConfig(fanout=3, view_max=8)
            nodes = build_lpbcast_nodes(8, cfg, seed=35)
            extra = {"shards": 2} if engine == "sharded" else {}
            sim = create_simulation(engine, seed=35, **extra)
            sim.add_nodes(nodes)
            recorder = RunRecorder(nodes)
            sim.add_observer(recorder.on_round)
            try:
                sim.run(1)
                for node in nodes:
                    sim.crash(node.pid)
                sim.run(1)
            finally:
                close = getattr(sim, "close", None)
                if close is not None:
                    close()
            last = recorder.last()
            assert last["alive"] == 0
            assert last["events_occupancy"] == 0.0
            assert last["event_ids_occupancy"] == 0.0
            assert "in_degree_mean" not in last
