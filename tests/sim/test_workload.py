"""Tests for publication workloads."""

import pytest

from repro.core import LpbcastConfig
from repro.sim import (
    AsyncGossipRuntime,
    BroadcastWorkload,
    RoundSimulation,
    build_lpbcast_nodes,
)


class TestBroadcastWorkload:
    def make(self, n=10, rate=2, start=1, stop=None):
        nodes = build_lpbcast_nodes(n, LpbcastConfig(view_max=5), seed=0)
        sim = RoundSimulation(seed=0)
        sim.add_nodes(nodes)
        workload = BroadcastWorkload(nodes, events_per_round=rate,
                                     start=start, stop=stop)
        sim.add_round_hook(workload.on_round)
        return sim, nodes, workload

    def test_publishes_at_rate(self):
        sim, nodes, workload = self.make(n=5, rate=3)
        sim.run(4)
        assert len(workload) == 5 * 3 * 4

    def test_window_respected(self):
        sim, nodes, workload = self.make(n=5, rate=1, start=2, stop=4)
        sim.run(6)
        rounds = {r.published_at for r in workload.records}
        assert rounds == {2.0, 3.0}

    def test_crashed_publisher_skipped(self):
        sim, nodes, workload = self.make(n=5, rate=1)
        sim.crash(nodes[0].pid)
        sim.run(2)
        publishers = {r.publisher for r in workload.records}
        assert nodes[0].pid not in publishers

    def test_records_have_unique_ids(self):
        sim, nodes, workload = self.make(n=5, rate=2)
        sim.run(3)
        ids = workload.published_ids()
        assert len(ids) == len(set(ids))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            BroadcastWorkload([], events_per_round=-1)

    def test_custom_publish_fn(self):
        calls = []

        def publisher(node, now):
            calls.append((node.pid, now))
            return node.lpb_cast("custom", now)

        nodes = build_lpbcast_nodes(3, LpbcastConfig(view_max=3), seed=0)
        sim = RoundSimulation(seed=0)
        sim.add_nodes(nodes)
        workload = BroadcastWorkload(nodes, events_per_round=1,
                                     publish_fn=publisher)
        sim.add_round_hook(workload.on_round)
        sim.run(1)
        assert len(calls) == 3


class TestAsyncIntegration:
    def test_on_tick_publishes_per_publisher_tick(self):
        nodes = build_lpbcast_nodes(5, LpbcastConfig(view_max=4), seed=1)
        runtime = AsyncGossipRuntime(seed=1)
        runtime.add_nodes(nodes)
        workload = BroadcastWorkload(nodes[:2], events_per_round=1, start=0)
        runtime.on_tick_complete(workload.on_tick)
        runtime.run_until(5.0)
        publishers = {r.publisher for r in workload.records}
        assert publishers == {nodes[0].pid, nodes[1].pid}
        assert len(workload) >= 8  # ~5 ticks x 2 publishers

