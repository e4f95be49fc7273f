"""Tests for the one trace stream a simulation records (``telemetry.trace``).

Network losses are ``net.drop`` events, link cuts and other struck fault
verdicts are ``fault.*`` events, and who delivered what is the
:class:`~repro.metrics.DeliveryLog`'s.
"""

import random
from dataclasses import FrozenInstanceError

import pytest

from repro.core import LpbcastConfig
from repro.faults import FaultPlan
from repro.metrics import DeliveryLog
from repro.sim import NetworkModel, RoundSimulation, build_lpbcast_nodes
from repro.telemetry import (
    FAULT_DROP,
    NET_DROP,
    ROUND_START,
    Telemetry,
    TraceBuffer,
    TraceEvent,
)


def build(loss=0.0, seed=0, n=15):
    cfg = LpbcastConfig(fanout=3, view_max=6)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    network = NetworkModel(loss_rate=loss, rng=random.Random(seed + 1))
    sim = RoundSimulation(network=network, seed=seed)
    sim.add_nodes(nodes)
    sim.telemetry.tracing = True
    return sim, nodes, DeliveryLog().attach(nodes)


class TestTracerBasics:
    def test_emit_and_query(self):
        sim, _, _ = build(loss=0.3)
        sim.run(5)
        trace = sim.telemetry.trace
        counts = trace.counts()
        assert counts[ROUND_START] == 5
        assert counts[NET_DROP] == len(trace.of_kind(NET_DROP)) > 0
        assert sum(counts.values()) == len(trace)

    def test_capacity_truncates(self):
        sim, _, _ = build(loss=0.3)
        sim.telemetry.trace = TraceBuffer(capacity=10)
        sim.run(5)
        trace = sim.telemetry.trace
        assert len(trace) == 10 and trace.dropped > 0
        assert trace.events[0].kind == ROUND_START  # the head is kept
        assert trace.events[0].at == 1.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Telemetry(trace_capacity=0)

    def test_for_process_matches_either_side(self):
        sim, _, _ = build(loss=0.3)
        sim.run(5)
        drops = sim.telemetry.trace.of_kind(NET_DROP)
        touching = {pid: [e for e in drops if pid in (e.pid, e.peer)]
                    for pid in sim.nodes}
        # Each lost message names its two distinct endpoints, so it is
        # found from the sender's side and from the addressee's.
        assert sum(map(len, touching.values())) == 2 * len(drops) > 0
        pid = drops[0].peer
        assert {e.pid == pid for e in touching[pid]} == {True, False}


class TestTracerWiring:
    def test_deliveries_traced(self):
        sim, nodes, log = build()
        event = nodes[0].lpb_cast("x", now=0.0)
        sim.run(8)
        assert log.deliverers_of(event.event_id) == {n.pid for n in nodes}

    def test_delivery_order_starts_at_publisher(self):
        sim, nodes, log = build()
        event = nodes[0].lpb_cast("x", now=0.0)
        sim.run(8)
        times = {pid: log.delivery_time(pid, event.event_id)
                 for pid in log.deliverers_of(event.event_id)}
        assert len(times) == 15
        assert min(times, key=times.get) == nodes[0].pid
        assert times[nodes[0].pid] == 0.0
        assert all(t >= 1.0 for pid, t in times.items()
                   if pid != nodes[0].pid)

    def test_drops_traced_under_loss(self):
        sim, _, _ = build(loss=0.3)
        sim.run(5)
        drops = sim.telemetry.trace.of_kind(NET_DROP)
        assert len(drops) == sim.network.messages_dropped > 0
        assert {e.at for e in drops} <= {1.0, 2.0, 3.0, 4.0, 5.0}
        assert sim.telemetry.trace.of_kind(FAULT_DROP) == []

    def test_cuts_traced_as_fault_drops(self):
        cfg = LpbcastConfig(fanout=2, view_max=5)
        nodes = build_lpbcast_nodes(10, cfg, seed=2)
        sim = RoundSimulation(
            network=NetworkModel(loss_rate=0.0, rng=random.Random(3)), seed=2)
        sim.add_nodes(nodes)
        sim.telemetry.tracing = True
        isolated = nodes[0].pid
        others = [n.pid for n in nodes[1:]]
        sim.use_fault_plan(FaultPlan().partition(others, [isolated], start=1,
                                                 heal=99,
                                                 direction="a-to-b"))
        sim.run(4)
        cuts = sim.telemetry.trace.of_kind(FAULT_DROP)
        assert cuts
        assert all(e.peer == isolated for e in cuts)
        assert sim.telemetry.trace.of_kind(NET_DROP) == []

    def test_round_markers(self):
        sim, _, _ = build()
        sim.run(5)
        rounds = sim.telemetry.trace.of_kind(ROUND_START)
        assert [e.at for e in rounds] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert all(e.data["alive"] == 15 for e in rounds)


class TestTraceRecord:
    def test_frozen(self):
        event = TraceEvent(kind=NET_DROP, at=1.0, pid=2, peer=3)
        with pytest.raises(FrozenInstanceError):
            event.pid = 5
