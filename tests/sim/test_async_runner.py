"""Tests for the asynchronous discrete-event runtime (Sec. 5.2 substitute)."""

import random
from functools import partial

import pytest

from repro.core import LpbcastConfig
from repro.core.message import Outgoing
from repro.faults import FaultPlan
from repro.metrics import DeliveryLog
from repro.sim import (
    AsyncGossipRuntime,
    NetworkModel,
    build_lpbcast_nodes,
    constant_latency,
)


class Ticker:
    """Counts its own ticks; sends nothing."""

    def __init__(self, pid, period=1.0):
        self.pid = pid
        self.config = type("Cfg", (), {"gossip_period": period})()
        self.ticks = []

    def on_tick(self, now):
        self.ticks.append(now)
        return []

    def handle_message(self, sender, message, now):
        return []


class Sender(Ticker):
    def __init__(self, pid, peer, period=1.0):
        super().__init__(pid, period)
        self.peer = peer
        self.received = []

    def on_tick(self, now):
        super().on_tick(now)
        return [Outgoing(self.peer, ("msg", now))]

    def handle_message(self, sender, message, now):
        self.received.append((sender, message, now))
        return []


class TestTimers:
    def test_ticks_at_own_period(self):
        runtime = AsyncGossipRuntime(seed=1)
        node = Ticker(0, period=2.0)
        runtime.add_node(node)
        runtime.run_until(10.0)
        assert 4 <= len(node.ticks) <= 6
        gaps = [b - a for a, b in zip(node.ticks, node.ticks[1:])]
        assert all(abs(g - 2.0) < 1e-9 for g in gaps)

    def test_phases_not_synchronized(self):
        runtime = AsyncGossipRuntime(seed=1)
        nodes = [Ticker(i) for i in range(10)]
        for node in nodes:
            runtime.add_node(node)
        runtime.run_until(1.0)
        first_ticks = {round(n.ticks[0], 6) for n in nodes if n.ticks}
        assert len(first_ticks) > 5  # distinct random phases

    def test_duplicate_pid_rejected(self):
        runtime = AsyncGossipRuntime(seed=1)
        runtime.add_node(Ticker(0))
        with pytest.raises(ValueError):
            runtime.add_node(Ticker(0))

    def test_default_period_for_configless_node(self):
        runtime = AsyncGossipRuntime(seed=1, default_period=0.5)

        class Bare:
            pid = 7
            def on_tick(self, now): return []
            def handle_message(self, s, m, now): return []

        runtime.add_node(Bare())
        runtime.run_until(5.0)
        assert runtime.sim.events_executed >= 9


class TestDelivery:
    def test_latency_applied(self):
        net = NetworkModel(loss_rate=0.0, rng=random.Random(0),
                           latency=constant_latency(0.25))
        runtime = AsyncGossipRuntime(network=net, seed=1)
        a, b = Sender(0, 1), Sender(1, 0)
        runtime.add_node(a)
        runtime.add_node(b)
        runtime.run_until(5.0)
        for sender, (tag, sent_at), received_at in a.received:
            assert abs((received_at - sent_at) - 0.25) < 1e-9

    def test_loss_suppresses_delivery(self):
        net = NetworkModel(loss_rate=1.0, rng=random.Random(0))
        runtime = AsyncGossipRuntime(network=net, seed=1)
        a, b = Sender(0, 1), Sender(1, 0)
        runtime.add_node(a)
        runtime.add_node(b)
        runtime.run_until(5.0)
        assert a.received == [] and b.received == []

    def test_crash_silences(self):
        runtime = AsyncGossipRuntime(seed=1)
        a, b = Sender(0, 1), Sender(1, 0)
        runtime.add_node(a)
        runtime.add_node(b)
        runtime.call_at(0.0, partial(runtime.crash, 1))
        runtime.run_until(5.0)
        assert a.received == []  # b never ticked
        assert not runtime.alive(1)

    def test_call_at(self):
        runtime = AsyncGossipRuntime(seed=1)
        fired = []
        runtime.call_at(2.0, lambda: fired.append(runtime.now))
        runtime.run_until(5.0)
        assert fired == [2.0]

    def test_empty_reply_books_no_sends(self):
        runtime = AsyncGossipRuntime(seed=1)
        a, b = Sender(0, 1), Sender(1, 0)
        runtime.add_node(a)
        runtime.add_node(b)
        booked = []
        record_sends = runtime.telemetry.record_sends
        runtime.telemetry.record_sends = (
            lambda round_no, src, outgoings:
            booked.append(list(outgoings))
            or record_sends(round_no, src, outgoings))
        runtime.run_until(5.0)
        assert a.received and b.received       # handlers ran, replied []
        assert len(booked) == len(a.ticks) + len(b.ticks)
        assert all(booked)                     # only the ticks' sends

    def test_tick_listener(self):
        runtime = AsyncGossipRuntime(seed=1)
        node = Ticker(0)
        runtime.add_node(node)
        ticks = []
        runtime.on_tick_complete(lambda pid, now: ticks.append(pid))
        runtime.run_until(3.0)
        assert ticks.count(0) == len(node.ticks)


class TestFaultRevival:
    def test_a_revived_process_runs_one_gossip_timer(self):
        # The crash window (one default period) is shorter than the node's
        # period, so its pending tick comes due after the revival: that
        # stale tick must not run beside the timer the revival starts.
        cfg = LpbcastConfig(gossip_period=2.0)
        nodes = build_lpbcast_nodes(12, cfg, seed=5)
        runtime = AsyncGossipRuntime(seed=5, default_period=1.0)
        runtime.add_nodes(nodes)
        runtime.use_fault_plan(FaultPlan().crash(3, at=2, recover_at=3))
        ticks = {3: [], 4: []}
        runtime.on_tick_complete(
            lambda pid, now: ticks[pid].append(now) if pid in ticks else None)
        runtime.run_until(40.0)
        assert abs(len(ticks[3]) - len(ticks[4])) <= 1
        revived = [at for at in ticks[3] if at >= 2.0]
        gaps = [b - a for a, b in zip(revived, revived[1:])]
        assert gaps and all(abs(gap - 2.0) < 1e-9 for gap in gaps)

    def test_a_revival_with_no_live_contact_still_gossips(self):
        # Everyone else is down when 0 recovers: there is nobody to rejoin
        # through, but the round engines tick it anyway, and so must this
        # runtime — the crash killed the old timer, so a new one starts.
        runtime = AsyncGossipRuntime(seed=5, default_period=1.0)
        runtime.add_nodes([Ticker(0), Ticker(1)])
        runtime.use_fault_plan(
            FaultPlan().crash(0, at=2, recover_at=4).crash(1, at=2))
        ticks = []
        runtime.on_tick_complete(
            lambda pid, now: ticks.append(now) if pid == 0 else None)
        runtime.run_until(10.0)
        assert runtime.alive(0) and not runtime.alive(1)
        assert runtime._fault_injector.stats.recoveries_applied == 1
        revived = [at for at in ticks if at >= 3.0]     # round 4 on
        assert len(revived) >= 6
        gaps = [b - a for a, b in zip(revived, revived[1:])]
        assert all(abs(gap - 1.0) < 1e-9 for gap in gaps)


class TestEndToEnd:
    def test_lpbcast_disseminates_under_async_runtime(self):
        cfg = LpbcastConfig(fanout=3, view_max=10)
        nodes = build_lpbcast_nodes(30, cfg, seed=3)
        net = NetworkModel(loss_rate=0.05, rng=random.Random(9),
                           latency=constant_latency(0.1))
        runtime = AsyncGossipRuntime(network=net, seed=3)
        runtime.add_nodes(nodes)
        log = DeliveryLog().attach(nodes)
        runtime.call_at(1.0, lambda: nodes[0].lpb_cast("x", now=runtime.now))
        runtime.run_until(15.0)
        event_ids = log.known_events()
        assert len(event_ids) == 1
        assert log.delivery_count(event_ids[0]) == 30
