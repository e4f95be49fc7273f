"""Tests for the network model, the link cuts and the background crashes
engines apply to it."""

import random

import pytest

from repro.core.message import Outgoing
from repro.faults import FaultPlan
from repro.sim import (
    NetworkModel,
    RoundSimulation,
    constant_latency,
    uniform_latency,
)
from repro.sim.scenarios import flaky_wan


class TestNetworkModel:
    def test_no_loss(self):
        net = NetworkModel(loss_rate=0.0, rng=random.Random(0))
        assert all(net.deliverable(0, 1) for _ in range(100))

    def test_total_loss(self):
        net = NetworkModel(loss_rate=1.0, rng=random.Random(0))
        assert not any(net.deliverable(0, 1) for _ in range(100))

    def test_loss_rate_statistics(self):
        net = NetworkModel(loss_rate=0.2, rng=random.Random(0))
        delivered = sum(net.deliverable(0, 1) for _ in range(10_000))
        assert 0.75 < delivered / 10_000 < 0.85
        assert abs(net.observed_loss_rate() - 0.2) < 0.02

    def test_invalid_loss_rate(self):
        with pytest.raises(ValueError):
            NetworkModel(loss_rate=1.5)

    def test_counters(self):
        net = NetworkModel(loss_rate=0.0, rng=random.Random(0))
        net.deliverable(0, 1)
        assert net.messages_offered == 1
        assert net.messages_dropped == 0


class TestLatencyModels:
    def test_constant(self):
        model = constant_latency(0.25)
        assert model(random.Random(0)) == 0.25

    def test_constant_negative_rejected(self):
        with pytest.raises(ValueError):
            constant_latency(-1.0)

    def test_uniform_in_range(self):
        model = uniform_latency(0.1, 0.5)
        rng = random.Random(0)
        for _ in range(100):
            assert 0.1 <= model(rng) <= 0.5

    def test_uniform_invalid_range(self):
        with pytest.raises(ValueError):
            uniform_latency(0.5, 0.1)


class Broadcaster:
    """Sends one message to every other process on each tick."""

    def __init__(self, pid, pids):
        self.pid = pid
        self.peers = [p for p in pids if p != pid]
        self.heard = set()

    def on_tick(self, now):
        return [Outgoing(peer, "hello") for peer in self.peers]

    def handle_message(self, sender, message, now):
        self.heard.add(sender)
        return []


class TestPartitionFilter:
    """A link cut is a ``FaultPlan`` partition; the engine filters each
    message through it before the network draws its loss."""

    def heard_after_cut(self):
        nodes = [Broadcaster(pid, range(5)) for pid in range(5)]
        sim = RoundSimulation(seed=0)
        sim.add_nodes(nodes)
        sim.use_fault_plan(FaultPlan().partition([0, 1], [2, 3], start=1,
                                                 heal=10))
        sim.run(2)
        return {node.pid: node.heard for node in nodes}

    def test_within_group_allowed(self):
        heard = self.heard_after_cut()
        assert 1 in heard[0] and 0 in heard[1]
        assert 3 in heard[2] and 2 in heard[3]

    def test_across_groups_cut(self):
        heard = self.heard_after_cut()
        assert not heard[0] & {2, 3}
        assert not heard[3] & {0, 1}

    def test_unlisted_processes_unrestricted(self):
        heard = self.heard_after_cut()
        assert heard[4] == {0, 1, 2, 3}
        assert all(4 in heard[pid] for pid in range(4))


class TestCrashPlan:
    """Background crashes are the ``(round, pid)`` schedule ``flaky_wan``
    draws into ``extras['crashes']`` and applies from a round hook."""

    def test_zero_rate_no_crashes(self):
        scenario = flaky_wan(n=100, crash_rate=0.0, seed=0)
        scenario.sim.telemetry.tracing = True
        scenario.run(12)
        assert scenario.extras["crashes"] == []
        assert not scenario.sim.telemetry.trace.of_kind("crash")
        assert len(scenario.alive_nodes()) == 100
