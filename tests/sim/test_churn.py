"""Tests for churn scripting (joins and leaves)."""

import random

import pytest

from repro.core import LpbcastConfig, LpbcastNode
from repro.faults import FaultPlan
from repro.sim import ChurnScript, RoundSimulation, build_lpbcast_nodes


def factory(config):
    def make(pid):
        return LpbcastNode(pid, config, random.Random(pid))
    return make


def make_system(n=10):
    cfg = LpbcastConfig(fanout=2, view_max=5)
    nodes = build_lpbcast_nodes(n, cfg, seed=0)
    sim = RoundSimulation(seed=0)
    sim.add_nodes(nodes)
    return cfg, nodes, sim


class TestJoins:
    def test_join_adds_node_and_contacts(self):
        cfg, nodes, sim = make_system()
        script = ChurnScript(node_factory=factory(cfg))
        script.join(2, pid=100, contact=0)
        sim.add_round_hook(script.on_round)
        sim.run(5)
        assert 100 in sim.nodes
        assert script.joined == [100]
        joiner = sim.nodes[100]
        assert joiner.joined          # received gossip
        assert len(joiner.view) > 0

    def test_joiner_spreads_into_views(self):
        cfg, nodes, sim = make_system()
        script = ChurnScript(node_factory=factory(cfg))
        script.join(1, pid=100, contact=0)
        sim.add_round_hook(script.on_round)
        sim.run(12)
        knowers = sum(1 for n in nodes if 100 in n.view)
        assert knowers >= 2

    def test_join_without_factory_raises(self):
        cfg, nodes, sim = make_system()
        script = ChurnScript()
        script.join(1, pid=100, contact=0)
        sim.add_round_hook(script.on_round)
        with pytest.raises(RuntimeError):
            sim.run_round()


class TestLeaves:
    def test_leave_marks_unsubscribed(self):
        cfg, nodes, sim = make_system()
        script = ChurnScript()
        script.leave(2, nodes[3].pid)
        sim.add_round_hook(script.on_round)
        sim.run(4)
        assert nodes[3].unsubscribed
        assert script.left == [nodes[3].pid]

    def test_leaver_drains_from_views(self):
        cfg, nodes, sim = make_system(n=12)
        script = ChurnScript()
        script.leave(2, nodes[3].pid)
        sim.add_round_hook(script.on_round)
        before = sum(1 for n in nodes if nodes[3].pid in n.view)
        sim.run(15)
        after = sum(1 for n in nodes if nodes[3].pid in n.view)
        assert after < before

    def test_leave_of_unknown_pid_ignored(self):
        cfg, nodes, sim = make_system()
        script = ChurnScript()
        script.leave(1, 999)
        sim.add_round_hook(script.on_round)
        sim.run(2)
        assert script.left == []


class TestCrashes:
    """Crashes are a fault plan's; the script only keeps membership."""

    def test_crash_silences_node(self):
        cfg, nodes, sim = make_system()
        sim.use_fault_plan(FaultPlan().crash(nodes[5].pid, at=2))
        script = ChurnScript()
        script.leave(3, nodes[5].pid)
        sim.add_round_hook(script.on_round)
        sim.run(4)
        assert not sim.alive(nodes[5].pid)
        assert script.left == []  # a crashed process does not unsubscribe
        assert not nodes[5].unsubscribed

    def test_fluent_chaining(self):
        script = ChurnScript().join(1, 100, 0).leave(2, 3)
        assert script.joins and script.leaves
