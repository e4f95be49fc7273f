"""Fault injection: crashes, forced partitions, and priority recovery."""

import random

from repro.core import LpbcastConfig, LpbcastNode
from repro.faults import FaultPlan
from repro.membership import PriorityProcessSet, periodic_normalizer
from repro.metrics import (
    DeliveryLog,
    find_partitions,
    is_partitioned,
)
from repro.sim import NetworkModel, RoundSimulation, build_lpbcast_nodes


class TestCrashes:
    def test_dissemination_survives_tau_crashes(self):
        cfg = LpbcastConfig(fanout=3, view_max=15)
        nodes = build_lpbcast_nodes(100, cfg, seed=4)
        sim = RoundSimulation(
            NetworkModel(loss_rate=0.05, rng=random.Random(11)), seed=4
        )
        sim.add_nodes(nodes)
        # f = τ·n = 5 fail-stops over the first six rounds (Sec. 4.1).
        plan = FaultPlan()
        for pid, at in ((60, 3), (34, 3), (67, 3), (85, 4), (84, 6)):
            plan.crash(pid, at=at)
        sim.use_fault_plan(plan)
        log = DeliveryLog().attach(nodes)
        event = nodes[0].lpb_cast("x", now=0.0)
        sim.run(14)
        survivors = [pid for pid in range(100) if sim.alive(pid)]
        delivered = sum(
            1 for pid in survivors if log.delivered(pid, event.event_id)
        )
        assert delivered == len(survivors)

    def test_crashed_publisher_before_first_gossip_loses_event(self):
        cfg = LpbcastConfig(fanout=3, view_max=10)
        nodes = build_lpbcast_nodes(30, cfg, seed=5)
        sim = RoundSimulation(seed=5)
        sim.add_nodes(nodes)
        log = DeliveryLog().attach(nodes)
        event = nodes[0].lpb_cast("x", now=0.0)
        sim.crash(nodes[0].pid)  # before it ever gossiped
        sim.run(10)
        assert log.delivery_count(event.event_id) == 1  # only the publisher

    def test_crashed_nodes_drain_from_views_slowly(self):
        # Crashes are silent (no unsubscription): the victim's id lingers in
        # views — the paper's motivation for redundant knowledge.
        cfg = LpbcastConfig(fanout=3, view_max=10)
        nodes = build_lpbcast_nodes(40, cfg, seed=6)
        sim = RoundSimulation(seed=6)
        sim.add_nodes(nodes)
        victim = nodes[7].pid
        sim.crash(victim)
        sim.run(6)
        knowers = sum(1 for n in nodes if n.pid != victim and victim in n.view)
        assert knowers > 0  # still known: no false global failure detection


class TestForcedPartition:
    def test_link_cut_blocks_dissemination(self):
        cfg = LpbcastConfig(fanout=3, view_max=10)
        nodes = build_lpbcast_nodes(40, cfg, seed=7)
        net = NetworkModel(loss_rate=0.0, rng=random.Random(1))
        sim = RoundSimulation(network=net, seed=7)
        sim.add_nodes(nodes)
        sim.use_fault_plan(FaultPlan().partition(range(0, 20), range(20, 40),
                                                 start=1, heal=100))
        log = DeliveryLog().attach(nodes)
        event = nodes[0].lpb_cast("x", now=0.0)
        sim.run(10)
        side_a = sum(1 for pid in range(0, 20) if log.delivered(pid, event.event_id))
        side_b = sum(1 for pid in range(20, 40) if log.delivered(pid, event.event_id))
        assert side_a == 20
        assert side_b == 0

    def test_membership_views_converge_to_partition(self):
        # Under a long-lived link cut, views fill with same-side processes
        # only (cross-side entries stop being refreshed but also stop being
        # advertised; eventually sides know mostly themselves).
        cfg = LpbcastConfig(fanout=3, view_max=8)
        nodes = build_lpbcast_nodes(30, cfg, seed=8)
        net = NetworkModel(loss_rate=0.0, rng=random.Random(2))
        sim = RoundSimulation(network=net, seed=8)
        sim.add_nodes(nodes)
        sim.use_fault_plan(FaultPlan().partition(range(0, 15), range(15, 30),
                                                 start=1, heal=100))
        sim.run(40)
        cross_entries = sum(
            1
            for n in nodes
            for target in n.view
            if (n.pid < 15) != (target < 15)
        )
        total_entries = sum(len(n.view) for n in nodes)
        # Cross-partition knowledge cannot grow; it should not dominate.
        assert cross_entries < total_entries * 0.5


class TestPriorityNormalization:
    def build_islands(self, cfg, seed=9):
        """Two view-isolated islands of 10 nodes each."""
        seeds = random.Random(seed)
        nodes = []
        for pid in range(20):
            island = range(0, 10) if pid < 10 else range(10, 20)
            view = [p for p in island if p != pid]
            nodes.append(
                LpbcastNode(pid, cfg, random.Random(seed * 100 + pid),
                            initial_view=seeds.sample(view, 5))
            )
        return nodes

    def test_islands_are_partitioned(self):
        cfg = LpbcastConfig(fanout=3, view_max=5)
        nodes = self.build_islands(cfg)
        assert is_partitioned(nodes)
        assert len(find_partitions(nodes)) == 2

    def test_normalization_heals_partition(self):
        cfg = LpbcastConfig(fanout=3, view_max=5)
        nodes = self.build_islands(cfg)
        priority = PriorityProcessSet((0, 10))  # one anchor per island
        sim = RoundSimulation(seed=9)
        sim.add_nodes(nodes)
        sim.add_round_hook(periodic_normalizer(priority, nodes, period=2))
        sim.run(12)
        assert not is_partitioned(nodes)
        # And dissemination now crosses the former cut.
        log = DeliveryLog().attach(nodes)
        event = nodes[0].lpb_cast("bridge", now=12.0)
        sim.run(12)
        assert log.delivery_count(event.event_id) == 20

    def test_partition_never_heals_without_normalization(self):
        cfg = LpbcastConfig(fanout=3, view_max=5)
        nodes = self.build_islands(cfg)
        sim = RoundSimulation(seed=9)
        sim.add_nodes(nodes)
        sim.run(20)
        # "A priori, it is not possible to recover from such a partition."
        assert is_partitioned(nodes)
