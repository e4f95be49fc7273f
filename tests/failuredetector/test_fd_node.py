"""Tests for lpbcast with piggybacked failure detection."""

import random

from repro.core import LpbcastConfig
from repro.failuredetector import FdLpbcastNode
from repro.metrics import DeliveryLog
from repro.sim import NetworkModel, RoundSimulation
from repro.sim.rng import SeedSequence
from repro.sim.topology import uniform_random_views


def build_fd_system(n=30, seed=0, suspect=4.0, view_max=8):
    cfg = LpbcastConfig(fanout=3, view_max=view_max)
    seeds = SeedSequence(seed)
    pids = list(range(n))
    views = uniform_random_views(pids, view_max, seeds.rng("views"))
    nodes = [
        FdLpbcastNode(pid, cfg, seeds.rng("node", pid),
                      initial_view=views[pid],
                      suspect_timeout=suspect, forget_timeout=4 * suspect)
        for pid in pids
    ]
    sim = RoundSimulation(
        NetworkModel(loss_rate=0.05, rng=random.Random(seed + 70)), seed=seed
    )
    sim.add_nodes(nodes)
    return sim, nodes


class TestPiggybacking:
    def test_gossips_carry_heartbeats(self):
        sim, nodes = build_fd_system(n=10)
        out = nodes[0].on_tick(now=1.0)
        assert out
        assert all(o.message.heartbeats for o in out)
        payload = dict(out[0].message.heartbeats)
        assert payload[nodes[0].pid] == 1

    def test_heartbeat_knowledge_spreads(self):
        sim, nodes = build_fd_system(n=20)
        sim.run(6)
        # After a few rounds every node should know heartbeats for many
        # processes it never talked to directly.
        known_counts = [len(n.detector.known()) for n in nodes]
        assert sum(known_counts) / len(known_counts) > 10


class TestCrashDetection:
    def test_crashed_node_purged_from_views(self):
        sim, nodes = build_fd_system(n=30, suspect=4.0)
        victim = nodes[5].pid
        sim.run(3)  # victim is alive and known
        known_before = sum(1 for n in nodes if victim in n.view)
        assert known_before > 0
        sim.crash(victim)
        sim.run(14)  # silence exceeds the suspect timeout everywhere
        known_after = sum(
            1 for n in nodes if n.pid != victim and victim in n.view
        )
        assert known_after == 0
        assert sum(n.suspected_purged for n in nodes) > 0

    def test_live_nodes_keep_full_views(self):
        # A generous timeout (relative to heartbeat propagation lag) avoids
        # false suspicion; views stay full.
        sim, nodes = build_fd_system(n=20, suspect=8.0)
        sim.run(20)
        assert all(len(n.view) == 8 for n in nodes)
        assert sum(n.suspected_purged for n in nodes) == 0

    def test_dissemination_unaffected(self):
        sim, nodes = build_fd_system(n=25)
        log = DeliveryLog().attach(nodes)
        event = nodes[0].lpb_cast("x", now=0.0)
        sim.run(10)
        assert log.delivery_count(event.event_id) == 25

    def test_poisoned_pids_age_out_of_views_and_subs(self):
        """Under a poison_view plan, fabricated pids enter circulation but
        never gossip — failure detection must purge them from views *and*
        subs once they exceed the suspect timeout, within the invariant
        monitor's grace window."""
        from repro.faults import FaultPlan, InvariantMonitor

        sim, nodes = build_fd_system(n=16, seed=5, suspect=4.0)
        liar = nodes[15].pid
        plan = FaultPlan().poison_view(liar, rate=1.0, count=2,
                                       start=1, stop=6)
        sim.use_fault_plan(plan)
        monitor = InvariantMonitor(mode="collect").attach(sim)
        sim.run(5)  # poison window: ghosts circulate
        ghosts = plan.poisoned_pids()
        seen = sum(1 for n in nodes for g in ghosts
                   if g in n.view or g in n.subs.snapshot())
        assert seen > 0, "the poison fault never landed"
        sim.run(20)  # window closed at 6; detection ages the ghosts out
        for node in nodes:
            for ghost in ghosts:
                assert ghost not in node.view, (node.pid, ghost)
                assert ghost not in node.subs.snapshot(), (node.pid, ghost)
        hygiene = [v for v in monitor.violations
                   if v.invariant == "view-hygiene"]
        assert not hygiene, monitor.report()

    def test_poison_does_not_resurrect_crashed_nodes(self):
        """A crashed-silent process and a fabricated ghost look the same to
        the detector (no heartbeats); poisoning traffic must not re-plant
        the crashed pid in anyone's view."""
        from repro.faults import FaultPlan

        sim, nodes = build_fd_system(n=16, seed=6, suspect=4.0)
        victim = nodes[3].pid
        liar = nodes[15].pid
        sim.use_fault_plan(
            FaultPlan()
            .crash(victim, at=2)
            .poison_view(liar, rate=1.0, count=2, start=1, stop=8))
        sim.run(25)
        assert not sim.alive(victim)
        survivors = [n for n in nodes
                     if n.pid != victim and sim.alive(n.pid)]
        assert survivors
        assert all(victim not in n.view for n in survivors)
        assert all(victim not in n.subs.snapshot() for n in survivors)

    def test_suspected_process_recovers_via_gossip(self):
        # A partition-like silence: node 5 is cut off, suspected, then the
        # cut heals and its own gossiping re-establishes it.
        cfg = LpbcastConfig(fanout=3, view_max=8)
        seeds = SeedSequence(3)
        pids = list(range(12))
        views = uniform_random_views(pids, 8, seeds.rng("views"))
        nodes = [
            FdLpbcastNode(pid, cfg, seeds.rng("node", pid),
                          initial_view=views[pid],
                          suspect_timeout=3.0, forget_timeout=30.0)
            for pid in pids
        ]
        from repro.faults import FaultPlan

        net = NetworkModel(loss_rate=0.0, rng=random.Random(4))
        sim = RoundSimulation(network=net, seed=3)
        sim.add_nodes(nodes)
        sim.use_fault_plan(FaultPlan().partition(
            [5], [p for p in pids if p != 5], start=1, heal=9))
        sim.run(8)  # 5 is silent: suspected and purged
        assert all(5 not in n.view for n in nodes if n.pid != 5)
        sim.run(12)  # 5 gossips again; its self-advertisement spreads
        knowers = sum(1 for n in nodes if n.pid != 5 and 5 in n.view)
        assert knowers > 0
