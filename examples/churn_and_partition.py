#!/usr/bin/env python
"""Membership under churn and the prioritary-process safeguard (Sec. 4.4).

Part 1 — churn: processes join through contacts, leave with timestamped
unsubscriptions, and crash silently (a fault plan's fail-stop); the
membership absorbs all of it.

Part 2 — partition: we construct the pathological case the paper analyses
(two view-isolated islands), show that gossip alone cannot heal it ("a
priori, it is not possible to recover from such a partition"), then heal it
with prioritary-process view normalization.

Run:  python examples/churn_and_partition.py
"""

import random

from repro.core import LpbcastConfig, LpbcastNode
from repro.faults import FaultPlan
from repro.membership import PriorityProcessSet, periodic_normalizer
from repro.metrics import DeliveryLog, find_partitions, is_partitioned
from repro.sim import ChurnScript, NetworkModel, RoundSimulation, build_lpbcast_nodes


def churn_demo() -> None:
    print("=== Part 1: churn ===")
    config = LpbcastConfig(fanout=3, view_max=8)
    nodes = build_lpbcast_nodes(40, config, seed=5)
    sim = RoundSimulation(
        network=NetworkModel(loss_rate=0.05, rng=random.Random(9)), seed=5
    )
    sim.add_nodes(nodes)

    script = ChurnScript(
        node_factory=lambda pid: LpbcastNode(pid, config, random.Random(pid))
    )
    script.join(2, pid=100, contact=0)
    script.join(3, pid=101, contact=7)
    script.leave(5, nodes[4].pid)
    sim.add_round_hook(script.on_round)
    sim.use_fault_plan(FaultPlan().crash(nodes[9].pid, at=6))

    sim.run(20)

    joiner = sim.nodes[100]
    print(f"joiner 100 integrated: {joiner.joined}, view={len(joiner.view)}")
    known_by = sum(1 for n in nodes if 100 in n.view)
    print(f"joiner 100 known by {known_by} original members")
    leaver_known = sum(1 for n in nodes if nodes[4].pid in n.view)
    print(f"leaver {nodes[4].pid} still in {leaver_known} views "
          f"(gradual removal, Sec. 3.4)")
    print(f"crashed process {nodes[9].pid} alive: {sim.alive(nodes[9].pid)}")

    # The churned system still broadcasts atomically among live members.
    live = [n for n in sim.nodes.values()
            if sim.alive(n.pid) and not n.unsubscribed]
    log = DeliveryLog().attach(live)
    event = nodes[0].lpb_cast("after churn", now=20.0)
    sim.run(10)
    covered = sum(1 for n in live if log.delivered(n.pid, event.event_id))
    print(f"post-churn broadcast covered {covered}/{len(live)} live processes")


def partition_demo() -> None:
    print("\n=== Part 2: partition and recovery ===")
    config = LpbcastConfig(fanout=3, view_max=5)
    rng = random.Random(13)
    nodes = []
    for pid in range(20):
        island = range(0, 10) if pid < 10 else range(10, 20)
        candidates = [p for p in island if p != pid]
        nodes.append(LpbcastNode(pid, config, random.Random(pid * 7 + 1),
                                 initial_view=rng.sample(candidates, 5)))

    sim = RoundSimulation(seed=13)
    sim.add_nodes(nodes)
    print(f"partitions initially: "
          f"{[sorted(p) for p in find_partitions(nodes)]}")

    sim.run(15)
    print(f"after 15 rounds of plain gossip, partitioned: "
          f"{is_partitioned(nodes)} (gossip cannot invent unknown peers)")

    # Heal: processes 0 and 10 are elected prioritary, "constantly known by
    # each process", and views are periodically normalized against them.
    priority = PriorityProcessSet((0, 10))
    sim.add_round_hook(periodic_normalizer(priority, nodes, period=3))
    sim.run(15)
    print(f"after normalization, partitioned: {is_partitioned(nodes)}")

    log = DeliveryLog().attach(nodes)
    event = nodes[2].lpb_cast("cross-island", now=30.0)
    sim.run(10)
    print(f"cross-island broadcast covered "
          f"{log.delivery_count(event.event_id)}/20 processes")


if __name__ == "__main__":
    churn_demo()
    partition_demo()
