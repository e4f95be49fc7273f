#!/usr/bin/env python
"""Crash cleanup with gossip-style failure detection (paper reference [29]).

lpbcast's unsubscriptions (Sec. 3.4) remove processes that leave *politely*;
a crashed process never says goodbye, so its id lingers in partial views and
keeps attracting gossips into the void.  This example pairs lpbcast with the
heartbeat failure detector of van Renesse et al. — counters piggybacked on
the ordinary gossips, no extra messages — and shows:

1. a crashed process being purged from every live view within a bounded
   number of rounds (vs. lingering indefinitely without the detector);
2. the isolation guard: a process cut off from the network does NOT declare
   everyone else dead, so it can rejoin when the cut heals.

Run:  python examples/failure_detection.py
"""

import random

from repro.core import LpbcastConfig
from repro.failuredetector import FdLpbcastNode
from repro.faults import FaultPlan
from repro.sim import NetworkModel, RoundSimulation
from repro.sim.rng import SeedSequence
from repro.sim.topology import uniform_random_views


def build(n=40, suspect=6.0, seed=11, plan=None):
    cfg = LpbcastConfig(fanout=3, view_max=8)
    seeds = SeedSequence(seed)
    pids = list(range(n))
    views = uniform_random_views(pids, 8, seeds.rng("views"))
    nodes = [
        FdLpbcastNode(pid, cfg, seeds.rng("node", pid),
                      initial_view=views[pid],
                      suspect_timeout=suspect, forget_timeout=4 * suspect)
        for pid in pids
    ]
    net = NetworkModel(loss_rate=0.05, rng=random.Random(seed + 2))
    sim = RoundSimulation(network=net, seed=seed)
    sim.add_nodes(nodes)
    if plan is not None:
        sim.use_fault_plan(plan)
    return sim, nodes


def crash_cleanup_demo() -> None:
    print("=== crash cleanup ===")
    sim, nodes = build()
    victim = nodes[7].pid
    sim.run(3)
    knowers = sum(1 for n in nodes if n.pid != victim and victim in n.view)
    print(f"round 3: process {victim} known by {knowers} processes")
    sim.crash(victim)
    for checkpoint in (6, 10, 14, 18):
        sim.run(checkpoint - sim.round)
        knowers = sum(
            1 for n in nodes if n.pid != victim and victim in n.view
        )
        print(f"round {checkpoint}: crashed process still in {knowers} views")
    purges = sum(n.suspected_purged for n in nodes)
    print(f"total suspect purges: {purges} "
          f"(heartbeat silence > 6 rounds => removed)")


def isolation_guard_demo() -> None:
    print("\n=== isolation guard ===")
    # Process 5 is cut off from everyone for rounds 1-10; the cut heals at 11.
    cut = FaultPlan().partition([5], [p for p in range(40) if p != 5],
                                start=1, heal=11)
    sim, nodes = build(suspect=4.0, plan=cut)
    sim.run(10)
    print(f"process 5 isolated for 10 rounds; "
          f"its own view still has {len(nodes[5].view)} entries "
          f"(guard: don't declare the world dead)")
    others_knowing_5 = sum(1 for n in nodes if n.pid != 5 and 5 in n.view)
    print(f"the rest suspected and purged it: known by {others_knowing_5}")
    sim.run(15)
    others_knowing_5 = sum(1 for n in nodes if n.pid != 5 and 5 in n.view)
    print(f"15 rounds after the cut heals: process 5 known by "
          f"{others_knowing_5} again (its gossip re-advertised it)")


if __name__ == "__main__":
    crash_cleanup_demo()
    isolation_guard_demo()
