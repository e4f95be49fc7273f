#!/usr/bin/env python
"""Answering "why didn't process X get event Y?" with the run's trace.

Runs a lossy dissemination with tracing on, then combines the delivery log
(who was infected, and in which round) with the engine's trace stream (every
message the network lost is a ``net.drop`` event stamped with its round) to
explain the slowest process's late infection.

Run:  python examples/trace_debugging.py
"""

import random
from collections import Counter

from repro.core import LpbcastConfig
from repro.metrics import DeliveryLog
from repro.sim import NetworkModel, RoundSimulation, build_lpbcast_nodes
from repro.telemetry import NET_DROP


def main() -> None:
    config = LpbcastConfig(fanout=3, view_max=8)
    nodes = build_lpbcast_nodes(30, config, seed=33)
    network = NetworkModel(loss_rate=0.25, rng=random.Random(34))
    sim = RoundSimulation(network=network, seed=33)
    sim.add_nodes(nodes)
    sim.telemetry.tracing = True
    log = DeliveryLog().attach(nodes)

    event = nodes[0].lpb_cast({"kind": "audit"}, now=0.0)
    sim.run(12)

    infected = {pid: log.delivery_time(pid, event.event_id)
                for pid in log.deliverers_of(event.event_id)}
    print(f"event {event.event_id}: delivered by {len(infected)}/30 processes")
    per_round = Counter(int(at) for at in infected.values())
    print(f"infections per round: {dict(sorted(per_round.items()))}")
    last = max(infected, key=infected.get)
    infected_at = infected[last]
    print(f"\nslowest process: {last}, infected at round {infected_at:.0f}")

    drops = sim.telemetry.trace.of_kind(NET_DROP)
    toward = [e for e in drops if e.peer == last]
    early = [e for e in toward if e.at < infected_at]
    print(f"network dropped {len(drops)} messages in total, "
          f"{len(toward)} of them addressed to process {last} "
          f"(rounds {[int(e.at) for e in toward]})")
    print(f"=> {len(early)} of them fell before round {infected_at:.0f}; "
          f"the other {len(toward) - len(early)} came after process {last} "
          f"was infected.")

    print(f"\ntrace summary: {sim.telemetry.trace.counts()}")


if __name__ == "__main__":
    main()
