#!/usr/bin/env python
"""lpbcast deployed for real: UDP sockets, one loop, wall-clock timers.

Everything else in this repository *simulates* time; this example deploys
the identical protocol objects on the loopback interface — one UDP socket
per process and one selector loop for all of them, binary frames on the
wire, unsynchronized gossip timers — the laptop-scale analogue of the
paper's 125-workstation measurements (Sec. 5.2), with Bernoulli loss
injected at the send boundary to recreate ε.

Per-source FIFO delivery (a layer real pub/sub consumers want) is
demonstrated on one subscriber via :class:`FifoDeliveryGate`.

Run:  python examples/udp_deployment.py
"""

import time

from repro.core import FifoDeliveryGate, LpbcastConfig
from repro.faults import FaultPlan
from repro.metrics import DeliveryLog
from repro.runtime import LocalDeployment
from repro.sim import build_lpbcast_nodes


def main() -> None:
    n, period = 10, 0.04
    config = LpbcastConfig(fanout=3, view_max=6, gossip_period=period)
    nodes = build_lpbcast_nodes(n, config, seed=21)
    log = DeliveryLog().attach(nodes)

    # One subscriber consumes through a per-source FIFO gate.
    fifo_seen = []
    gate = FifoDeliveryGate()
    gate.add_listener(lambda pid, note, now: fifo_seen.append(note.event_id))
    nodes[5].add_delivery_listener(gate.on_delivery)

    cluster = LocalDeployment(nodes, gossip_period=period, seed=21,
                              fault_plan=FaultPlan().drop(0.1))
    with cluster:
        print(f"deployed {n} processes on loopback UDP "
              f"(T={period * 1000:.0f} ms, 10% injected loss)")
        started = time.monotonic()
        events = [cluster.host(nodes[0].pid).publish({"seq": i})
                  for i in range(5)]
        complete = cluster.wait_until(
            lambda: all(log.delivery_count(e.event_id) == n for e in events),
            timeout=15.0,
        )
        elapsed = time.monotonic() - started

    print(f"all {len(events)} broadcasts delivered everywhere: {complete} "
          f"(wall time {elapsed:.2f} s ~ {elapsed / period:.0f} gossip periods)")
    counters = cluster.datagram_counters()
    print(f"datagrams sent: {counters['sent']}, "
          f"dropped by injected loss: {counters['lost_injected']}")
    order = [eid.seq for eid in fifo_seen if eid.origin == nodes[0].pid]
    print(f"subscriber 5 FIFO delivery order from publisher 0: {order}")
    assert order == sorted(order)


if __name__ == "__main__":
    main()
