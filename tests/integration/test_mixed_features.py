"""Feature-composition integration tests.

Each optional mechanism is tested in isolation elsewhere; these runs switch
several on at once and check the composite still behaves: weighted views +
weighted events + membership boost; FIFO gating over retransmissions;
compact digests under the async runtime; pbcast with multicast first phase
and partial membership under churned networks.
"""

import random

from repro.core import FifoDeliveryGate, LpbcastConfig
from repro.metrics import DeliveryLog, in_degree_stats, measure_reliability
from repro.pbcast import PbcastConfig, build_pbcast_nodes
from repro.sim import (
    AsyncGossipRuntime,
    BroadcastWorkload,
    NetworkModel,
    RoundSimulation,
    build_lpbcast_nodes,
    constant_latency,
)


class TestEverythingOnLpbcast:
    def test_all_sec61_optimizations_together(self):
        cfg = LpbcastConfig(
            fanout=3, view_max=10,
            weighted_views=True, weighted_events=True,
            membership_boost=1,
        )
        nodes = build_lpbcast_nodes(60, cfg, seed=14)
        sim = RoundSimulation(
            NetworkModel(loss_rate=0.05, rng=random.Random(15)), seed=14
        )
        sim.add_nodes(nodes)
        log = DeliveryLog().attach(nodes)
        event = nodes[0].lpb_cast("x", now=0.0)
        sim.run(12)
        assert log.delivery_count(event.event_id) == 60
        stats = in_degree_stats(nodes)
        assert stats.mean == 10.0
        assert stats.isolated == 0

    def test_fifo_gate_over_anti_entropy(self):
        cfg = LpbcastConfig(
            fanout=3, view_max=10,
            retransmissions=True, push_back=True,
            digest_implies_delivery=False,
        )
        nodes = build_lpbcast_nodes(25, cfg, seed=16)
        sim = RoundSimulation(
            NetworkModel(loss_rate=0.2, rng=random.Random(17)), seed=16
        )
        sim.add_nodes(nodes)
        orders = {}
        for node in nodes[1:]:
            gate = FifoDeliveryGate()
            order = []
            gate.add_listener(
                lambda pid, n, now, order=order: order.append(n.event_id.seq)
            )
            node.add_delivery_listener(gate.on_delivery)
            orders[node.pid] = order
        for r in range(6):
            nodes[0].lpb_cast(f"m{r}", now=float(r))
            sim.run_round()
        sim.run(14)
        complete = sum(
            1 for order in orders.values() if order == [1, 2, 3, 4, 5, 6]
        )
        # Anti-entropy repairs the payloads; FIFO gates order them.
        assert complete >= 0.9 * len(orders)

    def test_compact_digests_under_async_runtime(self):
        cfg = LpbcastConfig(fanout=3, view_max=8, event_ids_max=64)
        nodes = build_lpbcast_nodes(20, cfg, seed=18)
        net = NetworkModel(loss_rate=0.05, rng=random.Random(19),
                           latency=constant_latency(0.1))
        runtime = AsyncGossipRuntime(network=net, seed=18)
        runtime.add_nodes(nodes)
        log = DeliveryLog().attach(nodes)
        workload = BroadcastWorkload(nodes[:5], events_per_round=1,
                                     start=1, stop=6)
        runtime.on_tick_complete(workload.on_tick)
        runtime.run_until(25.0)
        report = measure_reliability(
            log, workload.published_ids(), [n.pid for n in nodes]
        )
        assert report.reliability > 0.95


class TestPbcastComposite:
    def test_multicast_first_phase_with_partial_views_and_crashes(self):
        cfg = PbcastConfig(fanout=5, view_max=10, first_phase="multicast")
        nodes = build_pbcast_nodes(40, cfg, seed=20, membership="partial")
        sim = RoundSimulation(
            NetworkModel(loss_rate=0.15, rng=random.Random(21)), seed=20
        )
        sim.add_nodes(nodes)
        log = DeliveryLog().attach(nodes)
        for victim in (nodes[9].pid, nodes[17].pid):
            sim.crash(victim)
        event, first = nodes[0].publish("x", now=0.0)
        sim.inject(nodes[0].pid, first)
        sim.run(10)
        survivors = [n.pid for n in nodes if sim.alive(n.pid)]
        covered = sum(1 for pid in survivors if log.delivered(pid, event.event_id))
        assert covered >= 0.95 * len(survivors)
