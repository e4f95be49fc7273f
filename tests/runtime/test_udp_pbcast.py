"""pbcast on the UDP deployment: the baseline also runs on real sockets."""

from repro.faults import FaultPlan
from repro.metrics import DeliveryLog
from repro.pbcast import PbcastConfig, build_pbcast_nodes
from repro.runtime import LocalDeployment


class TestPbcastOverUdp:
    def test_multicast_plus_gossip_repair_on_loopback(self):
        cfg = PbcastConfig(fanout=4, view_max=6, gossip_period=0.03)
        nodes = build_pbcast_nodes(8, cfg, seed=5, membership="partial")
        log = DeliveryLog().attach(nodes)
        cluster = LocalDeployment(nodes, gossip_period=0.03, seed=5,
                                  fault_plan=FaultPlan().drop(0.2))
        with cluster:
            host = cluster.host(nodes[0].pid)
            event_holder = {}

            def publish(node):
                notification, first = node.publish("via-udp")
                event_holder["event"] = notification
                return first  # with_node ships the phase-1 datagrams

            host.with_node(publish)
            done = cluster.wait_until(
                lambda: log.delivery_count(event_holder["event"].event_id) == 8,
                timeout=10.0,
            )
        assert done, (
            f"only {log.delivery_count(event_holder['event'].event_id)}/8"
        )

    def test_digest_gossip_alone_disseminates(self):
        cfg = PbcastConfig(fanout=4, view_max=6, gossip_period=0.03,
                           first_phase="none")
        nodes = build_pbcast_nodes(8, cfg, seed=6, membership="partial")
        log = DeliveryLog().attach(nodes)
        cluster = LocalDeployment(nodes, gossip_period=0.03, seed=6)
        with cluster:
            holder = {}

            def publish(node):
                notification, _ = node.publish("gossip-only")
                holder["event"] = notification
                return []

            cluster.host(nodes[0].pid).with_node(publish)
            done = cluster.wait_until(
                lambda: log.delivery_count(holder["event"].event_id) == 8,
                timeout=10.0,
            )
        assert done
