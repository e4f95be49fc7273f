"""Tests for the loopback-UDP deployment runtime.

These run real sockets and threads with short wall-clock budgets; they are
deliberately small-scale (n <= 12, sub-second gossip periods) to stay fast
and robust.
"""

import threading
import time

import pytest

from repro.core import LpbcastConfig
from repro.metrics import DeliveryLog
from repro.runtime import LocalDeployment, UdpProcessHost
from repro.sim import build_lpbcast_nodes


def build_cluster(n=8, loss=0.0, period=0.03, seed=1, view=6):
    cfg = LpbcastConfig(fanout=3, view_max=view, gossip_period=period)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    log = DeliveryLog().attach(nodes)
    cluster = LocalDeployment(nodes, gossip_period=period, loss_rate=loss,
                              seed=seed)
    return cluster, nodes, log


class TestDeployment:
    def test_broadcast_reaches_every_process(self):
        cluster, nodes, log = build_cluster(n=8)
        with cluster:
            event = cluster.host(nodes[0].pid).publish("hello")
            done = cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 8, timeout=8.0
            )
        assert done, f"only {log.delivery_count(event.event_id)}/8 delivered"

    def test_broadcast_survives_injected_loss(self):
        cluster, nodes, log = build_cluster(n=8, loss=0.2, seed=2)
        with cluster:
            event = cluster.host(nodes[0].pid).publish("lossy")
            done = cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 8, timeout=10.0
            )
        assert done
        assert any(host.datagrams_dropped > 0 for host in cluster.hosts)

    def test_multiple_publishers_concurrently(self):
        cluster, nodes, log = build_cluster(n=10, seed=3)
        with cluster:
            events = [
                cluster.host(nodes[i].pid).publish({"from": i})
                for i in range(3)
            ]
            done = cluster.wait_until(
                lambda: all(
                    log.delivery_count(e.event_id) == 10 for e in events
                ),
                timeout=10.0,
            )
        assert done

    def test_timers_are_unsynchronized_and_periodic(self):
        cluster, nodes, log = build_cluster(n=6, period=0.05, seed=4)
        with cluster:
            cluster.run_for(0.5)
            sent = [host.datagrams_sent for host in cluster.hosts]
        # ~10 ticks x fanout 3 each; generous bounds for scheduler jitter.
        assert all(s >= 9 for s in sent)

    def test_malformed_datagrams_tolerated(self):
        cluster, nodes, log = build_cluster(n=4, seed=5)
        with cluster:
            import socket
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            target = cluster.host(nodes[0].pid).address
            sock.sendto(b"garbage", target)
            sock.sendto(b"1|{not json", target)
            sock.sendto(b"xx|{}", target)
            sock.close()
            event = cluster.host(nodes[1].pid).publish("still works")
            done = cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 4, timeout=8.0
            )
        assert done
        assert cluster.host(nodes[0].pid).decode_errors >= 2

    def test_stop_is_clean_and_idempotent(self):
        cluster, nodes, log = build_cluster(n=4, seed=6)
        cluster.start()
        cluster.stop()
        cluster.stop()
        before = threading.active_count()
        time.sleep(0.1)
        assert threading.active_count() <= before

    def test_stop_before_start_closes_every_socket(self):
        # The shape of `try: ... finally: cluster.stop()` around a start
        # that never happened: no "cannot join thread" error, no bound
        # socket left behind.
        cluster, nodes, log = build_cluster(n=4, seed=6)
        cluster.stop()
        assert all(host._sock.fileno() == -1 for host in cluster.hosts)
        cluster.stop()

    def test_with_node_ships_returned_messages(self):
        cluster, nodes, log = build_cluster(n=4, seed=7)
        joiner_cfg = LpbcastConfig(fanout=2, view_max=4, gossip_period=0.03)
        from repro.core import LpbcastNode
        import random as _random
        joiner = LpbcastNode(99, joiner_cfg, _random.Random(99))
        DeliveryLog().attach([joiner])
        with cluster:
            host = UdpProcessHost(joiner, cluster.directory,
                                  gossip_period=0.03)
            host.start()
            host.with_node(
                lambda node: node.start_join(nodes[0].pid,
                                             now=time.monotonic())
            )
            joined = cluster.wait_until(lambda: joiner.joined, timeout=8.0)
            host.stop()
            host.join()
        assert joined


class TestDropAccounting:
    """The three send-side drop causes stay distinct (a conflated counter
    made loss-rate experiments misreport whenever oversize occurred)."""

    def test_injected_loss_lands_in_its_own_counter(self):
        cluster, nodes, log = build_cluster(n=6, loss=0.25, seed=11)
        with cluster:
            event = cluster.host(nodes[0].pid).publish("count me")
            cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 6, timeout=10.0
            )
        lost = sum(h.datagrams_lost_injected for h in cluster.hosts)
        assert lost > 0
        assert sum(h.datagrams_oversize for h in cluster.hosts) == 0
        assert sum(h.datagrams_send_errors for h in cluster.hosts) == 0
        assert sum(h.datagrams_dropped for h in cluster.hosts) == lost

    def test_oversize_lands_in_its_own_counter(self):
        cluster, nodes, log = build_cluster(n=2, seed=12)
        with cluster:
            host = cluster.host(nodes[0].pid)
            host.with_node(lambda node: node.lpb_cast("x" * 100_000))
            cluster.run_for(0.3)
            oversize = host.datagrams_oversize
            assert oversize > 0
            assert host.datagrams_lost_injected == 0
            assert host.datagrams_dropped == oversize

    def test_cluster_counters_aggregate_by_cause(self):
        cluster, nodes, log = build_cluster(n=6, loss=0.2, seed=13)
        with cluster:
            cluster.host(nodes[0].pid).publish("tally")
            cluster.run_for(0.5)
            counters = cluster.datagram_counters()
        assert counters["sent"] > 0
        assert counters["received"] > 0
        assert counters["lost_injected"] > 0
        assert counters["dropped"] == (counters["lost_injected"]
                                       + counters["oversize"]
                                       + counters["send_errors"])


class TestFaultPlanDeployment:
    def test_drop_plan_replaces_loss_rate(self):
        from repro.faults import FaultPlan

        cfg = LpbcastConfig(fanout=3, view_max=6, gossip_period=0.03)
        nodes = build_lpbcast_nodes(8, cfg, seed=14)
        log = DeliveryLog().attach(nodes)
        cluster = LocalDeployment(nodes, gossip_period=0.03, seed=14,
                                  fault_plan=FaultPlan().drop(0.25))
        assert all(h.fault_injector is cluster.fault_injector
                   for h in cluster.hosts)
        with cluster:
            event = cluster.host(nodes[0].pid).publish("planned loss")
            done = cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 8, timeout=10.0
            )
        assert done
        assert cluster.datagram_counters()["lost_injected"] > 0
        assert cluster.fault_injector.stats.dropped > 0

    def test_partition_plan_cuts_the_cluster(self):
        from repro.faults import FaultPlan

        cfg = LpbcastConfig(fanout=3, view_max=6, gossip_period=0.03)
        nodes = build_lpbcast_nodes(6, cfg, seed=15)
        log = DeliveryLog().attach(nodes)
        side_a = [n.pid for n in nodes[:3]]
        side_b = [n.pid for n in nodes[3:]]
        plan = FaultPlan().partition(side_a, side_b, start=1, heal=100_000)
        cluster = LocalDeployment(nodes, gossip_period=0.03, seed=15,
                                  fault_plan=plan)
        with cluster:
            event = cluster.host(side_a[0]).publish("walled in")
            cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 3, timeout=8.0
            )
            cluster.run_for(0.3)  # grace: a crossing would surface here
        assert {p for p in side_a if log.delivered(p, event.event_id)} \
            == set(side_a)
        assert all(not log.delivered(p, event.event_id) for p in side_b)
        assert cluster.fault_injector.stats.partition_blocked > 0


class TestValidation:
    def test_invalid_period(self):
        with pytest.raises(ValueError):
            build_cluster(period=0.0)

    def test_invalid_loss(self):
        with pytest.raises(ValueError):
            build_cluster(loss=1.0)

    def test_oversized_datagram_dropped_not_crashed(self):
        cluster, nodes, log = build_cluster(n=2, seed=8)
        with cluster:
            host = cluster.host(nodes[0].pid)
            # A payload far beyond the 65 kB datagram cap.
            host.with_node(lambda node: node.lpb_cast("x" * 100_000))
            cluster.run_for(0.3)
            dropped = host.datagrams_dropped
        assert dropped > 0  # counted, not raised

    def test_message_to_unknown_pid_ignored(self):
        cluster, nodes, log = build_cluster(n=2, seed=9)
        with cluster:
            host = cluster.host(nodes[0].pid)
            from repro.core.message import Outgoing
            host._send_all([Outgoing(9999, object())])  # no address: no-op
            cluster.run_for(0.1)
        # Nothing raised; cluster shut down cleanly.
