"""Telemetry smoke for the loopback-UDP runtime.

The deployment shares one registry across all hosts, written under the
deployment's lock; each host's ``datagram_counters()`` reads its own pid's
labelled series from it, so both surfaces must agree.
"""

import sys
import threading

from repro.core import LpbcastConfig
from repro.faults import FaultPlan
from repro.metrics import DeliveryLog
from repro.runtime import LocalDeployment
from repro.sim import build_lpbcast_nodes


def build_cluster(n=6, loss=0.0, period=0.03, seed=6):
    cfg = LpbcastConfig(fanout=3, view_max=6, gossip_period=period)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    log = DeliveryLog().attach(nodes)
    cluster = LocalDeployment(
        nodes, gossip_period=period, seed=seed,
        fault_plan=FaultPlan().drop(loss) if loss else None)
    return cluster, nodes, log


class TestUdpTelemetry:
    def test_shared_registry_matches_host_counters(self):
        cluster, nodes, log = build_cluster(n=6)
        with cluster:
            event = cluster.host(nodes[0].pid).publish("hello")
            done = cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 6, timeout=8.0
            )
        assert done
        telemetry = cluster.telemetry
        for host in cluster.hosts:
            assert host.telemetry is telemetry  # one registry, all hosts
            counters = host.datagram_counters()
            assert counters["sent"] == telemetry.counter_value(
                "udp.datagrams_sent", pid=host.node.pid
            )
            assert counters["received"] == telemetry.counter_value(
                "udp.datagrams_received", pid=host.node.pid
            )
        assert telemetry.counter_total("udp.datagrams_sent") == \
            sum(host.datagram_counters()["sent"] for host in cluster.hosts)
        assert telemetry.counter_total("udp.datagrams_sent") > 0

    def test_injected_loss_counted(self):
        cluster, nodes, log = build_cluster(n=6, loss=0.25, seed=7)
        with cluster:
            cluster.run_for(0.4)
        telemetry = cluster.telemetry
        lost = telemetry.counter_total("udp.datagrams_lost_injected")
        assert lost > 0
        assert lost == sum(h.datagram_counters()["lost_injected"]
                           for h in cluster.hosts)

    def test_codec_timings_recorded(self):
        cluster, nodes, log = build_cluster(n=4, seed=8)
        with cluster:
            cluster.run_for(0.3)
        telemetry = cluster.telemetry
        encode = telemetry.histogram_stats("time.codec", op="encode")
        decode = telemetry.histogram_stats("time.codec", op="decode")
        assert encode is not None and encode[0] > 0
        assert decode is not None and decode[0] > 0

    def test_decode_errors_counted(self):
        cluster, nodes, log = build_cluster(n=4, seed=9)
        with cluster:
            import socket
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            target = cluster.host(nodes[0].pid).address
            sock.sendto(b"garbage", target)
            sock.close()
            cluster.wait_until(
                lambda: cluster.host(nodes[0].pid).datagram_counters()[
                    "decode_errors"] > 0,
                timeout=5.0,
            )
        assert cluster.telemetry.counter_total("udp.decode_errors") >= 1

    def test_counters_are_one_read_while_writers_add_series(self):
        # Writers add series through with_node (the deployment's lock)
        # while the loop runs and a reader takes the counters: an unlocked
        # copy would die of "dictionary changed size during iteration".
        cluster, nodes, log = build_cluster(n=4, seed=10)
        telemetry, host = cluster.telemetry, cluster.host(nodes[0].pid)
        writers, series = 3, 2000

        def write(worker):
            for index in range(series):
                host.with_node(lambda node: telemetry.observe(
                    "time.codec", 1.0, worker=worker, index=index))

        threads = [threading.Thread(target=write, args=(worker,))
                   for worker in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with cluster:
                for thread in threads:
                    thread.start()
                while any(thread.is_alive() for thread in threads):
                    counters = cluster.datagram_counters()
                    assert counters["dropped"] == (
                        counters["lost_injected"] + counters["oversize"]
                        + counters["send_errors"])
                for thread in threads:
                    thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        histograms = telemetry.snapshot()["histograms"]
        assert sum(("worker", 0) in key for _name, key in histograms) == series
