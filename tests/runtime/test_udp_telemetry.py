"""Telemetry smoke for the loopback-UDP runtime.

The deployment shares one registry across all hosts, written under the
deployment's lock; each host's ``datagram_counters()`` reads its own pid's
labelled series from it, so both surfaces must agree.
"""

import socket
import sys
import threading

from repro.core import LpbcastConfig
from repro.core.message import GossipMessage
from repro.faults import FaultPlan
from repro.metrics import DeliveryLog
from repro.runtime import LocalDeployment
from repro.sim import build_lpbcast_nodes
from repro.wire import encode_frame


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

    def test_datagrams_queued_before_the_loop_are_all_read(self):
        # One read per readiness: the level-triggered selector must report
        # the socket again until the last queued datagram is read.
        cfg = LpbcastConfig(fanout=3, view_max=6)
        nodes = build_lpbcast_nodes(2, cfg, seed=31)
        # An hour-long period: seed 31 puts the one host's first tick
        # ~30 minutes out, so every datagram it decodes is one of these.
        cluster = LocalDeployment(nodes[:1], gossip_period=3600.0, seed=31)
        host = cluster.host(nodes[0].pid)
        # The default receive buffer holds ~256 such datagrams; the kernel
        # grants at least twice the usual 208 KiB cap, room for 300.
        host._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        frame = encode_frame(nodes[1].pid, [GossipMessage(nodes[1].pid)])
        try:
            for _ in range(300):
                sock.sendto(frame, host.address)
            with cluster:
                cluster.wait_until(
                    lambda: host.datagram_counters()["received"] >= 300,
                    timeout=5.0)
                counters = host.datagram_counters()
        finally:
            sock.close()
        assert counters["received"] == 300
        assert counters["bytes_received"] == 300 * len(frame)
        decode = cluster.telemetry.histogram_stats("time.codec", op="decode")
        assert decode[0] == 300

    def test_series_and_decode_timer_under_faults_and_garbage(self):
        # Resolved keys create no series: what exists is what was counted,
        # labelled by pid alone; every decode attempt is timed, good or bad.
        cluster, nodes, log = build_cluster(n=6, loss=0.2, seed=11)
        target = nodes[0].pid
        with cluster:
            event = cluster.host(nodes[1].pid).publish("faulted")
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.sendto(b"garbage", cluster.host(target).address)
            sock.close()
            cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 6
                and cluster.datagram_counters()["decode_errors"] == 1,
                timeout=8.0)
            cluster.run_for(0.3)
        telemetry = cluster.telemetry
        counters = {key: value for key, value in
                    telemetry.snapshot()["counters"].items()
                    if key[0].startswith("udp.")}
        assert all(value > 0 for value in counters.values())
        by_pid = {}
        for name, labels in counters:
            (label, pid), = labels
            assert label == "pid"
            by_pid.setdefault(pid, set()).add(name)
        assert set(by_pid) == {node.pid for node in nodes}
        traffic = {"udp.datagrams_sent", "udp.bytes_sent",
                   "udp.datagrams_received", "udp.bytes_received"}
        for pid, names in by_pid.items():
            extra = names - traffic
            assert traffic <= names
            assert extra <= ({"udp.datagrams_lost_injected", "udp.decode_errors"}
                             if pid == target else
                             {"udp.datagrams_lost_injected"})
        assert "udp.decode_errors" in by_pid[target]
        assert telemetry.counter_total("udp.datagrams_lost_injected") > 0
        totals = cluster.datagram_counters()
        decode = telemetry.histogram_stats("time.codec", op="decode")
        assert decode[0] == totals["received"] + totals["decode_errors"]
        assert totals["decode_errors"] == 1

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
