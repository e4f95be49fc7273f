"""Wire-path tests for the UDP runtime: frame formats, splitting,
truncation detection and byte accounting."""

import socket

import pytest

from repro.core import LpbcastConfig
from repro.metrics import DeliveryLog
from repro.runtime import LocalDeployment
from repro.sim import build_lpbcast_nodes


def build_cluster(n=4, period=0.03, seed=1, wire_format="binary"):
    cfg = LpbcastConfig(fanout=3, view_max=6, gossip_period=period)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    log = DeliveryLog().attach(nodes)
    cluster = LocalDeployment(nodes, gossip_period=period, seed=seed,
                              wire_format=wire_format)
    return cluster, nodes, log


class TestWireFormats:
    @pytest.mark.parametrize("wire_format", ["binary", "json"])
    def test_broadcast_delivers_in_every_format(self, wire_format):
        cluster, nodes, log = build_cluster(n=6, seed=21,
                                            wire_format=wire_format)
        with cluster:
            event = cluster.host(nodes[0].pid).publish(f"via-{wire_format}")
            done = cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 6, timeout=8.0
            )
        assert done, (f"{wire_format}: only "
                      f"{log.delivery_count(event.event_id)}/6 delivered")

    def test_invalid_wire_format_rejected(self):
        with pytest.raises(ValueError, match="wire_format"):
            build_cluster(wire_format="carrier-pigeon")

    def test_binary_is_the_default(self):
        cfg = LpbcastConfig(fanout=2, view_max=4)
        nodes = build_lpbcast_nodes(2, cfg, seed=1)
        cluster = LocalDeployment(nodes)
        assert all(h.wire_format == "binary" for h in cluster.hosts)

    def test_text_datagram_is_a_decode_error_not_a_message(self):
        # The retired pid|json format fails the frame version check.
        from repro.core.codec import to_json
        from repro.core.message import SubscriptionRequest

        cluster, nodes, log = build_cluster(n=2, seed=22)
        with cluster:
            host = cluster.host(nodes[0].pid)
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            text = f"{nodes[1].pid}|{to_json(SubscriptionRequest(99))}"
            sock.sendto(text.encode("utf-8"), host.address)
            sock.close()
            cluster.wait_until(lambda: host.decode_errors > 0, timeout=3.0)
            cluster.run_for(0.1)
            assert host.decode_errors == 1
            assert host.with_node(
                lambda node: node.stats.join_requests_served) == 0


class TestByteCounters:
    def test_bytes_sent_and_received_tracked(self):
        cluster, nodes, log = build_cluster(n=4, seed=23)
        with cluster:
            cluster.host(nodes[0].pid).publish("count bytes")
            cluster.run_for(0.3)
            counters = cluster.datagram_counters()
        assert counters["bytes_sent"] > 0
        assert counters["bytes_received"] > 0
        # Loopback with no loss: received bytes come from sent datagrams.
        assert counters["bytes_received"] <= counters["bytes_sent"]

    def test_binary_moves_fewer_bytes_than_json(self):
        totals = {}
        for fmt in ("binary", "json"):
            cluster, nodes, log = build_cluster(n=6, seed=24, wire_format=fmt)
            with cluster:
                event = cluster.host(nodes[0].pid).publish("compare")
                cluster.wait_until(
                    lambda: log.delivery_count(event.event_id) == 6,
                    timeout=8.0,
                )
                counters = cluster.datagram_counters()
            totals[fmt] = counters["bytes_sent"] / max(counters["sent"], 1)
        assert totals["binary"] < totals["json"]


class TestOversizeHandling:
    def test_oversize_gossip_split_and_delivered(self, monkeypatch):
        # Shrink the datagram cap so ordinary gossips overflow it: they
        # must be split and still deliver, not dropped.
        import repro.runtime.udp as udp
        monkeypatch.setattr(udp, "_MAX_DATAGRAM", 120)
        monkeypatch.setattr(udp, "_RECV_BUFSIZE", 121)
        cluster, nodes, log = build_cluster(n=4, seed=25)
        with cluster:
            host = cluster.host(nodes[0].pid)
            # Several events at once: the carrying gossip far exceeds the
            # 120-byte cap, but each single event still fits, so the frame
            # layer must split rather than drop.
            events = [host.publish(f"piece-{i}-" + "p" * 20)
                      for i in range(6)]
            done = cluster.wait_until(
                lambda: all(log.delivery_count(e.event_id) == 4
                            for e in events),
                timeout=8.0,
            )
            split = sum(h.gossips_split for h in cluster.hosts)
        assert done, "split gossips failed to deliver"
        assert split > 0, "expected at least one split at a 120-byte cap"

    def test_undeliverable_message_counted_and_traced(self):
        cluster, nodes, log = build_cluster(n=2, seed=26)
        with cluster:
            host = cluster.host(nodes[0].pid)
            # One event whose payload alone exceeds the cap: unsplittable.
            host.with_node(lambda node: node.lpb_cast("x" * 100_000))
            cluster.wait_until(lambda: host.datagrams_oversize > 0,
                               timeout=3.0)
            assert host.datagrams_oversize > 0
            events = [e for e in cluster.telemetry.trace.events
                      if e.kind == "wire.oversize"]
        assert events, "oversize drop left no trace event"
        assert events[0].data["message_kind"] == "GossipMessage"
        assert events[0].data["wire_size"] > 65_000

    def test_truncated_datagram_detected_not_parsed(self, monkeypatch):
        import repro.runtime.udp as udp
        monkeypatch.setattr(udp, "_MAX_DATAGRAM", 200)
        monkeypatch.setattr(udp, "_RECV_BUFSIZE", 201)
        cluster, nodes, log = build_cluster(n=2, seed=27)
        with cluster:
            host = cluster.host(nodes[0].pid)
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.sendto(b"\x02" + b"\x00" * 300, host.address)
            sock.close()
            cluster.wait_until(lambda: host.datagrams_truncated > 0,
                               timeout=3.0)
            assert host.datagrams_truncated > 0
            # Never parsed, so never a decode error either.
            assert host.decode_errors == 0

    def test_recv_buffer_exceeds_send_cap(self):
        # The receive buffer must be strictly larger than the sender cap,
        # otherwise a legal max-size datagram is silently cut short.
        import repro.runtime.udp as udp
        assert udp._RECV_BUFSIZE > udp._MAX_DATAGRAM
