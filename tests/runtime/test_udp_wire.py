"""Wire-path tests for the UDP runtime: frame formats, splitting,
truncation detection and byte accounting."""

import random
import socket
import time
from collections import Counter

import pytest

from repro.core import LpbcastConfig
from repro.core.message import (
    Outgoing,
    RetransmitRequest,
    SubscriptionRequest,
)
from repro.faults.injector import FaultVerdict
from repro.faults.plan import FaultPlan
from repro.faults.wire import DatagramFaultInjector
from repro.metrics import DeliveryLog
from repro.runtime import LocalDeployment
from repro.runtime.udp import UdpProcessHost
from repro.sim import build_lpbcast_nodes
from repro.wire import decode_frame, encode_frame


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
        # Read on the stopped deployment: a running sender counts after
        # ``sendto`` returns, which can be after its receiver counted.
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


class _LoneHost:
    """One unstarted host whose three peers are plain sockets the test
    reads: what ``_send_all`` puts on the wire, datagram by datagram."""

    def __init__(self, monkeypatch, fault_injector=None, seed=31):
        import repro.wire.frame as frame

        cfg = LpbcastConfig(fanout=3, view_max=6)
        nodes = build_lpbcast_nodes(4, cfg, seed=seed)
        self.directory = {}
        self.host = UdpProcessHost(nodes[0], self.directory,
                                   fault_injector=fault_injector)
        self.pid = nodes[0].pid
        self.peers = {}
        for node in nodes[1:]:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind(("127.0.0.1", 0))
            self.directory[node.pid] = sock.getsockname()
            self.peers[node.pid] = sock
        self.encoded = []
        original = frame.encode_binary

        def counting(message, **kwargs):
            self.encoded.append(message)
            return original(message, **kwargs)

        monkeypatch.setattr(frame, "encode_binary", counting)

    def tick(self):
        outgoings = self.host.node.on_tick(time.monotonic())
        self.host._send_all(outgoings)
        return outgoings

    def received(self, pid, expected):
        """The ``expected`` datagrams waiting at ``pid``'s socket — and
        proof that there is not one more."""
        sock = self.peers[pid]
        sock.settimeout(2.0)
        datagrams = [sock.recv(65_536) for _ in range(expected)]
        sock.settimeout(0.05)
        with pytest.raises(socket.timeout):
            sock.recv(65_536)
        return datagrams

    def close(self):
        self.host.join()
        for sock in self.peers.values():
            sock.close()


@pytest.fixture
def lone(monkeypatch):
    made = []

    def make(**kwargs):
        made.append(_LoneHost(monkeypatch, **kwargs))
        return made[-1]

    yield make
    for lone_host in made:
        lone_host.close()


class _RecordingInjector:
    """Records what ``_send_all`` asks of the injector it wraps."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = []

    def decide(self, src, dst, now):
        self.asked.append((src, dst))
        return self.inner.decide(src, dst, now)


class _ScriptedInjector:
    """Deliver everything; hold back what goes to ``slow`` by ``delay_s``."""

    def __init__(self, slow, delay_s):
        self.slow, self.delay_s = slow, delay_s

    def decide(self, src, dst, now):
        return FaultVerdict("deliver"), self.delay_s if dst == self.slow else 0.0


class TestEncodeOncePerMessage:
    def test_one_tick_is_one_encode_and_three_equal_datagrams(self, lone):
        lone_host = lone()
        outgoings = lone_host.tick()
        assert sorted(out.destination for out in outgoings) == sorted(
            lone_host.peers)
        gossip = outgoings[0].message
        assert lone_host.encoded == [gossip]
        expected = encode_frame(lone_host.pid, [gossip])
        for pid in lone_host.peers:
            assert lone_host.received(pid, 1) == [expected]
        stats = lone_host.host.telemetry.histogram_stats("time.codec",
                                                         op="encode")
        assert stats[0] == 1

    def test_verdict_order_and_copies_match_the_per_outgoing_loop(self, lone):
        # One decision per Outgoing, in iteration order, from the shared
        # seeded stream; what reaches each peer is its verdicts' copies.
        def injector():
            return DatagramFaultInjector(
                FaultPlan().drop(0.5).duplicate(0.5),
                rng=random.Random(17), round_duration=3600.0)

        recorder = _RecordingInjector(injector())
        lone_host = lone(fault_injector=recorder)
        replay = injector()
        drops = duplicates = 0
        for _ in range(6):
            recorder.asked.clear()
            lone_host.encoded.clear()
            outgoings = lone_host.tick()
            pairs = [(lone_host.pid, out.destination) for out in outgoings]
            assert recorder.asked == pairs
            copies = Counter()
            for src, dst in pairs:
                verdict, _delay = replay.decide(src, dst, 0.0)
                if verdict.action == "drop":
                    drops += 1
                else:
                    copies[dst] += verdict.copies
                    duplicates += verdict.copies > 1
            assert len(lone_host.encoded) == (1 if copies else 0)
            expected = encode_frame(lone_host.pid, [outgoings[0].message])
            for pid in lone_host.peers:
                assert lone_host.received(pid, copies[pid]) == (
                    [expected] * copies[pid])
        assert drops and duplicates         # the plan struck both ways
        assert drops == lone_host.host.telemetry.counter_total(
            "udp.datagrams_lost_injected")

    def test_delayed_copy_carries_the_same_bytes(self, lone):
        lone_host = lone()
        slow = min(lone_host.peers)
        lone_host.host.fault_injector = _ScriptedInjector(slow, 0.05)
        outgoings = lone_host.tick()
        assert len(lone_host.encoded) == 1
        expected = encode_frame(lone_host.pid, [outgoings[0].message])
        for pid in lone_host.peers:      # the delayed one arrives in time
            assert lone_host.received(pid, 1) == [expected]

    def test_different_messages_for_one_peer_share_a_frame(self, lone):
        lone_host = lone()
        dst = min(lone_host.peers)
        first = SubscriptionRequest(lone_host.pid)
        second = RetransmitRequest(lone_host.pid, ())
        lone_host.host._send_all([Outgoing(dst, first), Outgoing(dst, second)])
        (datagram,) = lone_host.received(dst, 1)
        assert decode_frame(datagram) == (lone_host.pid, [first, second])
        assert lone_host.encoded == [first, second]


class TestUnknownDestination:
    def test_target_missing_from_directory_is_counted(self, lone):
        recorder = _RecordingInjector(_ScriptedInjector(None, 0.0))
        lone_host = lone(fault_injector=recorder)
        gone = max(lone_host.peers)
        del lone_host.directory[gone]
        outgoings = lone_host.tick()
        missing = sum(out.destination == gone for out in outgoings)
        assert missing == 1
        telemetry = lone_host.host.telemetry
        assert telemetry.counter_value("udp.datagrams_to_unknown",
                                       pid=lone_host.pid) == missing
        # Counted before the verdict: the seeded stream never sees it.
        assert gone not in [dst for _src, dst in recorder.asked]
        assert len(recorder.asked) == len(outgoings) - missing
        lone_host.received(gone, 0)

    def test_datagram_counters_report_to_unknown(self):
        cluster, nodes, log = build_cluster(n=4, seed=28)
        host = cluster.hosts[0]
        for node in nodes[2:]:
            del cluster.directory[node.pid]
        try:
            host._send_all(host.node.on_tick(time.monotonic()))
            counters = cluster.datagram_counters()
        finally:
            cluster.stop()
        assert counters["to_unknown"] == 2
        assert counters["sent"] == 1
        assert counters["dropped"] == 0
