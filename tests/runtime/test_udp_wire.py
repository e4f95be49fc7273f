"""Wire-path tests for the UDP runtime: the binary frame format, splitting,
truncation detection and byte accounting."""

import random
import socket
import struct
import time
from collections import Counter

import pytest

from repro.core import LpbcastConfig
from repro.core.events import Unsubscription
from repro.core.message import (
    GossipMessage,
    Outgoing,
    RetransmitRequest,
    SubscriptionRequest,
)
from repro.faults.injector import FaultInjector, FaultVerdict
from repro.faults.plan import FaultPlan
from repro.metrics import DeliveryLog
from repro.runtime import LocalDeployment
from repro.sim import build_lpbcast_nodes
from repro.sim.rng import derive_rng
from repro.wire import FRAME_BINARY, decode_frame, encode_frame


def build_cluster(n=4, period=0.03, seed=1):
    cfg = LpbcastConfig(fanout=3, view_max=6, gossip_period=period)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    log = DeliveryLog().attach(nodes)
    cluster = LocalDeployment(nodes, gossip_period=period, seed=seed)
    return cluster, nodes, log


def decode_errors(host):
    return host.datagram_counters()["decode_errors"]


class TestWireFormats:
    def test_broadcast_delivers_in_binary_frames(self):
        cluster, nodes, log = build_cluster(n=6, seed=21)
        with cluster:
            event = cluster.host(nodes[0].pid).publish("via-binary")
            done = cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 6, timeout=8.0
            )
        assert done, f"only {log.delivery_count(event.event_id)}/6 delivered"

    def test_invalid_wire_format_rejected(self):
        nodes = build_lpbcast_nodes(2, LpbcastConfig(fanout=1, view_max=2),
                                    seed=1)
        for fmt in ("json", "carrier-pigeon"):
            with pytest.raises(ValueError, match="wire_format"):
                LocalDeployment(nodes, wire_format=fmt)

    def test_binary_is_the_default(self):
        # ``wire_format="binary"`` is accepted and changes nothing.
        cfg = LpbcastConfig(fanout=2, view_max=4)
        nodes = build_lpbcast_nodes(2, cfg, seed=1)
        for kwargs in ({}, {"wire_format": "binary"}):
            LocalDeployment(nodes, **kwargs).stop()

    def test_text_datagram_is_a_decode_error_not_a_message(self):
        # The retired pid|json format fails the frame version check.
        cluster, nodes, log = build_cluster(n=2, seed=22)
        with cluster:
            host = cluster.host(nodes[0].pid)
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            text = f'{nodes[1].pid}|{{"@":"sr","p":99}}'
            sock.sendto(text.encode("utf-8"), host.address)
            sock.close()
            cluster.wait_until(lambda: decode_errors(host) > 0, timeout=3.0)
            cluster.run_for(0.1)
            assert decode_errors(host) == 1
            assert host.with_node(
                lambda node: node.stats.join_requests_served) == 0

    def test_json_version_byte_is_a_decode_error_not_a_message(self):
        # 0x01 once led a JSON frame.  Behind it here is a well-formed
        # binary frame body — a join request that would be served if it
        # were parsed — so only the version check stands in the way.
        cluster, nodes, log = build_cluster(n=2, seed=22)
        frame = encode_frame(nodes[1].pid, [SubscriptionRequest(99)])
        assert frame[0] == FRAME_BINARY
        with cluster:
            host = cluster.host(nodes[0].pid)
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.sendto(b"\x01" + frame[1:], host.address)
            sock.close()
            cluster.wait_until(lambda: decode_errors(host) > 0, timeout=3.0)
            cluster.run_for(0.1)
            assert decode_errors(host) == 1
            assert host.with_node(
                lambda node: node.stats.join_requests_served) == 0


class TestNonFiniteTimestamps:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=str)
    def test_unsubscription_is_a_decode_error_and_views_hold(self, value):
        # A NaN or inf unsubscription would never expire: decoded, it would
        # keep its pid out of the view, and be re-gossiped, for good.
        cfg = LpbcastConfig(fanout=3, view_max=6)
        nodes = build_lpbcast_nodes(4, cfg, seed=31)
        # One host gossiping hourly (first tick ~30 minutes out): its view
        # changes only by what the test sends.
        cluster = LocalDeployment(nodes[:1], gossip_period=3600.0, seed=31)
        host = cluster.host(nodes[0].pid)
        view = host.with_node(lambda node: node.view.snapshot())
        victim, sender = view[0], nodes[1].pid
        frame = encode_frame(sender, [GossipMessage(
            sender, unsubs=(Unsubscription(victim, 1.5),))])
        marker = struct.pack("<d", 1.5)
        assert frame.count(marker) == 1
        with cluster:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.sendto(frame.replace(marker, struct.pack("<d", value)),
                        host.address)
            sock.close()
            cluster.wait_until(lambda: decode_errors(host) > 0, timeout=3.0)
            counters = host.datagram_counters()
            assert host.with_node(lambda node: node.view.snapshot()) == view
            assert host.with_node(lambda node: len(node.unsubs)) == 0
        assert counters["decode_errors"] == 1
        assert counters["received"] == 0


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
            split = cluster.datagram_counters()["split"]
        assert done, "split gossips failed to deliver"
        assert split > 0, "expected at least one split at a 120-byte cap"

    def test_undeliverable_message_counted_and_traced(self):
        cluster, nodes, log = build_cluster(n=2, seed=26)
        with cluster:
            host = cluster.host(nodes[0].pid)
            # One event whose payload alone exceeds the cap: unsplittable.
            host.with_node(lambda node: node.lpb_cast("x" * 100_000))
            cluster.wait_until(
                lambda: host.datagram_counters()["oversize"] > 0, timeout=3.0)
            assert host.datagram_counters()["oversize"] > 0
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
            cluster.wait_until(
                lambda: host.datagram_counters()["truncated"] > 0, timeout=3.0)
            assert host.datagram_counters()["truncated"] > 0
            # Never parsed, so never a decode error either.
            assert decode_errors(host) == 0

    def test_recv_buffer_exceeds_send_cap(self):
        # The receive buffer must be strictly larger than the sender cap,
        # otherwise a legal max-size datagram is silently cut short.
        import repro.runtime.udp as udp
        assert udp._RECV_BUFSIZE > udp._MAX_DATAGRAM


class _LoneHost:
    """A running one-host deployment whose three peers are plain sockets
    the test reads: what the deployment's ``send`` puts on the wire,
    datagram by datagram.  Its gossip period is an hour (seed 31 puts the
    first tick ~30 minutes out, and plan round 1 lasts the hour), so every
    datagram comes from a tick the test asks for, while the loop still
    releases what a delay verdict holds back."""

    def __init__(self, monkeypatch, fault_plan=None, seed=31):
        import repro.wire.frame as frame

        cfg = LpbcastConfig(fanout=3, view_max=6)
        nodes = build_lpbcast_nodes(4, cfg, seed=seed)
        self.deployment = LocalDeployment(nodes[:1], gossip_period=3600.0,
                                          seed=seed, fault_plan=fault_plan)
        self.directory = self.deployment.directory
        self.host = self.deployment.host(nodes[0].pid)
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
        self.deployment.start()

    def use_injector(self, injector):
        """Put ``injector`` where the runtime's ``send`` takes verdicts."""
        self.deployment._fault_injector = injector
        return injector

    def ship(self, make):
        """``make(node)``'s outgoing list, sent through the host's
        ``with_node`` (the deployment's lock, then its ``send``)."""
        shipped = []

        def run(node):
            shipped.extend(make(node))
            return shipped

        self.host.with_node(run)
        return shipped

    def tick(self):
        return self.ship(lambda node: node.on_tick(time.monotonic()))

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
        self.deployment.stop()
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
    """Records what ``send`` asks of the injector it wraps."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = []

    def decide(self, src, dst, round_no=None):
        self.asked.append((src, dst))
        return self.inner.decide(src, dst, round_no)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class _ScriptedInjector(FaultInjector):
    """Deliver everything; hold back what goes to ``slow`` by ``delay_s``
    (a verdict's delay is in plan rounds: here one round is an hour)."""

    def __init__(self, slow, delay_s):
        super().__init__(FaultPlan(), random.Random(0))
        self.slow, self.delay_s = slow, delay_s

    def decide(self, src, dst, round_no=None):
        if dst != self.slow:
            return FaultVerdict("deliver")
        return FaultVerdict("delay", delay=self.delay_s / 3600.0)


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
        # One decision per Outgoing, in iteration order, from the runtime's
        # seeded "faults" stream; what reaches each peer is its verdicts'
        # copies.
        plan = FaultPlan().drop(0.5).duplicate(0.5)
        lone_host = lone(fault_plan=plan)
        recorder = lone_host.use_injector(
            _RecordingInjector(lone_host.deployment._fault_injector))
        replay = FaultInjector(plan, derive_rng(31, "faults"))
        drops = duplicates = 0
        for _ in range(6):
            recorder.asked.clear()
            lone_host.encoded.clear()
            outgoings = lone_host.tick()
            pairs = [(lone_host.pid, out.destination) for out in outgoings]
            assert recorder.asked == pairs
            copies = Counter()
            for src, dst in pairs:
                verdict = replay.decide(src, dst, 1)
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
        lone_host.use_injector(_ScriptedInjector(slow, 0.05))
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
        lone_host.ship(
            lambda node: [Outgoing(dst, first), Outgoing(dst, second)])
        (datagram,) = lone_host.received(dst, 1)
        assert decode_frame(datagram) == (lone_host.pid, [first, second])
        assert lone_host.encoded == [first, second]


class TestUnknownDestination:
    def test_target_missing_from_directory_is_counted(self, lone):
        lone_host = lone()
        recorder = lone_host.use_injector(
            _RecordingInjector(_ScriptedInjector(None, 0.0)))
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
            host.with_node(lambda node: node.on_tick(time.monotonic()))
            counters = cluster.datagram_counters()
        finally:
            cluster.stop()
        assert counters["to_unknown"] == 2
        assert counters["sent"] == 1
        assert counters["dropped"] == 0
