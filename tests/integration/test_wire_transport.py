"""End-to-end runs with every message passed through the wire codec.

Proves the protocols are codec-clean: encoding each message to its binary
record and back at the delivery boundary (what a real UDP/TCP transport
would do) changes nothing about protocol behaviour.
"""

import random

from repro.core import LpbcastConfig
from repro.loggers import build_logged_system
from repro.metrics import DeliveryLog
from repro.pbcast import FIRST_PHASE_NONE, PbcastConfig, build_pbcast_nodes
from repro.pubsub import build_pubsub_peers
from repro.sim import NetworkModel, RoundSimulation, build_lpbcast_nodes
from repro.wire import decode_binary, encode_binary


def codec_boundary(node):
    """Wrap a node so every incoming message crosses the serialization
    boundary, as it would on a real transport."""
    original = node.handle_message

    def wrapped(sender, message, now):
        return original(sender, decode_binary(encode_binary(message)), now)

    node.handle_message = wrapped
    return node


class TestSerializedTransport:
    def test_lpbcast_identical_through_codec(self):
        def run(serialize: bool):
            cfg = LpbcastConfig(fanout=3, view_max=8)
            nodes = build_lpbcast_nodes(25, cfg, seed=6)
            if serialize:
                for node in nodes:
                    codec_boundary(node)
            sim = RoundSimulation(
                NetworkModel(loss_rate=0.05, rng=random.Random(8)), seed=6
            )
            sim.add_nodes(nodes)
            log = DeliveryLog().attach(nodes)
            event = nodes[0].lpb_cast({"k": 1}, now=0.0)
            sim.run(10)
            return sorted(
                (pid, log.delivery_time(pid, event.event_id))
                for pid in log.deliverers_of(event.event_id)
            )

        assert run(serialize=False) == run(serialize=True)

    def test_pbcast_through_codec(self):
        cfg = PbcastConfig(fanout=4, view_max=8, first_phase=FIRST_PHASE_NONE)
        nodes = build_pbcast_nodes(25, cfg, seed=7, membership="partial")
        for node in nodes:
            codec_boundary(node)
        sim = RoundSimulation(
            NetworkModel(loss_rate=0.05, rng=random.Random(9)), seed=7
        )
        sim.add_nodes(nodes)
        log = DeliveryLog().attach(nodes)
        event, first = nodes[0].publish("x", now=0.0)
        sim.inject(nodes[0].pid, first)
        sim.run(10)
        assert log.delivery_count(event.event_id) >= 24

    def test_pubsub_through_codec(self):
        topics = {"a": list(range(15))}
        peers = build_pubsub_peers(15, topics,
                                   LpbcastConfig(fanout=3, view_max=6), seed=8)
        for peer in peers:
            codec_boundary(peer)
        sim = RoundSimulation(seed=8)
        sim.add_nodes(peers)
        event = peers[0].publish("a", {"price": 10.5}, now=0.0)
        sim.run(8)
        delivered = sum(
            1 for pid in range(15)
            if peers[pid].topic_node("a").has_delivered(event.event_id)
        )
        assert delivered == 15

    def test_logger_extension_through_codec(self):
        cfg = LpbcastConfig(fanout=3, view_max=8,
                            digest_implies_delivery=False)
        clients, loggers = build_logged_system(15, logger_count=1,
                                               config=cfg, seed=9)
        for node in clients + loggers:
            codec_boundary(node)
        sim = RoundSimulation(
            NetworkModel(loss_rate=0.1, rng=random.Random(10)), seed=9
        )
        sim.add_nodes(clients + loggers)
        notification, uploads = clients[0].publish_logged("x", now=0.0)
        sim.inject(clients[0].pid, uploads)
        sim.run(25)
        assert all(
            c.has_contiguously_delivered(notification.event_id)
            for c in clients
        )
