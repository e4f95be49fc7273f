"""End-to-end runs with every message passed through the wire codec.

Proves the protocols are codec-clean: encoding each message to its binary
record and back at the delivery boundary (what a real UDP/TCP transport
would do) changes nothing about protocol behaviour.
"""

import random

from repro.core import LpbcastConfig
from repro.metrics import DeliveryLog
from repro.pbcast import FIRST_PHASE_NONE, PbcastConfig, build_pbcast_nodes
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
