"""Acceptance: binary gossips stay compact, and their bytes stay put.

The corpus is real protocol traffic: every message emitted during a
fixed-seed n=500 serial run, captured at the engine's own accounting point
(``record_sends``), so the sizes reflect genuine digest/view/event mixes
rather than synthetic shapes.

Measured with the per-origin digest record (frame version 0x03): 12,000
gossips at a mean of 36.28 B (JSON, when it still existed, took 111.6 B for
the same gossips).  The ceiling is 40 B a gossip.  The corpus packed into
datagrams is pinned byte for byte by a SHA-256 taken before the JSON frame
version was deleted: the binary frames did not change with it.
"""

import hashlib

from repro.core import LpbcastConfig
from repro.core.message import GossipMessage
from repro.sim import build_lpbcast_nodes, create_simulation
from repro.telemetry import Telemetry
from repro.wire import encode_binary, pack_datagrams

#: SHA-256 over every datagram ``pack_datagrams`` makes of the n=500
#: corpus, each preceded by its 4-byte big-endian length.
CORPUS_DATAGRAMS_SHA256 = (
    "dc7deb82786adefcac208f7da166f2342819859180999bda2a590c57a4059045")

MAX_MEAN_GOSSIP_BYTES = 40.0


class _CapturingTelemetry(Telemetry):
    """Telemetry that additionally keeps the emitted message objects."""

    def __init__(self) -> None:
        super().__init__()
        self.messages = []

    def record_sends(self, round_no, src, outgoings):
        self.messages.extend(out.message for out in outgoings)
        super().record_sends(round_no, src, outgoings)


def build_corpus(n=500, rounds=6, seed=2026):
    sim = create_simulation("serial", seed=seed)
    capture = _CapturingTelemetry()
    sim.telemetry = capture
    nodes = build_lpbcast_nodes(
        n, LpbcastConfig(fanout=4, view_max=12), seed=seed
    )
    sim.add_nodes(nodes)
    for round_no in range(1, 4):
        sim.nodes[round_no].lpb_cast(f"event-{round_no}", float(round_no))
    sim.run(rounds)
    return capture.messages


class TestCompressionRatio:
    def test_mean_gossip_under_ceiling_on_n500_corpus(self):
        corpus = build_corpus()
        gossips = [m for m in corpus if isinstance(m, GossipMessage)]
        assert len(gossips) > 1000, "corpus too small to be meaningful"
        mean = sum(len(encode_binary(m)) for m in gossips) / len(gossips)
        assert mean <= MAX_MEAN_GOSSIP_BYTES, (
            f"binary gossips average {mean:.2f} B over {len(gossips)} "
            f"gossips; the ceiling is {MAX_MEAN_GOSSIP_BYTES} B")

    def test_corpus_datagrams_pinned(self):
        plan = pack_datagrams(1, build_corpus())
        assert plan.splits == [] and plan.oversize == []
        digest = hashlib.sha256()
        for datagram in plan.datagrams:
            digest.update(len(datagram).to_bytes(4, "big"))
            digest.update(datagram)
        assert digest.hexdigest() == CORPUS_DATAGRAMS_SHA256

    def test_whole_corpus_round_trips(self):
        from repro.wire import decode_binary

        for message in build_corpus(n=120, rounds=4):
            assert decode_binary(encode_binary(message)) == message
