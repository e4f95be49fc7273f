"""Acceptance: binary gossips are at least 2x smaller than JSON.

The corpus is real protocol traffic: every message emitted during a
fixed-seed n=500 serial run, captured at the engine's own accounting point
(``record_sends``), so the sizes reflect genuine digest/view/event mixes
rather than synthetic shapes.

Re-taken with the per-origin digest record (frame version 0x03): 12,000
gossips, JSON 111.6 B and binary 36.3 B a gossip, 3.08x (3.00x before; the
binary bytes did not move — with one id per origin an entry costs what a
run of one cost — and the JSON entry grew by its extras list).  The floor
stays at 2x.
"""

from repro.core import LpbcastConfig
from repro.core.message import GossipMessage
from repro.sim import build_lpbcast_nodes, create_simulation
from repro.telemetry import Telemetry
from repro.wire import encode_binary


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
    def test_binary_at_least_2x_smaller_on_n500_corpus(self):
        from repro.core.codec import to_json

        corpus = build_corpus()
        gossips = [m for m in corpus if isinstance(m, GossipMessage)]
        assert len(gossips) > 1000, "corpus too small to be meaningful"
        json_bytes = sum(len(to_json(m).encode("utf-8")) for m in gossips)
        binary_bytes = sum(len(encode_binary(m)) for m in gossips)
        ratio = json_bytes / binary_bytes
        assert ratio >= 2.0, (
            f"binary gossips only {ratio:.2f}x smaller than JSON "
            f"({binary_bytes} vs {json_bytes} bytes over {len(gossips)} "
            f"gossips); the acceptance floor is 2x"
        )

    def test_whole_corpus_round_trips(self):
        from repro.wire import decode_binary

        for message in build_corpus(n=120, rounds=4):
            assert decode_binary(encode_binary(message)) == message
