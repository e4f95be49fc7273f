"""Golden byte vectors pinning the binary wire format.

Each entry pairs a message object with the exact bytes
:func:`~repro.wire.binary.encode_binary` must produce for it.  These
fixtures are the format's compatibility contract: an encoder change that
alters any vector is a wire-format break and must bump the frame version
byte rather than silently change what peers and shards exchange (0x02 ->
0x03 re-pinned the three gossip vectors: per-origin digest entries, same ids).
:func:`check_golden_vectors` is asserted by the unit tests *and* by
``bench_hotpath.py --check`` (the CI perf-smoke job), so a drift fails
fast in both places.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.events import Notification, Unsubscription
from ..core.ids import EventId
from ..core.message import (
    EchoMessage,
    GossipMessage,
    ReadyMessage,
    RetransmitRequest,
    RetransmitResponse,
    SubscriptionAck,
)
from ..pbcast.messages import PbcastDigest
from .binary import decode_binary, encode_binary


def _vectors() -> List[Tuple[object, str]]:
    from ..pubsub.peer import TopicEnvelope

    return [
        (GossipMessage(sender=0), "01000000000000"),
        (
            GossipMessage(
                sender=3,
                subs=(1, 2),
                unsubs=(Unsubscription(9, 4.5),),
                events=(Notification(EventId(3, 1), "text", 2.0),),
                event_ids=((3, 2, ()), (7, 0, (12,))),
            ),
            "010602020201120000000000001240010602000000000000004006227465"
            "787422020602000800010c00",
        ),
        (
            GossipMessage(sender=2, heartbeats=((2, 17), (5, 3))),
            "0104000000000204220a06",
        ),
        (SubscriptionAck(1, (2, 3, 4)), "030203040202"),
        (RetransmitRequest(9, (EventId(1, 1),)), "041201020102"),
        (
            PbcastDigest(4, (EventId(2, 5),), (1,),
                         (Unsubscription(8, 1.0),)),
            "07080104010a01020110000000000000f03f",
        ),
        (
            TopicEnvelope("t", GossipMessage(sender=1,
                                             event_ids=((1, 2, ()),))),
            "0d017401020000000102020000",
        ),
        # Double-echo records: digests are payload_digest() values — the
        # first 8 bytes of the payload's canonical-JSON sha256, so the
        # vectors also pin the digest derivation itself.
        (
            EchoMessage(3, EventId(2, 5), 0x5AA762AE383FBB72),
            "0e06040af2f6fec1e3d5d8d35a",
        ),
        (
            ReadyMessage(4, EventId(2, 5), 0x015ABD7F5CC57A2D),
            "0f08040aadf495e6f5afafad01",
        ),
        # Causal-delivery records: the causal tags (0x10/0x11) are selected
        # iff any carried notification has dependency metadata, so these
        # vectors pin both the deps encoding (digest-style delta runs after
        # each notification) and the tag-selection rule — a deps-free
        # message must keep its pre-causal tag and bytes (the vectors
        # above).
        (
            GossipMessage(
                sender=3,
                events=(Notification(EventId(3, 2), "x", 1.0,
                                     deps=(EventId(1, 4), EventId(3, 1))),),
                event_ids=((3, 2, ()),),
            ),
            "10060000010604000000000000f03f03227822020201080401020106020000",
        ),
        (
            RetransmitResponse(
                5,
                (Notification(EventId(2, 1), None, 0.0,
                              deps=(EventId(1, 2),)),
                 Notification(EventId(2, 2), "y", 3.0,
                              deps=(EventId(1, 2), EventId(2, 1)))),
            ),
            "110a02040200000000000000000001020104040400000000000008400322"
            "792202020104020102",
        ),
    ]


#: ``(message, hex)`` pairs — the pinned format.
GOLDEN_VECTORS: List[Tuple[object, str]] = _vectors()


def check_golden_vectors() -> int:
    """Assert every vector encodes and decodes exactly; returns the number
    of vectors checked, raises :class:`AssertionError` on any drift."""
    for message, expected_hex in GOLDEN_VECTORS:
        encoded = encode_binary(message)
        if encoded.hex() != expected_hex:
            raise AssertionError(
                f"golden vector drift for {type(message).__name__}: "
                f"expected {expected_hex}, got {encoded.hex()}"
            )
        decoded = decode_binary(bytes.fromhex(expected_hex))
        if decoded != message:
            raise AssertionError(
                f"golden vector for {type(message).__name__} no longer "
                f"decodes to an equal message: got {decoded!r}"
            )
    return len(GOLDEN_VECTORS)
