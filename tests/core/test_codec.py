"""The message codec's contract: every protocol message has one binary
record, survives it (alone and inside a frame), and damaged or unknown
input is refused with :class:`~repro.wire.CodecError`."""

import pytest

from repro.core.events import Unsubscription
from repro.core.ids import EventId
from repro.core.message import (
    GossipMessage,
    RetransmitRequest,
    RetransmitResponse,
    SubscriptionAck,
    SubscriptionRequest,
)
from repro.pbcast import PbcastData, PbcastDigest, PbcastSolicit
from repro.wire import (
    CodecError,
    decode_binary,
    decode_frame,
    encode_binary,
    encode_frame,
    wire_bytes_of,
)
from repro.wire import binary
from repro.wire.binary import TAG_GOSSIP, TAG_PBCAST_DATA
from repro.wire.varint import write_svarint, write_uvarint

from ..helpers import notification


FULL_GOSSIP = GossipMessage(
    sender=3,
    subs=(1, 2),
    unsubs=(Unsubscription(9, 4.5),),
    events=(notification(3, 1, {"k": [1, 2]}), notification(3, 2, "text")),
    event_ids=((3, 1, ()), (7, 0, (12,))),
)

ALL_MESSAGES = [
    FULL_GOSSIP,
    GossipMessage(sender=0),
    GossipMessage(sender=2, event_ids=((2, 17, ()), (5, 3, ()))),
    SubscriptionRequest(5),
    SubscriptionAck(1, (2, 3, 4)),
    RetransmitRequest(9, (EventId(1, 1),)),
    RetransmitResponse(3, (notification(1, 1, None),)),
    PbcastData(2, notification(2, 5, "payload"), hops=3),
    PbcastDigest(4, (EventId(2, 5),), subs=(1,), unsubs=(Unsubscription(8, 1.0),)),
    PbcastSolicit(6, (EventId(2, 5), EventId(2, 6))),
]

KNOWN_TAGS = {value for name, value in vars(binary).items()
              if name.startswith("TAG_")}


def _gossip_record_with_digest_entry(fields):
    """A gossip record (sender 1, no subs, unsubs or events) whose digest is
    one entry written field by field: origin, frontier, extras count, gaps."""
    record = bytearray([TAG_GOSSIP])
    write_svarint(record, 1)
    record += bytes([0, 0, 0, 1])
    origin, *rest = fields
    write_svarint(record, origin)
    for value in rest:
        write_uvarint(record, value)
    return bytes(record)


class TestRoundTrip:
    @pytest.mark.parametrize("message", ALL_MESSAGES,
                             ids=lambda m: type(m).__name__)
    def test_dict_round_trip(self, message):
        # Every payload here is a plain JSON value (dict, list, text, None),
        # so the record holds even under the strict payload check.
        assert decode_binary(encode_binary(message, strict_payloads=True)) \
            == message

    @pytest.mark.parametrize("message", ALL_MESSAGES,
                             ids=lambda m: type(m).__name__)
    def test_json_round_trip(self, message):
        # Payloads ride as embedded JSON inside a record, and records ride
        # inside a frame: the whole datagram gives the message back.
        assert decode_frame(encode_frame(7, [message])) == (7, [message])


class TestErrors:
    def test_unknown_type_rejected(self):
        with pytest.raises(CodecError, match="cannot binary-encode"):
            encode_binary(object())

    def test_unknown_tag_rejected(self):
        for tag in set(range(256)) - KNOWN_TAGS:
            with pytest.raises(CodecError, match="unknown binary message tag"):
                decode_binary(bytes([tag, 0]))

    def test_untagged_rejected(self):
        for empty in (b"", bytearray(), memoryview(b"")):
            with pytest.raises(CodecError, match="missing tag byte"):
                decode_binary(empty)

    def test_malformed_fields_rejected(self):
        with pytest.raises(CodecError, match="truncated"):
            decode_binary(bytes([TAG_GOSSIP]))      # missing sender
        # subs, unsubs, events empty; a digest of one entry whose extras
        # count promises a gap that never comes.
        with pytest.raises(CodecError, match="truncated"):
            decode_binary(bytes([TAG_GOSSIP, 2, 0, 0, 0, 1, 6, 4, 1]))

    @pytest.mark.parametrize("entry, match", [
        pytest.param(fields, match, id=f"entry{index}-{why}")
        for index, (fields, why, match) in enumerate([
            # The old (origin, seq) pair: no extras count follows.
            ([3, 1], "malformed digest entry", "truncated"),
            # Four gaps promised, none sent.
            ([3, 1, 4], "malformed digest entry", "truncated"),
            # A zero gap puts an extra on the frontier or on the one before.
            ([3, 0, 1, 0], "do not ascend past the frontier", "do not ascend"),
            ([3, 2, 1, 0], "do not ascend past the frontier", "do not ascend"),
            ([3, 2, 2, 3, 0], "do not ascend past the frontier",
             "do not ascend"),
            ([3, 2, 3, 1, 1, 0], "do not ascend past the frontier",
             "do not ascend"),
        ])
    ])
    def test_digest_entries_held_to_the_binary_record(self, entry, match):
        with pytest.raises(CodecError, match=match):
            decode_binary(_gossip_record_with_digest_entry(entry))

    def test_invalid_json(self):
        record = bytearray([TAG_PBCAST_DATA])
        for value in (1, 1, 1):                     # sender, origin, seq
            write_svarint(record, value)
        record += bytes(8)                          # created_at
        write_uvarint(record, 7)
        record += b"{broken"
        with pytest.raises(CodecError, match="invalid payload JSON"):
            decode_binary(bytes(record))


class TestWireSize:
    def test_monotone_in_content(self):
        empty = GossipMessage(sender=1)
        assert wire_bytes_of(FULL_GOSSIP) > wire_bytes_of(empty)

    def test_roughly_compact(self):
        # Tag, sender, four empty-list counts and the reserved zero byte.
        assert wire_bytes_of(GossipMessage(sender=1)) == 7

