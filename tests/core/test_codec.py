"""Tests for the wire codec."""

import pytest

from repro.core.codec import (
    CodecError,
    decode_message,
    encode_message,
    from_json,
    to_json,
    wire_size,
)
from repro.core.events import Unsubscription
from repro.core.ids import EventId
from repro.core.message import (
    GossipMessage,
    RetransmitRequest,
    RetransmitResponse,
    SubscriptionAck,
    SubscriptionRequest,
)
from repro.loggers import LogUpload, LogUploadAck, RecoveryRequest, RecoveryResponse
from repro.pbcast import PbcastData, PbcastDigest, PbcastSolicit
from repro.pubsub import TopicEnvelope

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
    GossipMessage(sender=2, heartbeats=((2, 17), (5, 3))),
    SubscriptionRequest(5),
    SubscriptionAck(1, (2, 3, 4)),
    RetransmitRequest(9, (EventId(1, 1),)),
    RetransmitResponse(3, (notification(1, 1, None),)),
    PbcastData(2, notification(2, 5, "payload"), hops=3),
    PbcastDigest(4, (EventId(2, 5),), subs=(1,), unsubs=(Unsubscription(8, 1.0),)),
    PbcastSolicit(6, (EventId(2, 5), EventId(2, 6))),
    LogUpload(1, notification(1, 9, [1, 2, 3])),
    LogUploadAck(900, EventId(1, 9)),
    RecoveryRequest(4, (EventId(1, 9),)),
    RecoveryResponse(900, (notification(1, 9),), complete=False),
    TopicEnvelope("stocks/nasdaq", FULL_GOSSIP),
]


class TestRoundTrip:
    @pytest.mark.parametrize("message", ALL_MESSAGES,
                             ids=lambda m: type(m).__name__)
    def test_dict_round_trip(self, message):
        assert decode_message(encode_message(message)) == message

    @pytest.mark.parametrize("message", ALL_MESSAGES,
                             ids=lambda m: type(m).__name__)
    def test_json_round_trip(self, message):
        assert from_json(to_json(message)) == message

    def test_nested_envelope(self):
        inner = TopicEnvelope("a", SubscriptionRequest(1))
        outer = TopicEnvelope("b", inner)
        assert from_json(to_json(outer)) == outer


class TestErrors:
    def test_unknown_type_rejected(self):
        with pytest.raises(CodecError, match="cannot encode"):
            encode_message(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError, match="unknown message tag"):
            decode_message({"@": "zz"})

    def test_untagged_rejected(self):
        with pytest.raises(CodecError, match="not a tagged"):
            decode_message({"s": 1})
        with pytest.raises(CodecError):
            decode_message("nope")

    def test_malformed_fields_rejected(self):
        with pytest.raises(CodecError):
            decode_message({"@": "g"})  # missing sender
        with pytest.raises(CodecError):
            decode_message({"@": "g", "s": 1, "ids": [["x"]]})

    @pytest.mark.parametrize("entry, message", [
        ([3, 1], "malformed digest entry"),         # the old [origin, seq] pair
        ([3, 1, 4], "malformed digest entry"),
        ([3, -1, []], "do not ascend past the frontier"),
        ([3, 2, [2]], "do not ascend past the frontier"),
        ([3, 2, [5, 5]], "do not ascend past the frontier"),
        ([3, 2, [6, 4]], "do not ascend past the frontier"),
    ])
    def test_digest_entries_held_to_the_binary_record(self, entry, message):
        with pytest.raises(CodecError, match=message):
            decode_message({"@": "g", "s": 1, "ids": [entry]})

    def test_invalid_json(self):
        with pytest.raises(CodecError, match="invalid JSON"):
            from_json("{broken")

    def test_malformed_envelope(self):
        with pytest.raises(CodecError):
            decode_message({"@": "te", "topic": "a"})


class TestWireSize:
    def test_monotone_in_content(self):
        empty = GossipMessage(sender=1)
        assert wire_size(FULL_GOSSIP) > wire_size(empty)

    def test_roughly_compact(self):
        assert wire_size(GossipMessage(sender=1)) < 80


class TestTopicValidation:
    """Regression: a TopicEnvelope with a non-string topic used to encode
    (and decode) silently, producing an envelope no peer's topic table
    could match and no re-encode could round-trip."""

    def test_encode_rejects_non_string_topic(self):
        for bad in (42, None, ("a",), b"bytes"):
            with pytest.raises(CodecError, match="topic must be a string"):
                encode_message(TopicEnvelope(bad, SubscriptionRequest(1)))

    def test_decode_rejects_non_string_topic(self):
        inner = encode_message(SubscriptionRequest(1))
        for bad in (42, None, ["a"], {"t": 1}):
            with pytest.raises(CodecError, match="topic must be a string"):
                decode_message({"@": "te", "topic": bad, "inner": inner})

    def test_string_topics_still_round_trip(self):
        message = TopicEnvelope("topic/with/slashes", SubscriptionRequest(2))
        assert from_json(to_json(message)) == message
