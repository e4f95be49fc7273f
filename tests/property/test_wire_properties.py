"""Property-based tests for the binary wire codec and frame layer.

Reuses the message strategies of :mod:`tests.property.test_codec_properties`
(extended with the logger messages and pub/sub envelopes, so every binary
tag is generated) and checks two total properties: every generated message
round-trips bit-exactly through both codecs, and *no* byte string — random
or a truncated/mutated valid encoding — ever raises anything but
:class:`~repro.core.codec.CodecError`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import CodecError, from_json, to_json
from repro.core.events import Notification
from repro.core.message import GossipMessage, RetransmitResponse
from repro.loggers.messages import (
    LogUpload,
    LogUploadAck,
    RecoveryRequest,
    RecoveryResponse,
)
from repro.pubsub.peer import TopicEnvelope
from repro.wire import (
    decode_binary,
    decode_frame,
    encode_binary,
    encode_frame,
    pack_messages,
    unpack_messages,
)

from .test_codec_properties import (
    any_message as core_messages,
    digests_of_ids,
    event_ids,
    gossips,
    heartbeats,
    json_payloads,
    notifications,
    pids,
    unsubs,
)
from repro.wire.binary import TAG_GOSSIP_CAUSAL, TAG_RETR_RESPONSE_CAUSAL

logger_messages = st.one_of(
    st.builds(LogUpload, sender=pids, notification=notifications),
    st.builds(LogUploadAck, logger=pids, event_id=event_ids),
    st.builds(RecoveryRequest, requester=pids,
              frontier=st.lists(event_ids, max_size=5).map(tuple)),
    st.builds(RecoveryResponse, logger=pids,
              events=st.lists(notifications, max_size=3).map(tuple),
              complete=st.booleans()),
)

envelopes = st.builds(TopicEnvelope, topic=st.text(max_size=12),
                      inner=st.one_of(gossips, logger_messages))

#: Every message type carrying a binary tag.
any_wire_message = st.one_of(core_messages, logger_messages, envelopes)

# -- causal dependency metadata ----------------------------------------------
# Only gossip and retransmit responses carry deps on the wire (the causal
# tags 0x10/0x11); every other notification-bearing record ships the base
# 3-field form, so these strategies attach deps to exactly those two types.
causal_notifications = st.builds(
    Notification,
    event_id=event_ids,
    payload=json_payloads,
    created_at=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    deps=st.lists(event_ids, max_size=4).map(tuple),
)
causal_gossips = st.builds(
    GossipMessage,
    sender=pids,
    subs=st.lists(pids, max_size=4).map(tuple),
    unsubs=st.lists(unsubs, max_size=3).map(tuple),
    events=st.lists(causal_notifications, min_size=1, max_size=4).map(tuple),
    event_ids=digests_of_ids,
    heartbeats=heartbeats,
)
causal_responses = st.builds(
    RetransmitResponse,
    responder=pids,
    events=st.lists(causal_notifications, min_size=1, max_size=3).map(tuple),
)
causal_messages = st.one_of(causal_gossips, causal_responses)


class TestBinaryRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(message=any_wire_message)
    def test_binary_round_trip_identity(self, message):
        assert decode_binary(encode_binary(message)) == message

    @settings(max_examples=150, deadline=None)
    @given(message=any_wire_message)
    def test_binary_agrees_with_json_codec(self, message):
        # Both codecs must reconstruct the same object from their own wire
        # forms — the two formats are interchangeable behind the version
        # byte, so a message may cross one leg as JSON and the next as
        # binary.
        assert decode_binary(encode_binary(message)) \
            == from_json(to_json(message))

    @settings(max_examples=100, deadline=None)
    @given(messages=st.lists(any_wire_message, max_size=6), sender=pids)
    def test_frame_round_trip_both_formats(self, messages, sender):
        for fmt in ("binary", "json"):
            got_sender, got = decode_frame(
                encode_frame(sender, messages, fmt=fmt)
            )
            assert got_sender == sender
            assert got == messages

    @settings(max_examples=100, deadline=None)
    @given(messages=st.lists(any_wire_message, max_size=6))
    def test_cross_shard_blob_round_trip(self, messages):
        assert unpack_messages(pack_messages(messages)) == messages


class TestAdversarialInput:
    @settings(max_examples=300, deadline=None)
    @given(garbage=st.binary(max_size=60))
    def test_random_bytes_never_crash_decode_binary(self, garbage):
        try:
            decode_binary(garbage)
        except CodecError:
            pass  # rejecting is fine; any other exception is a bug

    @settings(max_examples=300, deadline=None)
    @given(garbage=st.binary(max_size=60))
    def test_random_bytes_never_crash_decode_frame(self, garbage):
        try:
            decode_frame(garbage)
        except CodecError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(garbage=st.binary(max_size=60))
    def test_random_bytes_never_crash_unpack_messages(self, garbage):
        try:
            unpack_messages(bytes([0x02]) + garbage)
        except CodecError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(message=any_wire_message, data=st.data())
    def test_mutated_encodings_never_crash(self, message, data):
        blob = bytearray(encode_binary(message))
        if blob:
            index = data.draw(st.integers(0, len(blob) - 1))
            blob[index] = data.draw(st.integers(0, 255))
        try:
            decode_binary(bytes(blob))
        except CodecError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(message=any_wire_message, cut=st.integers(0, 200))
    def test_truncated_encodings_never_crash(self, message, cut):
        blob = encode_binary(message)
        if cut >= len(blob):
            return
        try:
            decode_binary(blob[:cut])
        except CodecError:
            pass


class TestCausalMetadataWire:
    """The dependency-carrying records (tags 0x10/0x11) under the same
    total properties as every other tag: exact round trips, cross-codec
    agreement, and graceful rejection of every malformed byte string."""

    @settings(max_examples=300, deadline=None)
    @given(message=causal_messages)
    def test_causal_round_trip_identity(self, message):
        assert decode_binary(encode_binary(message)) == message

    @settings(max_examples=150, deadline=None)
    @given(message=causal_messages)
    def test_causal_binary_agrees_with_json_codec(self, message):
        assert decode_binary(encode_binary(message)) \
            == from_json(to_json(message))

    @settings(max_examples=200, deadline=None)
    @given(message=causal_messages)
    def test_causal_tag_selected_iff_any_deps(self, message):
        # Deps-free messages must keep their pre-causal encoding — byte
        # compatibility with every pinned golden vector — while any carried
        # dep must switch the record to its causal tag.
        tag = encode_binary(message)[0]
        causal_tags = (TAG_GOSSIP_CAUSAL, TAG_RETR_RESPONSE_CAUSAL)
        if any(n.deps for n in message.events):
            assert tag in causal_tags
        else:
            assert tag not in causal_tags

    @settings(max_examples=60, deadline=None)
    @given(message=causal_messages)
    def test_causal_every_prefix_truncation_raises_codec_error(self, message):
        # The every-prefix pattern from tests/wire/test_binary_codec.py: no
        # proper prefix of a causal record may decode (or crash) — the
        # delta-encoded dep runs must not leave a shorter valid record
        # embedded in a longer one.
        blob = encode_binary(message)
        for cut in range(len(blob)):
            with pytest.raises(CodecError):
                decode_binary(blob[:cut])

    @settings(max_examples=150, deadline=None)
    @given(message=causal_messages, data=st.data())
    def test_causal_mutated_encodings_never_crash(self, message, data):
        blob = bytearray(encode_binary(message))
        index = data.draw(st.integers(0, len(blob) - 1))
        blob[index] = data.draw(st.integers(0, 255))
        try:
            decode_binary(bytes(blob))
        except CodecError:
            pass
