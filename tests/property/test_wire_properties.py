"""Property-based tests for the binary wire codec and frame layer.

Message strategies cover every binary tag — the core protocol and
pbcast — and the tests check two total
properties: every generated message round-trips bit-exactly, and *no* byte
string — random or a truncated/mutated valid encoding — ever raises
anything but :class:`~repro.wire.CodecError`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Notification, Unsubscription
from repro.core.ids import EventId
from repro.core.message import (
    EchoMessage,
    GossipMessage,
    ReadyMessage,
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
    pack_messages,
    unpack_messages,
)
from repro.wire.binary import TAG_GOSSIP_CAUSAL, TAG_RETR_RESPONSE_CAUSAL

pids = st.integers(min_value=0, max_value=10_000)
seqs = st.integers(min_value=1, max_value=10_000)
event_ids = st.builds(EventId, origin=pids, seq=seqs)

# JSON-representable payloads (None, bools, ints, floats, strings, and
# shallow containers of them).
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
json_payloads = st.one_of(
    json_scalars,
    st.lists(json_scalars, max_size=4),
    st.dictionaries(st.text(max_size=8), json_scalars, max_size=4),
)

# deps pinned empty: dependency metadata rides only the records with causal
# binary forms (gossip / retransmit response); the deps-carrying strategies
# are below, next to the causal-tag tests.
notifications = st.builds(
    Notification,
    event_id=event_ids,
    payload=json_payloads,
    created_at=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    deps=st.just(()),
)
unsubs = st.builds(
    Unsubscription, pid=pids,
    timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
)

# A gossip's digest: per-origin (origin, frontier, extras) entries in any
# origin order, extras ascending past the frontier by gaps of every width.
digest_entries = st.tuples(
    pids, st.integers(min_value=0, max_value=10_000),
    st.lists(st.integers(min_value=1, max_value=300), max_size=4),
).map(lambda e: (e[0], e[1], tuple(
    e[1] + sum(e[2][:k + 1]) for k in range(len(e[2])))))
digests_of_ids = st.lists(digest_entries, max_size=6).map(tuple)

gossips = st.builds(
    GossipMessage,
    sender=pids,
    subs=st.lists(pids, max_size=6).map(tuple),
    unsubs=st.lists(unsubs, max_size=4).map(tuple),
    events=st.lists(notifications, max_size=4).map(tuple),
    event_ids=digests_of_ids,
)

# payload_digest() values span the full 64-bit range (first 8 bytes of a
# sha256), so the digest strategy must too.
digests = st.integers(min_value=0, max_value=2**64 - 1)

#: Every message type carrying a binary tag.
any_wire_message = st.one_of(
    gossips,
    st.builds(EchoMessage, sender=pids, event_id=event_ids, digest=digests),
    st.builds(ReadyMessage, sender=pids, event_id=event_ids, digest=digests),
    st.builds(SubscriptionRequest, subscriber=pids),
    st.builds(SubscriptionAck, contact=pids,
              view_sample=st.lists(pids, max_size=6).map(tuple)),
    st.builds(RetransmitRequest, requester=pids,
              event_ids=st.lists(event_ids, max_size=5).map(tuple)),
    st.builds(RetransmitResponse, responder=pids,
              events=st.lists(notifications, max_size=3).map(tuple)),
    st.builds(PbcastData, sender=pids, notification=notifications,
              hops=st.integers(0, 10)),
    st.builds(PbcastDigest, sender=pids,
              ids=st.lists(event_ids, max_size=5).map(tuple),
              subs=st.lists(pids, max_size=4).map(tuple),
              unsubs=st.lists(unsubs, max_size=3).map(tuple)),
    st.builds(PbcastSolicit, requester=pids,
              ids=st.lists(event_ids, max_size=5).map(tuple)),
)

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

    @settings(max_examples=100, deadline=None)
    @given(messages=st.lists(any_wire_message, max_size=6), sender=pids)
    def test_frame_round_trip(self, messages, sender):
        got_sender, got = decode_frame(encode_frame(sender, messages))
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
    total properties as every other tag: exact round trips and graceful
    rejection of every malformed byte string."""

    @settings(max_examples=300, deadline=None)
    @given(message=causal_messages)
    def test_causal_round_trip_identity(self, message):
        assert decode_binary(encode_binary(message)) == message

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
