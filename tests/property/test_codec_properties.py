"""Property-based round-trip tests for the wire codec."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import CodecError, from_json, to_json
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
# live in tests.property.test_wire_properties next to the causal-tag tests.
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
heartbeats = st.lists(
    st.tuples(pids, st.integers(min_value=0, max_value=10**6)), max_size=5
).map(tuple)

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
    heartbeats=heartbeats,
)

# payload_digest() values span the full 64-bit range (first 8 bytes of a
# sha256), so the digest strategy must too.
digests = st.integers(min_value=0, max_value=2**64 - 1)

any_message = st.one_of(
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


class TestCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(message=any_message)
    def test_round_trip_identity(self, message):
        assert from_json(to_json(message)) == message

    @settings(max_examples=100, deadline=None)
    @given(message=any_message)
    def test_wire_form_is_plain_json(self, message):
        import json
        parsed = json.loads(to_json(message))
        assert isinstance(parsed, dict)
        assert "@" in parsed

    @settings(max_examples=100, deadline=None)
    @given(garbage=st.text(max_size=40))
    def test_arbitrary_text_never_crashes(self, garbage):
        try:
            from_json(garbage)
        except CodecError:
            pass  # rejecting is fine; raising anything else is not

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.dictionaries(
            st.text(max_size=6),
            st.one_of(st.integers(), st.text(max_size=6),
                      st.lists(st.integers(), max_size=3)),
            max_size=5,
        )
    )
    def test_arbitrary_dicts_never_crash(self, data):
        from repro.core.codec import decode_message
        try:
            decode_message(data)
        except CodecError:
            pass
