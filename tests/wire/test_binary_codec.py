"""Unit tests for the compact binary message codec."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import CodecError, wire_size
from repro.core.events import Notification, Unsubscription
from repro.core.ids import EventId
from repro.core.message import (
    GossipMessage,
    RetransmitRequest,
    RetransmitResponse,
    SubscriptionAck,
    SubscriptionRequest,
)
from repro.loggers.messages import (
    LogUpload,
    LogUploadAck,
    RecoveryRequest,
    RecoveryResponse,
)
from repro.pbcast import PbcastData, PbcastDigest, PbcastSolicit
from repro.pubsub.peer import TopicEnvelope
from repro.wire import (
    WireEncodeError,
    decode_binary,
    encode_binary,
    wire_bytes_of,
)
from repro.wire.binary import _r_digest, _r_event_ids, _w_digest, _w_event_ids
from repro.wire.varint import (
    read_svarint,
    read_svarint_run,
    read_uvarint,
    write_svarint,
    write_uvarint,
)

NOTE = Notification(EventId(3, 7), "payload", 12.5)
# A notification carrying causal dependency metadata: gossip and
# retransmit responses holding one switch to the causal tags (0x10/0x11).
CAUSAL_NOTE = Notification(EventId(3, 8), "causal", 13.0,
                           deps=(EventId(1, 4), EventId(2, 2)))

SAMPLES = [
    GossipMessage(sender=0),
    GossipMessage(
        sender=41,
        subs=(3, 1, 9),
        unsubs=(Unsubscription(2, 0.25),),
        events=(NOTE, Notification(EventId(8, 1), None, 0.0)),
        event_ids=((2, 1, ()), (1, 4, (5, 6, 9)), (300, 0, (200,))),
        heartbeats=((4, 100), (5, 3)),
    ),
    SubscriptionRequest(12),
    SubscriptionAck(7, (9, 2, 15)),
    RetransmitRequest(3, (EventId(4, 2), EventId(4, 3))),
    RetransmitResponse(5, (NOTE,)),
    PbcastData(6, NOTE, 2),
    PbcastDigest(8, (EventId(1, 1),), (2, 3), (Unsubscription(9, 1.5),)),
    PbcastSolicit(10, (EventId(2, 2), EventId(5, 1))),
    LogUpload(11, NOTE),
    LogUploadAck(12, EventId(6, 9)),
    RecoveryRequest(13, (EventId(1, 4), EventId(2, 8))),
    RecoveryResponse(14, (NOTE,), False),
    TopicEnvelope("alerts", GossipMessage(sender=2, subs=(1,))),
    GossipMessage(sender=42, events=(CAUSAL_NOTE, NOTE),
                  event_ids=((3, 8, ()),)),
    RetransmitResponse(6, (CAUSAL_NOTE,)),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "message", SAMPLES, ids=[type(m).__name__ for m in SAMPLES]
    )
    def test_every_message_type(self, message):
        assert decode_binary(encode_binary(message)) == message

    def test_unordered_event_ids_preserve_order(self):
        # The run-length digest encoding must not canonicalize ordering:
        # a shuffled id list decodes in exactly the order it was encoded.
        ids = (EventId(5, 3), EventId(1, 9), EventId(5, 2), EventId(1, 1))
        message = RetransmitRequest(0, ids)
        assert decode_binary(encode_binary(message)).event_ids == ids

    def test_negative_and_large_integers(self):
        message = GossipMessage(
            sender=2**40,
            event_ids=((-5, 2**33, (2**33 + 1, 2**60)), (-2**40, 0, ())))
        assert decode_binary(encode_binary(message)) == message

    def test_float_timestamps_exact(self):
        created = 0.1 + 0.2  # not exactly representable in decimal
        message = LogUpload(1, Notification(EventId(1, 1), None, created))
        decoded = decode_binary(encode_binary(message))
        assert decoded.notification.created_at == created

    def test_nested_envelope(self):
        message = TopicEnvelope("t", TopicEnvelope("u", NOTE and
                                                   SubscriptionRequest(1)))
        assert decode_binary(encode_binary(message)) == message


class TestEncodeErrors:
    def test_unknown_type_rejected(self):
        with pytest.raises(WireEncodeError):
            encode_binary(("not", "a", "message"))

    def test_non_string_topic_rejected(self):
        with pytest.raises(CodecError):
            encode_binary(TopicEnvelope(42, GossipMessage(sender=1)))

    def test_wire_encode_error_is_codec_error(self):
        assert issubclass(WireEncodeError, CodecError)

    def test_strict_rejects_tuple_payload(self):
        message = LogUpload(1, Notification(EventId(1, 1), (1, 2), 0.0))
        with pytest.raises(WireEncodeError):
            encode_binary(message, strict_payloads=True)
        # Non-strict mode ships it as JSON (the tuple becomes a list, the
        # same lossy embedding the JSON wire format applies).
        decoded = decode_binary(encode_binary(message))
        assert decoded.notification.payload == [1, 2]

    def test_deps_refused_on_records_without_causal_form(self):
        # A deps-carrying notification inside a record type that has no
        # causal binary layout must be refused (so the shard/frame layers
        # fall back losslessly), never silently stripped.
        with pytest.raises(WireEncodeError, match="causal"):
            encode_binary(LogUpload(1, CAUSAL_NOTE))
        with pytest.raises(WireEncodeError, match="causal"):
            encode_binary(RecoveryResponse(2, (CAUSAL_NOTE,), True))
        with pytest.raises(WireEncodeError, match="causal"):
            encode_binary(PbcastData(3, CAUSAL_NOTE, 1))

    def test_strict_rejects_nan_payload(self):
        message = LogUpload(1, Notification(EventId(1, 1), float("nan"), 0.0))
        with pytest.raises(WireEncodeError):
            encode_binary(message, strict_payloads=True)

    def test_strict_rejects_non_string_dict_keys(self):
        message = LogUpload(1, Notification(EventId(1, 1), {1: "x"}, 0.0))
        with pytest.raises(WireEncodeError):
            encode_binary(message, strict_payloads=True)

    def test_strict_accepts_stable_payloads(self):
        payload = {"k": [1, 2.5, "s", None, True]}
        message = LogUpload(1, Notification(EventId(1, 1), payload, 0.0))
        decoded = decode_binary(encode_binary(message, strict_payloads=True))
        assert decoded.notification.payload == payload


class TestDecodeErrors:
    def test_empty_input(self):
        with pytest.raises(CodecError):
            decode_binary(b"")

    def test_unknown_tag(self):
        with pytest.raises(CodecError):
            decode_binary(b"\xff\x00")

    def test_trailing_bytes(self):
        blob = encode_binary(SubscriptionRequest(1)) + b"\x00"
        with pytest.raises(CodecError):
            decode_binary(blob)

    @pytest.mark.parametrize(
        "message", SAMPLES, ids=[type(m).__name__ for m in SAMPLES]
    )
    def test_every_truncation_raises_codec_error(self, message):
        blob = encode_binary(message)
        for cut in range(len(blob)):
            with pytest.raises(CodecError):
                decode_binary(blob[:cut])


class TestSizing:
    def test_wire_bytes_of_matches_encoding(self):
        for message in SAMPLES:
            assert wire_bytes_of(message) == len(encode_binary(message))

    def test_wire_bytes_of_unencodable_is_minus_one(self):
        assert wire_bytes_of(object()) == -1

    def test_codec_wire_size_supports_both_formats(self):
        message = SAMPLES[1]
        assert wire_size(message, fmt="binary") == wire_bytes_of(message)
        assert wire_size(message, fmt="json") > wire_size(message,
                                                          fmt="binary")
        with pytest.raises(ValueError):
            wire_size(message, fmt="morse")

    def test_grouped_digest_is_about_one_byte_per_id(self):
        ids = tuple(EventId(7, seq) for seq in range(1, 101))
        blob = encode_binary(RetransmitRequest(0, ids))
        assert len(blob) < 2 * len(ids)  # ~1 byte/id plus a small header


# -- the digest codec against its reference ----------------------------------
#
# ``_w_event_ids`` / ``_r_event_ids`` are hand-inlined single-pass loops.
# The pair below is what they replaced — one public varint call per field,
# attribute access, the generated ``EventId.__new__`` — kept here as the
# oracle: same bytes out, same ids back, same verdict on damaged input.

def reference_w_event_ids(buf, event_ids):
    write_uvarint(buf, len(event_ids))
    previous_origin = 0
    index, total = 0, len(event_ids)
    while index < total:
        origin = event_ids[index].origin
        run_end = index + 1
        while run_end < total and event_ids[run_end].origin == origin:
            run_end += 1
        write_svarint(buf, origin - previous_origin)
        write_uvarint(buf, run_end - index)
        previous_seq = 0
        for position in range(index, run_end):
            seq = event_ids[position].seq
            write_svarint(buf, seq - previous_seq)
            previous_seq = seq
        previous_origin = origin
        index = run_end


def reference_r_event_ids(data, pos, limit):
    count, pos = read_uvarint(data, pos)
    if count > limit:
        raise CodecError(f"event-id list length {count} exceeds input size")
    out = []
    previous_origin = 0
    while len(out) < count:
        delta, pos = read_svarint(data, pos)
        origin = previous_origin + delta
        run_length, pos = read_uvarint(data, pos)
        if run_length < 1 or len(out) + run_length > count:
            raise CodecError(f"malformed event-id run of length {run_length}")
        seq_deltas, pos = read_svarint_run(data, pos, run_length)
        previous_seq = 0
        for seq_delta in seq_deltas:
            previous_seq += seq_delta
            out.append(EventId(origin, previous_seq))
        previous_origin = origin
    return tuple(out), pos


# Zigzag deltas change width at |d| = 64 (one -> two bytes) and 8192 (two ->
# three); 2**67 keeps every difference of two values inside the ten-byte cap.
_EDGES = [0, 1, -1, 63, 64, -64, -65, 127, 128, 8191, 8192, -8192, -8193,
          2**31, 2**62, 2**67, -2**67]
_numbers = st.one_of(st.sampled_from(_EDGES), st.integers(-130, 130),
                     st.integers(-2**67, 2**67))


def _id_lists(run_lengths, max_runs):
    """Lists of ``(origin, seq)`` pairs built run by run, so long runs and
    length-1 runs both occur; seqs inside a run ascend, descend and jump."""
    run = st.tuples(_numbers, run_lengths).flatmap(
        lambda shape: st.tuples(
            st.just(shape[0]),
            st.one_of(
                _numbers.map(lambda first: [first + step
                                            for step in range(shape[1])]),
                st.lists(_numbers, min_size=shape[1], max_size=shape[1]))))
    return st.lists(run, max_size=max_runs).map(
        lambda runs: [(origin, seq) for origin, seqs in runs for seq in seqs])


_any_ids = _id_lists(st.sampled_from([1, 1, 2, 5, 127, 128, 300]), 6)
_short_ids = _id_lists(st.integers(1, 4), 5)


def _damaged(record):
    """Every prefix truncation of ``record`` and every single-byte
    corruption of it (each bit flipped, 0x00, 0xFF)."""
    damaged = [bytes(record[:cut]) for cut in range(len(record))]
    for position, byte in enumerate(record):
        for other in {byte ^ (1 << bit) for bit in range(8)} | {0, 0xFF}:
            if other != byte:
                corrupt = bytearray(record)
                corrupt[position] = other
                damaged.append(bytes(corrupt))
    return damaged


def _outcome(reader, data):
    try:
        return reader(data, 0, len(data))
    except CodecError:
        return CodecError


class TestDigestCodecAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(pairs=_any_ids, plain=st.booleans())
    def test_writer_emits_the_reference_bytes(self, pairs, plain):
        expected = bytearray()
        reference_w_event_ids(expected, [EventId(*pair) for pair in pairs])
        ids = pairs if plain else [EventId(*pair) for pair in pairs]
        written = bytearray(b"\xaa")       # appends, never rewrites
        _w_event_ids(written, ids)
        assert written == b"\xaa" + expected

    @settings(max_examples=150, deadline=None)
    @given(pairs=_any_ids, offset=st.integers(0, 3))
    def test_reader_returns_the_reference_ids(self, pairs, offset):
        record = bytearray(offset)
        reference_w_event_ids(record, [EventId(*pair) for pair in pairs])
        data = bytes(record) + b"\x00\x05"  # the section is not the last
        ids, pos = _r_event_ids(data, offset, len(data))
        assert (ids, pos) == reference_r_event_ids(data, offset, len(data))
        assert ids == tuple(pairs) and pos == len(record)
        assert all(type(event_id) is EventId for event_id in ids)

    @settings(max_examples=60, deadline=None)
    @given(pairs=_short_ids)
    def test_damaged_records_get_the_reference_verdict(self, pairs):
        record = bytearray()
        reference_w_event_ids(record, [EventId(*pair) for pair in pairs])
        for data in _damaged(record):
            assert (_outcome(_r_event_ids, data)
                    == _outcome(reference_r_event_ids, data)), data.hex()

    def test_every_check_still_fires(self):
        def read(data):
            return _r_event_ids(data, 0, len(data))

        with pytest.raises(CodecError, match="exceeds input"):
            read(b"\x05\x02")                       # count > limit
        with pytest.raises(CodecError, match="run of length 0"):
            read(b"\x01\x02\x00\x02")                 # run_length < 1
        with pytest.raises(CodecError, match="run of length 3"):
            read(b"\x02\x02\x03\x02\x02\x02")         # run overruns count
        with pytest.raises(CodecError, match="truncated"):
            read(b"\x02\x02\x02\x02")                 # second seq missing
        with pytest.raises(CodecError, match="longer than 10"):
            read(b"\x01\x02\x01" + b"\x80" * 11)
        blob = encode_binary(RetransmitRequest(3, (EventId(4, 2),)))
        with pytest.raises(CodecError, match="trailing"):
            decode_binary(blob + b"\x00")
        for too_wide in (EventId(0, 2**69), EventId(-2**69 - 1, 0)):
            with pytest.raises(WireEncodeError, match="outside uvarint"):
                encode_binary(RetransmitRequest(3, (too_wide,)))


# -- the gossip digest record against its reference --------------------------
#
# ``_w_digest`` / ``_r_digest`` carry a gossip's per-origin ``(origin,
# frontier, extras)`` entries.  The pair below spells the layout with one
# public varint call per field — ``zigzag origin delta, frontier, extras
# count, ascending gaps past the frontier`` — and is the oracle.

def reference_w_digest(buf, digest):
    write_uvarint(buf, len(digest))
    previous_origin = 0
    for origin, frontier, extras in digest:
        write_svarint(buf, origin - previous_origin)
        write_uvarint(buf, frontier)
        write_uvarint(buf, len(extras))
        previous = frontier
        for seq in extras:
            assert seq > previous
            write_uvarint(buf, seq - previous)
            previous = seq
        previous_origin = origin


def reference_r_digest(data, pos, limit):
    count, pos = read_uvarint(data, pos)
    if count > limit:
        raise CodecError(f"digest length {count} exceeds input size")
    out = []
    origin = 0
    for _ in range(count):
        delta, pos = read_svarint(data, pos)
        origin += delta
        frontier, pos = read_uvarint(data, pos)
        beyond, pos = read_uvarint(data, pos)
        if beyond > limit:
            raise CodecError(f"digest extras count {beyond} exceeds input size")
        extras, seq = [], frontier
        for _ in range(beyond):
            gap, pos = read_uvarint(data, pos)
            if gap == 0:
                raise CodecError(f"digest extras of origin {origin} do not ascend")
            seq += gap
            extras.append(seq)
        out.append((origin, frontier, tuple(extras)))
    return tuple(out), pos


# Unsigned varints change width at 128 (one -> two bytes) and 16384; 2**62
# leaves a frontier plus its gaps inside the ten-byte cap (2**70 - 1).
_UNSIGNED = [0, 1, 63, 64, 127, 128, 300, 16383, 16384, 2**31, 2**62]
_frontiers = st.one_of(st.sampled_from(_UNSIGNED), st.integers(0, 130))
_gaps = st.one_of(st.sampled_from(_UNSIGNED[1:]), st.integers(1, 130))


def _digests(extras_counts, max_entries):
    """Digests built entry by entry: origins in any order (negative deltas,
    repeats), frontiers and gaps across the varint widths."""
    entry = st.tuples(_numbers, _frontiers, extras_counts).flatmap(
        lambda shape: st.lists(_gaps, min_size=shape[2], max_size=shape[2]).map(
            lambda gaps: (shape[0], shape[1], tuple(
                shape[1] + sum(gaps[:k + 1]) for k in range(len(gaps))))))
    return st.lists(entry, max_size=max_entries).map(tuple)


_any_digests = _digests(st.sampled_from([0, 0, 1, 1, 2, 127, 128, 300]), 5)
_short_digests = _digests(st.integers(0, 3), 4)


class TestGossipDigestRecord:
    @settings(max_examples=150, deadline=None)
    @given(digest=_any_digests, offset=st.integers(0, 3))
    def test_round_trip_and_reference_bytes(self, digest, offset):
        expected = bytearray(offset)
        reference_w_digest(expected, digest)
        written = bytearray(offset)        # appends, never rewrites
        _w_digest(written, digest)
        assert written == expected
        data = bytes(written) + b"\x00\x05"  # the section is not the last
        assert _r_digest(data, offset, len(data)) == (digest, len(written))
        assert reference_r_digest(data, offset, len(data))[0] == digest
        message = GossipMessage(sender=7, event_ids=digest)
        assert decode_binary(encode_binary(message)) == message

    def test_empty_digest_is_one_byte(self):
        written = bytearray()
        _w_digest(written, ())
        assert written == b"\x00" and _r_digest(b"\x00", 0, 1) == ((), 1)

    @settings(max_examples=60, deadline=None)
    @given(digest=_short_digests)
    def test_truncated_and_corrupted_records_get_the_reference_verdict(
            self, digest):
        record = bytearray()
        reference_w_digest(record, digest)
        for data in _damaged(record):
            # A CodecError or a well-formed digest — never another exception,
            # and never a different reading than the field-by-field one.
            outcome = _outcome(_r_digest, data)
            assert outcome == _outcome(reference_r_digest, data), data.hex()
            if outcome is not CodecError:
                for _origin, frontier, extras in outcome[0]:
                    assert frontier >= 0
                    assert list(extras) == sorted(set(extras))
                    assert not extras or extras[0] > frontier

    def test_every_check_fires_by_message(self):
        def read(data):
            return _r_digest(data, 0, len(data))

        with pytest.raises(CodecError, match="digest length 5 exceeds input"):
            read(b"\x05\x02")                         # entry count > limit
        with pytest.raises(CodecError, match="extras count 300 exceeds input"):
            read(b"\x01\x02\x03\xac\x02\x01")           # extras count > limit
        with pytest.raises(CodecError, match="origin 1 do not ascend"):
            read(b"\x01\x02\x03\x02\x01\x00")           # a zero gap: repeats
        with pytest.raises(CodecError, match="truncated"):
            read(b"\x01\x02\x03\x02\x01")               # second gap missing
        with pytest.raises(CodecError, match="truncated"):
            read(b"\x02\x02\x03\x00")                   # second entry missing
        with pytest.raises(CodecError, match="longer than 10"):
            read(b"\x01\x02" + b"\x80" * 11)
        blob = encode_binary(GossipMessage(3, event_ids=((4, 2, (5,)),)))
        with pytest.raises(CodecError, match="trailing"):
            decode_binary(blob + b"\x00")

    @pytest.mark.parametrize("extras", [(2,), (1,), (5, 5), (6, 4), (0,)])
    def test_extras_that_do_not_ascend_past_the_frontier_have_no_encoding(
            self, extras):
        with pytest.raises(WireEncodeError, match="do not ascend past"):
            encode_binary(GossipMessage(3, event_ids=((4, 2, extras),)))

    def test_out_of_range_fields_are_encode_errors(self):
        for entry in ((4, -1, ()), (4, 2**70, ()), (2**69, 1, ()),
                      (4, 1, (2**70 + 1,))):
            with pytest.raises(WireEncodeError, match="outside uvarint"):
                encode_binary(GossipMessage(3, event_ids=(entry,)))

    def test_a_long_stream_costs_what_its_gaps_cost(self):
        # 4 publishers x 10,000 ids each, two of them with a gap: a handful
        # of bytes, where the id list cost about one byte per id.
        digest = ((1, 10_000, ()), (2, 9_990, (9_992, 9_995)),
                  (3, 10_000, ()), (4, 7, (9,)))
        blob = encode_binary(GossipMessage(0, event_ids=digest))
        assert len(blob) - len(encode_binary(GossipMessage(0))) == 18
