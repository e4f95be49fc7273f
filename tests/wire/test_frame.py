"""Unit tests for the frame layer: batching, the version check, splitting."""

import pytest

from repro.core.events import Notification
from repro.core.ids import EventId
from repro.core.message import GossipMessage, SubscriptionRequest
from repro.wire import (
    FRAME_BINARY,
    CodecError,
    WireEncodeError,
    decode_frame,
    encode_frame,
    pack_datagrams,
    split_oversize,
)


def make_gossip(sender=1, n_events=3, payload="x" * 40):
    return GossipMessage(
        sender=sender,
        events=tuple(Notification(EventId(sender, seq), payload, float(seq))
                     for seq in range(1, n_events + 1)),
        event_ids=tuple((origin, 5, (7, 9)) for origin in range(2, 7)),
    )


class TestFrameRoundTrip:
    def test_multi_message_frame(self):
        messages = [make_gossip(), SubscriptionRequest(9),
                    make_gossip(sender=2)]
        frame = encode_frame(7, messages)
        assert frame[0] == FRAME_BINARY
        sender, decoded = decode_frame(frame)
        assert sender == 7
        assert decoded == messages

    def test_version_byte_identifies_format(self):
        assert encode_frame(1, [make_gossip()])[0] == FRAME_BINARY
        plan = pack_datagrams(1, [make_gossip(sender=s) for s in range(3)])
        assert all(d[0] == FRAME_BINARY for d in plan.datagrams)

    def test_unknown_format_rejected(self):
        # 0x01 frames carried JSON messages and 0x02 ones an id-list digest.
        # Neither format is left: any other first byte refuses the frame
        # whole, even with a valid binary body behind it.
        frame = bytearray(encode_frame(1, [make_gossip()]))
        for version in set(range(256)) - {FRAME_BINARY}:
            frame[0] = version
            with pytest.raises(CodecError, match=f"unsupported wire version "
                                                 f"byte {version:#04x}"):
                decode_frame(bytes(frame))

    def test_version_bytes_disjoint_from_legacy_text(self):
        # Legacy datagrams are "pid|json" — their first byte is an ASCII
        # digit.  The version byte must never collide with that range.
        assert not (0x30 <= FRAME_BINARY <= 0x39)

    def test_empty_frame(self):
        sender, decoded = decode_frame(encode_frame(3, []))
        assert sender == 3
        assert decoded == []

    def test_message_without_binary_form_raises(self):
        # There is no second format to fall back to: a message the binary
        # codec cannot carry is the sender's error, not a different frame.
        unencodable = GossipMessage(
            sender=1, events=(Notification(EventId(1, 1), {1, 2}, 0.0),))
        with pytest.raises(WireEncodeError, match="unencodable payload"):
            encode_frame(1, [unencodable])
        with pytest.raises(WireEncodeError, match="unencodable payload"):
            pack_datagrams(1, [make_gossip(), unencodable])


class TestFrameDecodeErrors:
    def test_empty_input(self):
        with pytest.raises(CodecError):
            decode_frame(b"")

    def test_wrong_version_byte(self):
        frame = bytearray(encode_frame(1, [SubscriptionRequest(2)]))
        frame[0] = 0x7E
        with pytest.raises(CodecError):
            decode_frame(bytes(frame))

    def test_truncation_always_codec_error(self):
        frame = encode_frame(5, [make_gossip(), SubscriptionRequest(2)])
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                decode_frame(frame[:cut])

    def test_previous_binary_version_is_a_decode_error(self):
        # 0x02 frames carried the gossip digest as an id list; there is no
        # second decoder, so such a frame is refused whole.
        frame = bytearray(encode_frame(1, [make_gossip()]))
        assert frame[0] == FRAME_BINARY == 0x03
        frame[0] = 0x02
        with pytest.raises(CodecError, match="unsupported wire version byte 0x02"):
            decode_frame(bytes(frame))

    def test_trailing_bytes_rejected(self):
        frame = encode_frame(5, [SubscriptionRequest(2)]) + b"\x00"
        with pytest.raises(CodecError):
            decode_frame(frame)

    def test_absurd_count_rejected_before_allocation(self):
        # version + sender + count claiming 2^40 messages in a tiny input.
        from repro.wire.varint import write_svarint, write_uvarint
        frame = bytearray([FRAME_BINARY])
        write_svarint(frame, 1)
        write_uvarint(frame, 2**40)
        with pytest.raises(CodecError):
            decode_frame(bytes(frame))


class TestSplitOversize:
    def test_split_covers_every_element_once(self):
        gossip = make_gossip(n_events=49, payload="y" * 30)

        def fits(part):
            from repro.wire import encode_binary
            blob = encode_binary(part)
            return blob if len(blob) <= 400 else None

        parts = split_oversize(gossip, fits)
        assert parts is not None and len(parts) > 1
        events = [e for part, _blob in parts for e in part.events]
        assert tuple(events) == gossip.events
        ids = [i for part, _blob in parts for i in part.event_ids]
        assert tuple(ids) == gossip.event_ids

    def test_digest_alone_over_the_cap_covers_every_entry_once(self):
        # 200 origins with gaps: the digest by itself outgrows a 256-byte
        # datagram, so it travels as several gossips, each a digest in its
        # own right, together naming exactly what the original named.
        digest = tuple((origin * 7, 300 + origin, (400 + origin, 900))
                       for origin in range(200))
        big = GossipMessage(sender=1, subs=(4, 5), event_ids=digest)
        plan = pack_datagrams(1, [big], max_bytes=256)
        assert plan.oversize == [] and len(plan.splits) == 1
        assert all(len(datagram) <= 256 for datagram in plan.datagrams)
        parts = [m for d in plan.datagrams for m in decode_frame(d)[1]]
        assert len(parts) == plan.splits[0][2] > 1
        assert tuple(e for part in parts for e in part.event_ids) == digest
        assert tuple(s for part in parts for s in part.subs) == big.subs
        # Re-packed without a cap, the parts batch into one frame.
        (whole,) = pack_datagrams(1, parts).datagrams
        assert decode_frame(whole)[1] == parts

    def test_single_huge_element_unsplittable(self):
        gossip = GossipMessage(
            sender=1,
            events=(Notification(EventId(1, 1), "q" * 1000, 0.0),),
        )
        assert split_oversize(gossip, lambda part: None) is None

    def test_non_gossip_unsplittable(self):
        assert split_oversize(SubscriptionRequest(1), lambda p: None) is None


class TestPackDatagrams:
    def test_batches_into_few_frames(self):
        messages = [make_gossip(sender=s) for s in range(10)]
        plan = pack_datagrams(1, messages, max_bytes=65_000)
        assert len(plan.datagrams) == 1
        _sender, decoded = decode_frame(plan.datagrams[0])
        assert decoded == messages

    def test_respects_cap(self):
        messages = [make_gossip(sender=s) for s in range(30)]
        plan = pack_datagrams(1, messages, max_bytes=600)
        assert len(plan.datagrams) > 1
        recovered = []
        for datagram in plan.datagrams:
            assert len(datagram) <= 600
            recovered.extend(decode_frame(datagram)[1])
        assert recovered == messages

    def test_oversize_gossip_split_not_dropped(self):
        big = make_gossip(n_events=60, payload="w" * 40)
        plan = pack_datagrams(1, [big], max_bytes=700)
        assert plan.oversize == []
        assert len(plan.splits) == 1
        original, size, n_parts = plan.splits[0]
        assert original is big and size > 700 and n_parts > 1
        events = [e for d in plan.datagrams
                  for m in decode_frame(d)[1] for e in m.events]
        assert tuple(events) == big.events

    def test_unsplittable_reported_oversize(self):
        huge = GossipMessage(
            sender=1,
            events=(Notification(EventId(1, 1), "v" * 2000, 0.0),),
        )
        plan = pack_datagrams(1, [huge], max_bytes=500)
        assert plan.datagrams == []
        assert len(plan.oversize) == 1
        assert plan.oversize[0][0] is huge
