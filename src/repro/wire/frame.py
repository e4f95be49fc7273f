"""The frame layer: versioned, batched, size-capped datagrams.

A *frame* is one datagram/blob carrying many protocol messages to the same
destination::

    byte 0   version — FRAME_BINARY (0x03)
    varint   zigzag sender pid
    varint   message count
    N ×      varint length prefix + binary message record

Binary records are the one encoding: a frame that starts with any other
byte (0x01, once JSON, and 0x02, binary frames whose digest was an id list,
included) is a decode error, never a parsed message, and a message with no
binary form raises :class:`~repro.wire.binary.WireEncodeError` on the send
path instead of travelling in some other format.
A frame names its sender and never its destination, so the same bytes
serve every target of a gossip.  :func:`pack_datagrams` is the send
path: it batches messages per destination into as few frames as fit the
datagram cap, *splits* gossips whose single-message frame would exceed the
cap into several smaller gossips instead of dropping them, and reports the
(rare) messages that cannot be made to fit at all so the transport can
count and trace them rather than lose them silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .binary import decode_binary, encode_binary
from .varint import (
    CodecError,
    read_svarint,
    read_uvarint,
    uvarint_len,
    write_svarint,
    write_uvarint,
    zigzag,
)

FRAME_BINARY = 0x03


def _assemble(sender: int, blobs: Sequence[bytes]) -> bytes:
    frame = bytearray([FRAME_BINARY])
    write_svarint(frame, sender)
    write_uvarint(frame, len(blobs))
    for blob in blobs:
        write_uvarint(frame, len(blob))
        frame += blob
    return bytes(frame)


def encode_frame(sender: int, messages: Sequence[object]) -> bytes:
    """Batch ``messages`` into a single frame (no size cap)."""
    return _assemble(sender, [encode_binary(m) for m in messages])


def decode_frame(data) -> Tuple[int, List[object]]:
    """Frame bytes → ``(sender, messages)``; malformed input of any shape
    raises :class:`~repro.wire.CodecError`."""
    if not data:
        raise CodecError("empty frame")
    version = data[0]
    if version != FRAME_BINARY:
        raise CodecError(f"unsupported wire version byte {version:#04x}")
    sender, pos = read_svarint(data, 1)
    count, pos = read_uvarint(data, pos)
    if count > len(data):  # every message costs at least one byte
        raise CodecError(f"frame count {count} exceeds input size")
    # Per-message blobs are plain bytes slices, not memoryviews: the inner
    # decoder indexes the blob byte-by-byte, and measured over real gossip
    # frames the memoryview's per-index overhead costs more than the one
    # small copy a slice makes (~12% slower end to end).
    messages: List[object] = []
    for _ in range(count):
        length, pos = read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise CodecError("truncated frame: message overruns input")
        messages.append(decode_binary(data[pos:end]))
        pos = end
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after frame")
    return sender, messages


# -- oversize splitting -------------------------------------------------------

def _gossip_of(message):
    """The splittable gossip inside ``message`` (possibly wrapped in a
    :class:`~repro.pubsub.peer.TopicEnvelope`), or None."""
    from ..core.message import GossipMessage
    if isinstance(message, GossipMessage):
        return message, None
    from ..pubsub.peer import TopicEnvelope
    if (isinstance(message, TopicEnvelope)
            and isinstance(message.inner, GossipMessage)):
        return message.inner, message.topic
    return None, None


def _halve(gossip):
    """Split a gossip's carried elements into two non-empty halves, taking
    elements field-by-field so progress is guaranteed whenever the gossip
    carries at least two elements in total.  A digest splits between its
    per-origin entries; each half is a digest in its own right."""
    fields = ("subs", "unsubs", "events", "event_ids", "heartbeats")
    lengths = [len(getattr(gossip, name)) for name in fields]
    total = sum(lengths)
    if total < 2:
        return None
    budget = total // 2
    first, second = {}, {}
    for name, length in zip(fields, lengths):
        value = getattr(gossip, name)
        take = min(length, budget)
        first[name] = value[:take]
        second[name] = value[take:]
        budget -= take
    make = type(gossip)
    return (make(sender=gossip.sender, **first),
            make(sender=gossip.sender, **second))


def split_oversize(
    message: object,
    fits: Callable[[object], Optional[bytes]],
) -> Optional[List[Tuple[object, bytes]]]:
    """Split an oversize gossip until every part satisfies ``fits``.

    ``fits(part)`` returns the part's encoded blob when the part is small
    enough to ship, else None.  Returns ``[(part, blob)]`` covering every
    element of the original exactly once, or None when the message is not
    a gossip (or wraps an element that alone exceeds the budget) — the
    caller then counts it as undeliverable instead of shipping a truncated
    datagram.
    """
    gossip, topic = _gossip_of(message)
    if gossip is None:
        return None

    def wrap(part):
        if topic is None:
            return part
        from ..pubsub.peer import TopicEnvelope
        return TopicEnvelope(topic, part)

    def recurse(part) -> Optional[List[Tuple[object, bytes]]]:
        wrapped = wrap(part)
        blob = fits(wrapped)
        if blob is not None:
            return [(wrapped, blob)]
        halves = _halve(part)
        if halves is None:
            return None
        out: List[Tuple[object, bytes]] = []
        for half in halves:
            sub = recurse(half)
            if sub is None:
                return None
            out.extend(sub)
        return out

    return recurse(gossip)


# -- the send-path planner ----------------------------------------------------

@dataclass
class DatagramPlan:
    """What :func:`pack_datagrams` decided for one destination's messages."""

    #: Ready-to-send frames, each within the datagram cap.
    datagrams: List[bytes] = field(default_factory=list)
    #: ``(message, encoded_size)`` for messages that cannot fit even after
    #: splitting — the transport must count and trace these, never drop
    #: them silently.
    oversize: List[Tuple[object, int]] = field(default_factory=list)
    #: ``(message, encoded_size, parts)`` for each gossip that was split.
    splits: List[Tuple[object, int, int]] = field(default_factory=list)


def pack_datagrams(sender: int, messages: Sequence[object],
                   max_bytes: int = 65_000) -> DatagramPlan:
    """Batch ``messages`` (one destination) into capped frames.

    Messages pack greedily, in order, into as few frames as fit
    ``max_bytes``; a message whose single-message frame would exceed the
    cap is split (gossips) or reported oversize (anything else).  A message
    with no binary form raises :class:`~repro.wire.binary.WireEncodeError`.
    """
    base = 1 + uvarint_len(zigzag(sender))
    plan = DatagramPlan()

    def frame_size(n_msgs: int, body: int, extra_blob: int) -> int:
        return (base + uvarint_len(n_msgs) + body
                + uvarint_len(extra_blob) + extra_blob)

    def fits_alone(message) -> Optional[bytes]:
        blob = encode_binary(message)
        return blob if frame_size(1, 0, len(blob)) <= max_bytes else None

    pending: List[bytes] = []
    body = 0
    for message in messages:
        blob = encode_binary(message)
        size = frame_size(1, 0, len(blob))
        if size <= max_bytes:
            blobs: Sequence[bytes] = (blob,)
        else:
            parts = split_oversize(message, fits_alone)
            if parts is None:
                plan.oversize.append((message, size))
                continue
            plan.splits.append((message, size, len(parts)))
            blobs = [part_blob for _part, part_blob in parts]
        for blob in blobs:
            if pending and frame_size(len(pending) + 1, body,
                                      len(blob)) > max_bytes:
                plan.datagrams.append(_assemble(sender, pending))
                pending, body = [], 0
            pending.append(blob)
            body += uvarint_len(len(blob)) + len(blob)
    if pending:
        plan.datagrams.append(_assemble(sender, pending))
    return plan
