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

from ..core.message import GossipMessage
from .binary import decode_binary, encode_binary
from .varint import (
    CodecError,
    read_svarint,
    read_uvarint,
    uvarint_len,
    write_svarint,
    write_uvarint,
)

FRAME_BINARY = 0x03


def _head(sender: int) -> bytearray:
    """A frame's version byte and sender: what precedes the count."""
    head = bytearray((FRAME_BINARY,))
    write_svarint(head, sender)
    return head


def _frame(head: bytearray, count: int, body: bytearray) -> bytes:
    """``head``, the message count, then ``body``: the length-prefixed
    records."""
    frame = head.copy()
    write_uvarint(frame, count)
    frame += body
    return bytes(frame)


def encode_frame(sender: int, messages: Sequence[object]) -> bytes:
    """Batch ``messages`` into a single frame (no size cap)."""
    body = bytearray()
    for message in messages:
        blob = encode_binary(message)
        write_uvarint(body, len(blob))
        body += blob
    return _frame(_head(sender), len(messages), body)


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

def _halve(gossip):
    """Split a gossip's carried elements into two non-empty halves, taking
    elements field-by-field so progress is guaranteed whenever the gossip
    carries at least two elements in total.  A digest splits between its
    per-origin entries; each half is a digest in its own right."""
    fields = ("subs", "unsubs", "events", "event_ids")
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
    a gossip (or carries an element that alone exceeds the budget) — the
    caller then counts it as undeliverable instead of shipping a truncated
    datagram.
    """
    if not isinstance(message, GossipMessage):
        return None

    def recurse(part) -> Optional[List[Tuple[object, bytes]]]:
        blob = fits(part)
        if blob is not None:
            return [(part, blob)]
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

    return recurse(message)


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
    head = _head(sender)
    base = len(head) + 1            # a frame of one message: count 1
    plan = DatagramPlan()
    body, count = bytearray(), 0    # the frame being filled
    for message in messages:
        blob = encode_binary(message)
        size = base + uvarint_len(len(blob)) + len(blob)
        if size <= max_bytes:
            blobs: Sequence[bytes] = (blob,)
        else:
            parts = split_oversize(
                message, lambda part: _fits_alone(part, base, max_bytes))
            if parts is None:
                plan.oversize.append((message, size))
                continue
            plan.splits.append((message, size, len(parts)))
            blobs = [part_blob for _part, part_blob in parts]
        for blob in blobs:
            if count and (len(head) + uvarint_len(count + 1) + len(body)
                          + uvarint_len(len(blob)) + len(blob)) > max_bytes:
                plan.datagrams.append(_frame(head, count, body))
                body, count = bytearray(), 0
            write_uvarint(body, len(blob))
            body += blob
            count += 1
    if count:
        plan.datagrams.append(_frame(head, count, body))
    return plan


def _fits_alone(message, base: int, max_bytes: int) -> Optional[bytes]:
    """``message``'s record when a frame of it alone, ``base`` bytes of
    head and count before the record, fits ``max_bytes``; else None."""
    blob = encode_binary(message)
    if base + uvarint_len(len(blob)) + len(blob) <= max_bytes:
        return blob
    return None
