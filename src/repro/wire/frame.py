"""The frame layer: versioned, batched, size-capped datagrams.

A *frame* is one datagram/blob carrying many protocol messages to the same
destination::

    byte 0   version — FRAME_JSON (0x01) or FRAME_BINARY (0x03)
    varint   zigzag sender pid
    varint   message count
    N ×      varint length prefix + encoded message

The version byte keeps the JSON codec on the wire for debugging; anything
that starts with another byte (0x02 included: binary frames whose digest was
an id list) is a decode error, never a parsed message.
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

from ..core.codec import CodecError, from_json, to_json
from .binary import WireEncodeError, decode_binary, encode_binary
from .varint import (
    read_svarint,
    read_uvarint,
    uvarint_len,
    write_svarint,
    write_uvarint,
    zigzag,
)

FRAME_JSON = 0x01
FRAME_BINARY = 0x03

_VERSIONS = (FRAME_JSON, FRAME_BINARY)


def _encode_one(message: object, fmt: str,
                strict: bool = False) -> Tuple[int, bytes]:
    """Encode one message, returning ``(frame_version, blob)``.

    In ``"binary"`` format a message without a binary form falls back to a
    JSON blob (shipped in its own JSON-versioned frame) unless ``strict``.
    """
    if fmt == "binary":
        try:
            return FRAME_BINARY, encode_binary(message,
                                               strict_payloads=strict)
        except WireEncodeError:
            if strict:
                raise
            return FRAME_JSON, to_json(message).encode("utf-8")
    if fmt == "json":
        return FRAME_JSON, to_json(message).encode("utf-8")
    raise ValueError(f"unknown wire format {fmt!r}")


def _assemble(version: int, sender: int, blobs: Sequence[bytes]) -> bytes:
    frame = bytearray([version])
    write_svarint(frame, sender)
    write_uvarint(frame, len(blobs))
    for blob in blobs:
        write_uvarint(frame, len(blob))
        frame += blob
    return bytes(frame)


def encode_frame(sender: int, messages: Sequence[object],
                 fmt: str = "binary") -> bytes:
    """Batch ``messages`` into a single frame (no size cap).

    With ``fmt="binary"``, a message that has no binary form demotes the
    whole frame to the JSON version — one frame carries one format.
    """
    if fmt == "binary":
        try:
            blobs = [encode_binary(m) for m in messages]
            return _assemble(FRAME_BINARY, sender, blobs)
        except WireEncodeError:
            fmt = "json"
    if fmt != "json":
        raise ValueError(f"unknown wire format {fmt!r}")
    blobs = [to_json(m).encode("utf-8") for m in messages]
    return _assemble(FRAME_JSON, sender, blobs)


def decode_frame(data) -> Tuple[int, List[object]]:
    """Frame bytes → ``(sender, messages)``; malformed input of any shape
    raises :class:`~repro.core.codec.CodecError`."""
    if not data:
        raise CodecError("empty frame")
    version = data[0]
    if version not in _VERSIONS:
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
        blob = data[pos:end]
        if version == FRAME_BINARY:
            messages.append(decode_binary(blob))
        else:
            try:
                messages.append(from_json(bytes(blob).decode("utf-8")))
            except UnicodeDecodeError as exc:
                raise CodecError(f"invalid UTF-8 in JSON frame: {exc}") from exc
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
    fits: Callable[[object], Optional[Tuple[int, bytes]]],
) -> Optional[List[Tuple[object, int, bytes]]]:
    """Split an oversize gossip until every part satisfies ``fits``.

    ``fits(part)`` returns the part's ``(version, blob)`` when the part is
    small enough to ship, else None.  Returns ``[(part, version, blob)]``
    covering every element of the original exactly once, or None when the
    message is not a gossip (or wraps an element that alone exceeds the
    budget) — the caller then counts it as undeliverable instead of
    shipping a truncated datagram.
    """
    gossip, topic = _gossip_of(message)
    if gossip is None:
        return None

    def wrap(part):
        if topic is None:
            return part
        from ..pubsub.peer import TopicEnvelope
        return TopicEnvelope(topic, part)

    def recurse(part) -> Optional[List[Tuple[object, int, bytes]]]:
        wrapped = wrap(part)
        encoded = fits(wrapped)
        if encoded is not None:
            return [(wrapped, encoded[0], encoded[1])]
        halves = _halve(part)
        if halves is None:
            return None
        out: List[Tuple[object, int, bytes]] = []
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
                   fmt: str = "binary",
                   max_bytes: int = 65_000) -> DatagramPlan:
    """Batch ``messages`` (one destination) into capped frames.

    Messages pack greedily, in order, into as few frames as fit
    ``max_bytes``; a message whose single-message frame would exceed the
    cap is split (gossips) or reported oversize (anything else).
    """
    base = 1 + uvarint_len(zigzag(sender))
    plan = DatagramPlan()

    def frame_size(n_msgs: int, body: int, extra_blob: int) -> int:
        return (base + uvarint_len(n_msgs) + body
                + uvarint_len(extra_blob) + extra_blob)

    def fits_alone(message) -> Optional[Tuple[int, bytes]]:
        version, blob = _encode_one(message, fmt)
        if frame_size(1, 0, len(blob)) <= max_bytes:
            return version, blob
        return None

    encoded: List[Tuple[int, bytes]] = []
    for message in messages:
        version, blob = _encode_one(message, fmt)
        size = frame_size(1, 0, len(blob))
        if size <= max_bytes:
            encoded.append((version, blob))
            continue
        parts = split_oversize(message, fits_alone)
        if parts is None:
            plan.oversize.append((message, size))
            continue
        plan.splits.append((message, size, len(parts)))
        encoded.extend((version, blob) for _part, version, blob in parts)

    # One frame carries one format; preserve order within each format.
    for wanted in _VERSIONS:
        pending: List[bytes] = []
        body = 0
        for version, blob in encoded:
            if version != wanted:
                continue
            if pending and frame_size(len(pending) + 1, body,
                                      len(blob)) > max_bytes:
                plan.datagrams.append(_assemble(wanted, sender, pending))
                pending, body = [], 0
            pending.append(blob)
            body += uvarint_len(len(blob)) + len(blob)
        if pending:
            plan.datagrams.append(_assemble(wanted, sender, pending))
    return plan
