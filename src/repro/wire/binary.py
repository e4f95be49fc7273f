"""The compact binary message codec.

One tagged binary record per protocol message type — lpbcast and
pbcast — built from varints (:mod:`repro.wire.varint`) and 8-byte IEEE
doubles for timestamps.  A gossip's ``eventIds`` digest travels
as the Sec. 3.2 per-sender structure it is: per origin a zigzag origin
delta, the frontier, and the extras beyond it as a count and ascending gaps
— O(publishers + gaps) bytes however long the streams.  Plain id lists
(retransmit requests, causal ``deps``, pbcast digests) are *runs* of ids
sharing an origin, each run a zigzag origin delta, a length, and zigzag
sequence-number deltas, so any ordering round-trips exactly.

Notification payloads are opaque to the protocol and travel as embedded
compact JSON: a tuple arrives as a list, and a payload ``json`` cannot
serialise (a set, an arbitrary object) has no binary form at all —
:func:`check_payload` is the test a runtime applies where a payload enters.
``strict_payloads=True`` (the cross-shard setting) additionally demands the
payload survive the JSON round trip *unchanged* — tuples, non-string dict
keys and NaN are refused with :class:`WireEncodeError` so the sharded
engine can fall back to pickle instead of silently altering a payload the
serial engine would have passed by reference.

Timestamps are finite: NaN or ±inf is a :class:`WireEncodeError` on the
way out and a :class:`~repro.wire.CodecError` on the way in — an
unsubscription stamped so would never become obsolete.

Decoding is total: unknown tags, truncated records, oversized varints and
trailing bytes all raise :class:`~repro.wire.CodecError`.  The common
gossip costs what it carries: an empty ``unsubs`` or ``events`` section
is one zero byte, written and tested directly, and a digest entry with no
extras decodes to ``(origin, frontier, ())`` with nothing built for the
extras.  A gossip record ends in one reserved byte that must be zero.
"""

from __future__ import annotations

import json
import math
import struct
from itertools import accumulate
from typing import List, Tuple

from ..core.events import Notification, Unsubscription
from ..core.ids import EventId
from ..core.message import (
    EchoMessage,
    GossipMessage,
    ReadyMessage,
    RetransmitRequest,
    RetransmitResponse,
    SubscriptionAck,
    SubscriptionRequest,
)
from ..pbcast.messages import PbcastData, PbcastDigest, PbcastSolicit
from .varint import (
    CodecError,
    VarintRangeError,
    read_svarint,
    read_svarint_run,
    read_uvarint,
    unzigzag,
    write_svarint,
    write_uvarint,
)


class WireEncodeError(CodecError):
    """A message has no faithful binary form (unsupported type, out-of-range
    integer, or — under ``strict_payloads`` — a payload that would not
    survive the JSON round trip unchanged)."""


# -- message tags -------------------------------------------------------------

TAG_GOSSIP = 0x01
TAG_SUB_REQUEST = 0x02
TAG_SUB_ACK = 0x03
TAG_RETR_REQUEST = 0x04
TAG_RETR_RESPONSE = 0x05
TAG_PBCAST_DATA = 0x06
TAG_PBCAST_DIGEST = 0x07
TAG_PBCAST_SOLICIT = 0x08
TAG_ECHO = 0x0E
TAG_READY = 0x0F
# Causal-delivery records: identical layout to their base tags except that
# every carried notification is followed by its dependency metadata
# (``Notification.deps``), delta-run encoded exactly like a digest.  The
# causal tag is chosen iff any carried notification has dependencies, so
# non-causal traffic — and every pre-causal golden vector — keeps its
# byte-identical encoding.
TAG_GOSSIP_CAUSAL = 0x10
TAG_RETR_RESPONSE_CAUSAL = 0x11

_F64 = struct.Struct("<d")
_isfinite = math.isfinite

#: One-byte zigzag varints decoded by lookup (the digest reader's hot case).
_UNZIGZAG_BYTE = tuple(map(unzigzag, range(0x80)))


# -- field primitives ---------------------------------------------------------

def _w_f64(buf: bytearray, value: float) -> None:
    if not _isfinite(value):
        raise WireEncodeError(f"timestamp {value!r} is not finite")
    buf += _F64.pack(value)


def _r_f64(data, pos: int) -> Tuple[float, int]:
    end = pos + 8
    if end > len(data):
        raise CodecError("truncated float64")
    value = _F64.unpack_from(data, pos)[0]
    if not _isfinite(value):
        raise CodecError(f"timestamp {value!r} is not finite")
    return value, end


def _payload_is_stable(payload) -> bool:
    """True when ``payload`` survives a JSON round trip as an equal object."""
    if payload is None or payload is True or payload is False:
        return True
    kind = type(payload)
    if kind is int or kind is str:
        return True
    if kind is float:
        return not math.isnan(payload)
    if kind is list:
        return all(_payload_is_stable(item) for item in payload)
    if kind is dict:
        return all(type(key) is str and _payload_is_stable(value)
                   for key, value in payload.items())
    return False


def _w_payload(buf: bytearray, payload, strict: bool) -> None:
    """Opaque payload: length-prefixed compact JSON; length 0 means None
    (valid JSON is never empty, so the encoding is unambiguous)."""
    if payload is None:
        write_uvarint(buf, 0)
        return
    if strict and not _payload_is_stable(payload):
        raise WireEncodeError(
            f"payload {payload!r} does not survive the JSON round trip"
        )
    try:
        raw = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireEncodeError(f"unencodable payload: {exc}") from exc
    write_uvarint(buf, len(raw))
    buf += raw


def _r_payload(data, pos: int):
    length, pos = read_uvarint(data, pos)
    if length == 0:
        return None, pos
    end = pos + length
    if end > len(data):
        raise CodecError("truncated payload")
    try:
        return json.loads(bytes(data[pos:end]).decode("utf-8")), end
    except (ValueError, UnicodeDecodeError) as exc:
        raise CodecError(f"invalid payload JSON: {exc}") from exc


def _w_pid_list(buf: bytearray, pids) -> None:
    """Process-id list as zigzag deltas from the previous entry; one-byte
    deltas are written inline, as in :func:`_w_event_ids`."""
    write_uvarint(buf, len(pids))
    append = buf.append
    previous = 0
    for pid in pids:
        delta = pid - previous
        folded = delta * 2 if delta >= 0 else -delta * 2 - 1
        if folded < 0x80:
            append(folded)
        else:
            write_uvarint(buf, folded)
        previous = pid


def _r_pid_list(data, pos: int, limit: int) -> Tuple[Tuple[int, ...], int]:
    count, pos = read_uvarint(data, pos)
    if count > limit:
        raise CodecError(f"pid list length {count} exceeds input size")
    deltas, pos = read_svarint_run(data, pos, count)
    return tuple(accumulate(deltas)), pos


def _w_event_ids(buf: bytearray, event_ids) -> None:
    """Digest encoding: runs of consecutive ids sharing an origin.

    Each run is ``(zigzag origin delta, length, zigzag seq deltas)``; the
    first seq of a run is a delta from 0, later seqs are deltas from their
    predecessor, so the in-sequence digests the paper's per-sender buffers
    maintain cost about one byte per id.  The hot loop of every gossip:
    the one-byte case is inlined, :func:`write_uvarint` takes the rest.
    """
    total = len(event_ids)
    write_uvarint(buf, total)
    append = buf.append
    previous_origin = 0
    index = 0
    while index < total:
        origin = event_ids[index][0]
        run_end = index + 1
        while run_end < total and event_ids[run_end][0] == origin:
            run_end += 1
        delta = origin - previous_origin
        folded = delta * 2 if delta >= 0 else -delta * 2 - 1
        if folded < 0x80:
            append(folded)
        else:
            write_uvarint(buf, folded)
        if run_end - index < 0x80:
            append(run_end - index)
        else:
            write_uvarint(buf, run_end - index)
        previous_seq = 0
        while index < run_end:
            seq = event_ids[index][1]
            delta = seq - previous_seq
            folded = delta * 2 if delta >= 0 else -delta * 2 - 1
            if folded < 0x80:
                append(folded)
            else:
                write_uvarint(buf, folded)
            previous_seq = seq
            index += 1
        previous_origin = origin


def _r_event_ids(data, pos: int, limit: int) -> Tuple[Tuple[EventId, ...], int]:
    """Inverse of :func:`_w_event_ids` in one pass: one-byte values are
    decoded inline; a wider one — or the end of the input, which reads as
    one here — goes to the public readers, whose truncation and 10-byte-cap
    errors therefore stay the only ones."""
    count, pos = read_uvarint(data, pos)
    if count > limit:
        raise CodecError(f"event-id list length {count} exceeds input size")
    end = len(data)
    out: List[EventId] = []
    append = out.append
    # tuple.__new__ skips the namedtuple's generated Python-level __new__.
    new, make, small = tuple.__new__, EventId, _UNZIGZAG_BYTE
    origin = 0
    remaining = count
    while remaining:
        byte = data[pos] if pos < end else 0x80
        if byte < 0x80:
            origin += small[byte]
            pos += 1
        else:
            delta, pos = read_svarint(data, pos)
            origin += delta
        byte = data[pos] if pos < end else 0x80
        if byte < 0x80:
            run_length = byte
            pos += 1
        else:
            run_length, pos = read_uvarint(data, pos)
        if run_length < 1 or run_length > remaining:
            raise CodecError(f"malformed event-id run of length {run_length}")
        remaining -= run_length
        seq = 0
        while run_length:
            byte = data[pos] if pos < end else 0x80
            if byte >= 0x80:
                deltas, pos = read_svarint_run(data, pos, run_length)
                for delta in deltas:
                    seq += delta
                    append(new(make, (origin, seq)))
                break
            seq += small[byte]
            pos += 1
            append(new(make, (origin, seq)))
            run_length -= 1
    return tuple(out), pos


def _w_digest(buf: bytearray, digest) -> None:
    """The gossip digest section: an entry count, then per origin ``zigzag
    origin delta, frontier, extras count, gaps`` — each gap the distance from
    the previous extra (the first from the frontier): it must be positive."""
    write_uvarint(buf, len(digest))
    append = buf.append
    previous_origin = 0
    for origin, frontier, extras in digest:
        delta = origin - previous_origin
        previous_origin = origin
        for value in (delta * 2 if delta >= 0 else -delta * 2 - 1,
                      frontier, len(extras)):
            if 0 <= value < 0x80:  # the usual field, as in _w_event_ids
                append(value)
            else:
                write_uvarint(buf, value)
        for seq in extras:
            if seq <= frontier:
                raise WireEncodeError(
                    f"digest extras of origin {origin} do not ascend past "
                    f"the frontier: {extras!r}")
            write_uvarint(buf, seq - frontier)
            frontier = seq


def _r_digest(data, pos: int, limit: int) -> Tuple[tuple, int]:
    """Inverse of :func:`_w_digest`, the entry's three fields decoded inline
    like :func:`_r_event_ids`; a zero gap (extras that repeat) is malformed.
    An entry with no extras — the usual one — is ``(origin, frontier, ())``
    with nothing built for its extras."""
    count, pos = read_uvarint(data, pos)
    if count > limit:
        raise CodecError(f"digest length {count} exceeds input size")
    end = len(data)
    out: List[tuple] = []
    append = out.append
    small = _UNZIGZAG_BYTE
    origin = 0
    for _ in range(count):
        byte = data[pos] if pos < end else 0x80
        if byte < 0x80:
            origin += small[byte]
            pos += 1
        else:
            delta, pos = read_svarint(data, pos)
            origin += delta
        byte = data[pos] if pos < end else 0x80
        if byte < 0x80:
            frontier = byte
            pos += 1
        else:
            frontier, pos = read_uvarint(data, pos)
        byte = data[pos] if pos < end else 0x80
        if not byte:
            pos += 1
            append((origin, frontier, ()))
            continue
        if byte < 0x80:
            beyond = byte
            pos += 1
        else:
            beyond, pos = read_uvarint(data, pos)
            if beyond > limit:
                raise CodecError(
                    f"digest extras count {beyond} exceeds input size")
        extras = []
        seq = frontier
        for _ in range(beyond):
            gap, pos = read_uvarint(data, pos)
            if not gap:
                raise CodecError(
                    f"digest extras of origin {origin} do not ascend")
            seq += gap
            extras.append(seq)
        append((origin, frontier, tuple(extras)))
    return tuple(out), pos


def _w_notification(buf: bytearray, n: Notification, strict: bool,
                    allow_deps: bool = False) -> None:
    """Base 3-field notification record.

    Dependency metadata has a binary form only inside the dissemination
    records that grew causal variants (gossip / retransmit response, tags
    0x10/0x11); every other notification-bearing record is defined on the
    deps-free form and must refuse — not silently strip — a deps-carrying
    notification, so the shard layer falls back to pickle and the frame
    layer raises instead of corrupting the causal metadata.
    """
    if n.deps and not allow_deps:
        raise WireEncodeError(
            f"notification {n.event_id} carries {len(n.deps)} causal "
            f"dependencies but this record type has no causal binary form "
            f"(only gossip and retransmit responses do)")
    write_svarint(buf, n.event_id.origin)
    write_svarint(buf, n.event_id.seq)
    _w_f64(buf, n.created_at)
    _w_payload(buf, n.payload, strict)


def _r_notification(data, pos: int) -> Tuple[Notification, int]:
    origin, pos = read_svarint(data, pos)
    seq, pos = read_svarint(data, pos)
    created_at, pos = _r_f64(data, pos)
    payload, pos = _r_payload(data, pos)
    return Notification(EventId(origin, seq), payload, created_at), pos


def _w_notifications(buf: bytearray, events, strict: bool,
                     causal: bool = False) -> None:
    """A notification list.  Under a causal tag each record is followed by
    its vector-interval dependency metadata in the digest run encoding (the
    deps tuple is sorted by origin, the run encoder's best case)."""
    write_uvarint(buf, len(events))
    for n in events:
        _w_notification(buf, n, strict, allow_deps=causal)
        if causal:
            _w_event_ids(buf, n.deps)


def _r_notifications(data, pos: int, limit: int, causal: bool = False
                     ) -> Tuple[Tuple[Notification, ...], int]:
    count, pos = read_uvarint(data, pos)
    if count > limit:
        raise CodecError(f"notification list length {count} exceeds input")
    out = []
    for _ in range(count):
        n, pos = _r_notification(data, pos)
        if causal:
            deps, pos = _r_event_ids(data, pos, limit)
            if deps:
                n = n._replace(deps=deps)
        out.append(n)
    return tuple(out), pos


def _any_deps(events) -> bool:
    return any(n.deps for n in events)


def _w_unsubs(buf: bytearray, unsubs) -> None:
    write_uvarint(buf, len(unsubs))
    for u in unsubs:
        write_svarint(buf, u.pid)
        _w_f64(buf, u.timestamp)


def _r_unsubs(data, pos: int,
              limit: int) -> Tuple[Tuple[Unsubscription, ...], int]:
    count, pos = read_uvarint(data, pos)
    if count > limit:
        raise CodecError(f"unsubscription list length {count} exceeds input")
    out = []
    for _ in range(count):
        pid, pos = read_svarint(data, pos)
        ts, pos = _r_f64(data, pos)
        out.append(Unsubscription(pid, ts))
    return tuple(out), pos


# -- per-type bodies ----------------------------------------------------------

def _enc_gossip(buf: bytearray, m: GossipMessage, strict: bool,
                causal: bool = False) -> None:
    """An empty ``unsubs`` or ``events`` section — what most gossips carry —
    is its zero count byte, appended directly.  The record ends in one
    reserved zero byte, where a heartbeat list once was."""
    write_svarint(buf, m.sender)
    _w_pid_list(buf, m.subs)
    if m.unsubs:
        _w_unsubs(buf, m.unsubs)
    else:
        buf.append(0)
    if m.events:
        _w_notifications(buf, m.events, strict, causal)
    else:
        buf.append(0)
    _w_digest(buf, m.event_ids)
    buf.append(0)


def _dec_gossip(data, pos: int, limit: int,
                causal: bool = False) -> Tuple[GossipMessage, int]:
    """Inverse of :func:`_enc_gossip`: a zero count byte is an empty section,
    one byte test (``0x80 0x00``, zero in two bytes, takes the reader); the
    reserved last byte must be exactly zero."""
    end = len(data)
    sender, pos = read_svarint(data, pos)
    subs, pos = _r_pid_list(data, pos, limit)
    if pos < end and not data[pos]:
        unsubs, pos = (), pos + 1
    else:
        unsubs, pos = _r_unsubs(data, pos, limit)
    if pos < end and not data[pos]:
        events, pos = (), pos + 1
    else:
        events, pos = _r_notifications(data, pos, limit, causal)
    event_ids, pos = _r_digest(data, pos, limit)
    if pos >= end:
        raise CodecError("truncated gossip: missing reserved byte")
    if data[pos]:
        raise CodecError(f"gossip reserved byte is {data[pos]:#04x}, not 0")
    return GossipMessage(sender=sender, subs=subs, unsubs=unsubs,
                         events=events, event_ids=event_ids), pos + 1


def _encode_body(buf: bytearray, message, strict: bool) -> None:
    kind = type(message)
    if kind is GossipMessage:
        if _any_deps(message.events):
            buf.append(TAG_GOSSIP_CAUSAL)
            _enc_gossip(buf, message, strict, causal=True)
        else:
            buf.append(TAG_GOSSIP)
            _enc_gossip(buf, message, strict)
    elif kind is SubscriptionRequest:
        buf.append(TAG_SUB_REQUEST)
        write_svarint(buf, message.subscriber)
    elif kind is SubscriptionAck:
        buf.append(TAG_SUB_ACK)
        write_svarint(buf, message.contact)
        _w_pid_list(buf, message.view_sample)
    elif kind is RetransmitRequest:
        buf.append(TAG_RETR_REQUEST)
        write_svarint(buf, message.requester)
        _w_event_ids(buf, message.event_ids)
    elif kind is RetransmitResponse:
        if _any_deps(message.events):
            buf.append(TAG_RETR_RESPONSE_CAUSAL)
            write_svarint(buf, message.responder)
            _w_notifications(buf, message.events, strict, causal=True)
        else:
            buf.append(TAG_RETR_RESPONSE)
            write_svarint(buf, message.responder)
            _w_notifications(buf, message.events, strict)
    elif kind is PbcastData:
        buf.append(TAG_PBCAST_DATA)
        write_svarint(buf, message.sender)
        _w_notification(buf, message.notification, strict)
        write_svarint(buf, message.hops)
    elif kind is PbcastDigest:
        buf.append(TAG_PBCAST_DIGEST)
        write_svarint(buf, message.sender)
        _w_event_ids(buf, message.ids)
        _w_pid_list(buf, message.subs)
        _w_unsubs(buf, message.unsubs)
    elif kind is PbcastSolicit:
        buf.append(TAG_PBCAST_SOLICIT)
        write_svarint(buf, message.requester)
        _w_event_ids(buf, message.ids)
    elif kind is EchoMessage or kind is ReadyMessage:
        buf.append(TAG_ECHO if kind is EchoMessage else TAG_READY)
        write_svarint(buf, message.sender)
        write_svarint(buf, message.event_id.origin)
        write_svarint(buf, message.event_id.seq)
        if not isinstance(message.digest, int) or message.digest < 0:
            raise WireEncodeError(
                f"echo/ready digest must be a non-negative int, "
                f"got {message.digest!r}"
            )
        write_uvarint(buf, message.digest)
    else:
        raise WireEncodeError(
            f"cannot binary-encode {type(message).__name__}"
        )


def _decode_body(data, pos: int) -> Tuple[object, int]:
    if pos >= len(data):
        raise CodecError("truncated message: missing tag byte")
    tag = data[pos]
    pos += 1
    limit = len(data)  # every list element costs >= 1 byte on the wire
    if tag == TAG_GOSSIP:
        return _dec_gossip(data, pos, limit)
    if tag == TAG_GOSSIP_CAUSAL:
        return _dec_gossip(data, pos, limit, causal=True)
    if tag == TAG_RETR_RESPONSE_CAUSAL:
        pid, pos = read_svarint(data, pos)
        events, pos = _r_notifications(data, pos, limit, causal=True)
        return RetransmitResponse(pid, events), pos
    if tag == TAG_SUB_REQUEST:
        pid, pos = read_svarint(data, pos)
        return SubscriptionRequest(pid), pos
    if tag == TAG_SUB_ACK:
        contact, pos = read_svarint(data, pos)
        sample, pos = _r_pid_list(data, pos, limit)
        return SubscriptionAck(contact, sample), pos
    if tag == TAG_RETR_REQUEST:
        pid, pos = read_svarint(data, pos)
        ids, pos = _r_event_ids(data, pos, limit)
        return RetransmitRequest(pid, ids), pos
    if tag == TAG_RETR_RESPONSE:
        pid, pos = read_svarint(data, pos)
        events, pos = _r_notifications(data, pos, limit)
        return RetransmitResponse(pid, events), pos
    if tag == TAG_PBCAST_DATA:
        sender, pos = read_svarint(data, pos)
        n, pos = _r_notification(data, pos)
        hops, pos = read_svarint(data, pos)
        return PbcastData(sender, n, hops), pos
    if tag == TAG_PBCAST_DIGEST:
        sender, pos = read_svarint(data, pos)
        ids, pos = _r_event_ids(data, pos, limit)
        subs, pos = _r_pid_list(data, pos, limit)
        unsubs, pos = _r_unsubs(data, pos, limit)
        return PbcastDigest(sender, ids, subs, unsubs), pos
    if tag == TAG_PBCAST_SOLICIT:
        pid, pos = read_svarint(data, pos)
        ids, pos = _r_event_ids(data, pos, limit)
        return PbcastSolicit(pid, ids), pos
    if tag == TAG_ECHO or tag == TAG_READY:
        sender, pos = read_svarint(data, pos)
        origin, pos = read_svarint(data, pos)
        seq, pos = read_svarint(data, pos)
        digest, pos = read_uvarint(data, pos)
        kind = EchoMessage if tag == TAG_ECHO else ReadyMessage
        return kind(sender, EventId(origin, seq), digest), pos
    raise CodecError(f"unknown binary message tag {tag:#04x}")


# -- public surface -----------------------------------------------------------

def encode_binary(message: object, strict_payloads: bool = False) -> bytes:
    """Message object → compact binary record.

    ``strict_payloads=True`` refuses (with :class:`WireEncodeError`) any
    notification payload that would not survive the embedded-JSON round
    trip as an equal object — the setting the cross-shard path uses to
    decide between the binary format and its pickle fallback.
    """
    buf = bytearray()
    try:
        _encode_body(buf, message, strict_payloads)
    except VarintRangeError as exc:
        raise WireEncodeError(str(exc)) from exc
    return bytes(buf)


def check_payload(payload) -> None:
    """Raise :class:`WireEncodeError` when no binary record can carry
    ``payload`` as a notification payload."""
    _w_payload(bytearray(), payload, False)


def decode_binary(data) -> object:
    """Binary record → message object; the whole input must be consumed."""
    message, pos = _decode_body(data, 0)
    if pos != len(data):
        raise CodecError(
            f"{len(data) - pos} trailing bytes after binary message"
        )
    return message


def wire_bytes_of(message: object) -> int:
    """Exact binary wire size of ``message`` in bytes, or ``-1`` when the
    message has no binary form (byte-accounting callers label those
    separately instead of guessing)."""
    try:
        return len(encode_binary(message))
    except CodecError:
        return -1
