"""Wire codec: protocol messages ↔ JSON-able dictionaries.

The simulators pass message objects by reference; a deployment passes bytes.
This codec is the serialization boundary a real transport would use: every
protocol message (lpbcast, pbcast, logger extension, pub/sub envelope) maps
to a compact tagged dictionary and back, with full round-trip fidelity.

Payloads must themselves be JSON-serializable; the codec never inspects
them.  Unknown tags and malformed structures raise :class:`CodecError`
rather than letting a corrupted message crash a node.

This is the *debug/text* encoding.  The default wire format is the compact
binary codec of :mod:`repro.wire`, which shares :class:`CodecError` and the
message-type coverage of this module; the UDP frame layer keeps both
reachable behind a version byte.
"""

from __future__ import annotations

import json
from operator import ge
from typing import Any, Callable, Dict

from ..loggers.messages import (
    LogUpload,
    LogUploadAck,
    RecoveryRequest,
    RecoveryResponse,
)
from ..pbcast.messages import PbcastData, PbcastDigest, PbcastSolicit
from .events import Notification, Unsubscription
from .ids import EventId
from .message import (
    EchoMessage,
    GossipMessage,
    ReadyMessage,
    RetransmitRequest,
    RetransmitResponse,
    SubscriptionAck,
    SubscriptionRequest,
)


class CodecError(ValueError):
    """Raised for unknown message tags or malformed encodings."""


# -- field helpers -----------------------------------------------------------

def _enc_event_id(event_id: EventId) -> list:
    return [event_id.origin, event_id.seq]


def _dec_event_id(data) -> EventId:
    try:
        origin, seq = data
        return EventId(int(origin), int(seq))
    except (TypeError, ValueError) as exc:
        raise CodecError(f"malformed event id: {data!r}") from exc


def _dec_digest_entry(data) -> tuple:
    """One ``[origin, frontier, [extras]]`` digest entry, held to what the
    binary record can carry: extras ascend strictly past the frontier."""
    try:
        origin, frontier, extras = data
        entry = (int(origin), int(frontier), tuple(map(int, extras)))
    except (TypeError, ValueError) as exc:
        raise CodecError(f"malformed digest entry: {data!r}") from exc
    if entry[1] < 0 or any(map(ge, (entry[1],) + entry[2], entry[2])):
        raise CodecError(
            f"digest extras do not ascend past the frontier: {data!r}")
    return entry


def _enc_notification(n: Notification) -> dict:
    encoded = {"id": _enc_event_id(n.event_id), "p": n.payload,
               "t": n.created_at}
    if n.deps:
        # Causal-mode dependency metadata; absent outside causal mode so
        # pre-causal encodings stay byte-identical.
        encoded["d"] = [_enc_event_id(dep) for dep in n.deps]
    return encoded


def _dec_notification(data) -> Notification:
    try:
        return Notification(_dec_event_id(data["id"]), data.get("p"),
                            float(data.get("t", 0.0)),
                            tuple(_dec_event_id(dep)
                                  for dep in data.get("d", ())))
    except (TypeError, KeyError) as exc:
        raise CodecError(f"malformed notification: {data!r}") from exc


def _enc_unsub(u: Unsubscription) -> list:
    return [u.pid, u.timestamp]


def _dec_unsub(data) -> Unsubscription:
    try:
        pid, ts = data
        return Unsubscription(int(pid), float(ts))
    except (TypeError, ValueError) as exc:
        raise CodecError(f"malformed unsubscription: {data!r}") from exc


# -- per-type encoders ---------------------------------------------------------

def _enc_gossip(m: GossipMessage) -> dict:
    encoded = {
        "s": m.sender,
        "sub": list(m.subs),
        "uns": [_enc_unsub(u) for u in m.unsubs],
        "ev": [_enc_notification(n) for n in m.events],
        "ids": list(m.event_ids),  # (origin, frontier, extras): JSON arrays
    }
    if m.heartbeats:
        encoded["hb"] = [[pid, counter] for pid, counter in m.heartbeats]
    return encoded


def _dec_gossip(d: dict) -> GossipMessage:
    try:
        heartbeats = tuple(
            (int(pid), int(counter)) for pid, counter in d.get("hb", ())
        )
    except (TypeError, ValueError) as exc:
        raise CodecError(f"malformed heartbeats: {d.get('hb')!r}") from exc
    return GossipMessage(
        sender=int(d["s"]),
        subs=tuple(int(p) for p in d.get("sub", ())),
        unsubs=tuple(_dec_unsub(u) for u in d.get("uns", ())),
        events=tuple(_dec_notification(n) for n in d.get("ev", ())),
        event_ids=tuple(_dec_digest_entry(e) for e in d.get("ids", ())),
        heartbeats=heartbeats,
    )


_ENCODERS: Dict[type, tuple] = {
    GossipMessage: ("g", _enc_gossip),
    SubscriptionRequest: ("sr", lambda m: {"p": m.subscriber}),
    SubscriptionAck: (
        "sa", lambda m: {"c": m.contact, "v": list(m.view_sample)}
    ),
    RetransmitRequest: (
        "rq", lambda m: {"p": m.requester,
                         "ids": [_enc_event_id(e) for e in m.event_ids]}
    ),
    RetransmitResponse: (
        "rr", lambda m: {"p": m.responder,
                         "ev": [_enc_notification(n) for n in m.events]}
    ),
    EchoMessage: (
        "ec", lambda m: {"s": m.sender, "id": _enc_event_id(m.event_id),
                         "d": m.digest}
    ),
    ReadyMessage: (
        "rd", lambda m: {"s": m.sender, "id": _enc_event_id(m.event_id),
                         "d": m.digest}
    ),
    PbcastData: (
        "pd", lambda m: {"s": m.sender, "n": _enc_notification(m.notification),
                         "h": m.hops}
    ),
    PbcastDigest: (
        "pg", lambda m: {"s": m.sender,
                         "ids": [_enc_event_id(e) for e in m.ids],
                         "sub": list(m.subs),
                         "uns": [_enc_unsub(u) for u in m.unsubs]}
    ),
    PbcastSolicit: (
        "ps", lambda m: {"p": m.requester,
                         "ids": [_enc_event_id(e) for e in m.ids]}
    ),
    LogUpload: (
        "lu", lambda m: {"s": m.sender, "n": _enc_notification(m.notification)}
    ),
    LogUploadAck: (
        "la", lambda m: {"l": m.logger, "id": _enc_event_id(m.event_id)}
    ),
    RecoveryRequest: (
        "lr", lambda m: {"p": m.requester,
                         "f": [_enc_event_id(e) for e in m.frontier]}
    ),
    RecoveryResponse: (
        "lp", lambda m: {"l": m.logger,
                         "ev": [_enc_notification(n) for n in m.events],
                         "c": m.complete}
    ),
}

_DECODERS: Dict[str, Callable[[dict], Any]] = {
    "g": _dec_gossip,
    "sr": lambda d: SubscriptionRequest(int(d["p"])),
    "sa": lambda d: SubscriptionAck(
        int(d["c"]), tuple(int(p) for p in d.get("v", ()))
    ),
    "rq": lambda d: RetransmitRequest(
        int(d["p"]), tuple(_dec_event_id(e) for e in d.get("ids", ()))
    ),
    "rr": lambda d: RetransmitResponse(
        int(d["p"]), tuple(_dec_notification(n) for n in d.get("ev", ()))
    ),
    "ec": lambda d: EchoMessage(
        int(d["s"]), _dec_event_id(d["id"]), int(d["d"])
    ),
    "rd": lambda d: ReadyMessage(
        int(d["s"]), _dec_event_id(d["id"]), int(d["d"])
    ),
    "pd": lambda d: PbcastData(
        int(d["s"]), _dec_notification(d["n"]), int(d.get("h", 0))
    ),
    "pg": lambda d: PbcastDigest(
        int(d["s"]),
        tuple(_dec_event_id(e) for e in d.get("ids", ())),
        tuple(int(p) for p in d.get("sub", ())),
        tuple(_dec_unsub(u) for u in d.get("uns", ())),
    ),
    "ps": lambda d: PbcastSolicit(
        int(d["p"]), tuple(_dec_event_id(e) for e in d.get("ids", ()))
    ),
    "lu": lambda d: LogUpload(int(d["s"]), _dec_notification(d["n"])),
    "la": lambda d: LogUploadAck(int(d["l"]), _dec_event_id(d["id"])),
    "lr": lambda d: RecoveryRequest(
        int(d["p"]), tuple(_dec_event_id(e) for e in d.get("f", ()))
    ),
    "lp": lambda d: RecoveryResponse(
        int(d["l"]),
        tuple(_dec_notification(n) for n in d.get("ev", ())),
        bool(d.get("c", True)),
    ),
}


def encode_message(message: object) -> dict:
    """Message object → tagged JSON-able dictionary."""
    entry = _ENCODERS.get(type(message))
    if entry is None:
        # Pub/sub envelopes nest another message; import lazily to avoid a
        # package cycle (pubsub imports core).
        from ..pubsub.peer import TopicEnvelope
        if isinstance(message, TopicEnvelope):
            if not isinstance(message.topic, str):
                raise CodecError(
                    f"envelope topic must be a string, "
                    f"got {type(message.topic).__name__}"
                )
            return {"@": "te", "topic": message.topic,
                    "inner": encode_message(message.inner)}
        raise CodecError(f"cannot encode {type(message).__name__}")
    tag, encoder = entry
    encoded = encoder(message)
    encoded["@"] = tag
    return encoded


def decode_message(data: dict) -> object:
    """Tagged dictionary → message object."""
    if not isinstance(data, dict) or "@" not in data:
        raise CodecError(f"not a tagged message: {data!r}")
    tag = data["@"]
    if not isinstance(tag, str):
        # An unhashable or non-string tag (e.g. {"@": []}) must be a codec
        # error, not a TypeError from the registry lookup.
        raise CodecError(f"invalid message tag {tag!r}")
    if tag == "te":
        from ..pubsub.peer import TopicEnvelope
        try:
            topic = data["topic"]
            inner = data["inner"]
        except KeyError as exc:
            raise CodecError(f"malformed envelope: {data!r}") from exc
        if not isinstance(topic, str):
            # A non-string topic (e.g. a dict, or None) would build an
            # envelope no peer's topic table can match and no re-encode
            # could round-trip — reject it at the boundary instead.
            raise CodecError(
                f"envelope topic must be a string, got {topic!r}"
            )
        return TopicEnvelope(topic, decode_message(inner))
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise CodecError(f"unknown message tag {tag!r}")
    try:
        return decoder(data)
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed {tag!r} message: {data!r}") from exc


def to_json(message: object) -> str:
    """Message object → JSON string (the wire format)."""
    return json.dumps(encode_message(message), separators=(",", ":"))


def from_json(text: str) -> object:
    """JSON string → message object."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"invalid JSON: {exc}") from exc
    return decode_message(data)


def wire_size(message: object, fmt: str = "json") -> int:
    """Serialized size in bytes — a concrete alternative to the element
    counts of :meth:`GossipMessage.size_estimate`.

    ``fmt="json"`` sizes this codec's text encoding; ``fmt="binary"`` the
    compact codec of :mod:`repro.wire` (the default datagram and
    cross-shard format).
    """
    if fmt == "json":
        return len(to_json(message).encode("utf-8"))
    if fmt == "binary":
        from ..wire import encode_binary
        return len(encode_binary(message))
    raise ValueError(f"unknown wire format {fmt!r}")
