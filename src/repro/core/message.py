"""Protocol messages.

A gossip message "serves four purposes" (Sec. 3.2): it carries notifications,
notification identifiers (a digest), unsubscriptions and subscriptions.  All
message types are immutable records built from tuples so that a message placed
on the simulated wire cannot be mutated by sender or receiver afterwards —
the same aliasing discipline a real serialization boundary would enforce.

Besides the gossip itself, this module defines the auxiliary messages of
Sec. 3.4 (the join handshake) and of the optional retransmission scheme that
the digests exist to support ("Older notifications are stored in a different
buffer, which is only required to satisfy retransmission requests", Sec. 3.2).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Tuple

from .events import Notification, Unsubscription
from .ids import DigestEntry, EventId, ProcessId


def payload_digest(payload) -> int:
    """Canonical 64-bit payload digest used by the double-echo variant.

    Two correct nodes that received the same payload must compute the same
    digest, so the digest is taken over sorted-key compact JSON (the wire
    codec's payload encoding); payloads outside the JSON universe fall back
    to ``repr``, which is stable for the simulators' in-process objects.
    """
    try:
        canonical = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    except (TypeError, ValueError):
        canonical = repr(payload)
    raw = hashlib.sha256(canonical.encode("utf-8")).digest()
    return int.from_bytes(raw[:8], "big")


@dataclass(frozen=True)
class GossipMessage:
    """One periodic gossip (Figure 1(b)).

    ``event_ids`` is the digest of delivered notifications, one
    :data:`~repro.core.ids.DigestEntry` per origin; under the plain Figure 1
    algorithm it is informational (and feeds retransmissions when enabled).
    """

    sender: ProcessId
    subs: Tuple[ProcessId, ...] = ()
    unsubs: Tuple[Unsubscription, ...] = ()
    events: Tuple[Notification, ...] = ()
    event_ids: Tuple[DigestEntry, ...] = ()

    def size_estimate(self) -> int:
        """Rough wire-size proxy (one unit per carried element plus header).

        Benches use this to compare per-gossip overhead across protocols and
        parameterizations; it deliberately counts elements, not bytes, since
        the paper reasons about list lengths (the digest's is the ids it names).
        """
        size = 1 + len(self.subs) + len(self.unsubs) + len(self.events)
        for _origin, frontier, extras in self.event_ids:
            size += frontier + len(extras)
        return size


@dataclass(frozen=True)
class SubscriptionRequest:
    """Join handshake (Sec. 3.4): ``subscriber`` asks an existing member to
    gossip its subscription on its behalf."""

    subscriber: ProcessId


@dataclass(frozen=True)
class SubscriptionAck:
    """Confirms that the contact accepted a :class:`SubscriptionRequest` and
    will forward the subscription.  The ack also seeds the joiner's view with
    a sample of the contact's view, which is how the joiner starts receiving
    gossips before its subscription has propagated."""

    contact: ProcessId
    view_sample: Tuple[ProcessId, ...] = ()


@dataclass(frozen=True)
class RetransmitRequest:
    """Gossip-pull solicitation: the receiver of a digest asks the digest's
    sender for notifications it has not delivered."""

    requester: ProcessId
    event_ids: Tuple[EventId, ...] = ()


@dataclass(frozen=True)
class RetransmitResponse:
    """Answer to a :class:`RetransmitRequest` with whatever notifications the
    responder still buffers (events buffer or retransmission archive)."""

    responder: ProcessId
    events: Tuple[Notification, ...] = ()


@dataclass(frozen=True)
class EchoMessage:
    """First phase of the double-echo delivery variant (Byzantine defense).

    ``sender`` vouches that it received a payload for ``event_id`` whose
    canonical digest is ``digest``.  Receivers count distinct echo senders
    per ``(event_id, digest)`` pair; an equivocating source splits its echo
    weight across digests and cannot reach quorum for two of them.
    """

    sender: ProcessId
    event_id: EventId
    digest: int


@dataclass(frozen=True)
class ReadyMessage:
    """Second phase of the double-echo variant: ``sender`` saw an echo (or
    ready) quorum for ``(event_id, digest)`` and commits to delivering that
    digest and no other.  Ready amplification lets late nodes reach the
    delivery quorum without having sampled enough echoes themselves."""

    sender: ProcessId
    event_id: EventId
    digest: int


@dataclass(frozen=True)
class Outgoing:
    """A (destination, message) pair produced by a protocol state machine.

    Nodes are transport-agnostic: handlers return ``Outgoing`` records and a
    runner (round-based or discrete-event) owns delivery, loss and latency.
    """

    destination: ProcessId
    message: object
