"""The pbcast (Bimodal Multicast) baseline with pluggable membership.

Bimodal Multicast (Birman et al., TOCS 1999; paper Sec. 2.3) works in two
phases:

1. an **unreliable first phase** — "a 'classical' best-effort multicast
   protocol (e.g., IP multicast) is used for a first rough dissemination of
   messages";
2. a **gossip repair phase** — "every process in the system periodically
   gossips a digest of its received messages, and gossip receivers can
   solicit such messages from the sender if they have not received them
   previously" (gossip pull).

Unlike lpbcast, pbcast bounds both the number of *repetitions* (a message is
only gossiped about for a limited number of rounds after receipt) and the
number of *hops* (a copy that has been retransmitted too many times is no
longer served).  Those two bounds are why, at equal fanout, lpbcast spreads
at least as fast (Fig. 7(a)) — its digests re-advertise an event for as long
as the id stays buffered.

Membership is pluggable (paper Sec. 6.2): a
:class:`~repro.membership.layer.TotalMembership` gives the original pbcast;
a :class:`~repro.membership.layer.PartialViewMembership` gives "pbcast with
partial view", with membership information piggybacked on the digest gossips
exactly as the membership layer prescribes.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.buffers import FifoBuffer
from ..core.events import Notification
from ..core.ids import EventId, ProcessId
from ..core.message import Outgoing
from ..membership.layer import PartialViewMembership, TotalMembership
from .config import FIRST_PHASE_MULTICAST, PbcastConfig
from .messages import PbcastData, PbcastDigest, PbcastSolicit

DeliveryListener = Callable[[ProcessId, Notification, float], None]

MulticastOracle = Callable[[], Iterable[ProcessId]]
"""Returns the destinations of the first-phase multicast.

IP multicast reaches every group member regardless of any process's local
membership view, so the runner supplies the ground-truth member list; when no
oracle is set, the node falls back to the processes it knows about.
"""


@dataclass
class PbcastStats:
    published: int = 0
    delivered: int = 0
    duplicates: int = 0
    digests_sent: int = 0
    digests_received: int = 0
    solicits_sent: int = 0
    solicits_received: int = 0
    retransmissions_served: int = 0
    hop_limit_refusals: int = 0
    first_phase_sends: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class _StoredMessage:
    """A buffered message copy with its gossip bookkeeping."""

    __slots__ = ("notification", "hops", "received_tick")

    def __init__(self, notification: Notification, hops: int, received_tick: int) -> None:
        self.notification = notification
        self.hops = hops
        self.received_tick = received_tick


class PbcastNode:
    """One pbcast process with a pluggable membership provider."""

    def __init__(
        self,
        pid: ProcessId,
        config: Optional[PbcastConfig] = None,
        rng: Optional[random.Random] = None,
        membership=None,
        initial_view: Iterable[ProcessId] = (),
    ) -> None:
        self.pid = pid
        self.config = config if config is not None else PbcastConfig()
        self.rng = rng if rng is not None else random.Random()
        cfg = self.config

        if membership is not None:
            self.membership = membership
        else:
            self.membership = PartialViewMembership(
                owner=pid,
                view_max=cfg.view_max,
                subs_max=cfg.subs_max,
                unsubs_max=cfg.unsubs_max,
                unsub_ttl=cfg.unsub_ttl,
                rng=self.rng,
                initial_view=initial_view,
            )

        self.event_ids: FifoBuffer[EventId] = FifoBuffer(cfg.event_ids_max)
        self._store: "OrderedDict[EventId, _StoredMessage]" = OrderedDict()
        self._multicast_oracle: Optional[MulticastOracle] = None
        self.stats = PbcastStats()
        self._listeners: List[DeliveryListener] = []
        self._next_seq = 0
        self._tick_count = 0

    # -- construction helpers -------------------------------------------------
    @classmethod
    def with_total_view(
        cls,
        pid: ProcessId,
        members: Iterable[ProcessId],
        config: Optional[PbcastConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> "PbcastNode":
        """The original pbcast: complete membership knowledge."""
        rng = rng if rng is not None else random.Random()
        membership = TotalMembership(pid, members, rng)
        return cls(pid, config, rng, membership=membership)

    def set_multicast_oracle(self, oracle: MulticastOracle) -> None:
        self._multicast_oracle = oracle

    def add_delivery_listener(self, listener: DeliveryListener) -> None:
        self._listeners.append(listener)

    @property
    def view(self):
        """The membership's current knowledge (partial view or total set);
        exposed under the same name as lpbcast for the metrics layer."""
        return self.membership.known_processes()

    # -- application interface --------------------------------------------------
    def multicast(self, payload=None, now: float = 0.0) -> Notification:
        """Publish a message: deliver locally, run the first phase (if
        configured), and start gossiping about it."""
        self._next_seq += 1
        notification = Notification(EventId(self.pid, self._next_seq), payload, now)
        self.stats.published += 1
        self._accept(notification, hops=0, now=now)
        return notification

    def first_phase_targets(self) -> List[ProcessId]:
        if self._multicast_oracle is not None:
            return [pid for pid in self._multicast_oracle() if pid != self.pid]
        return [pid for pid in self.membership.known_processes() if pid != self.pid]

    def emit_first_phase(self, notification: Notification) -> List[Outgoing]:
        """The unreliable best-effort multicast (phase 1).  Returned messages
        are subject to the runner's loss model — exactly the "first rough
        dissemination"."""
        if self.config.first_phase != FIRST_PHASE_MULTICAST:
            return []
        out = [
            Outgoing(target, PbcastData(self.pid, notification, hops=0))
            for target in self.first_phase_targets()
        ]
        self.stats.first_phase_sends += len(out)
        return out

    def publish(self, payload=None, now: float = 0.0) -> Tuple[Notification, List[Outgoing]]:
        """Convenience: :meth:`multicast` plus the phase-1 sends."""
        notification = self.multicast(payload, now)
        return notification, self.emit_first_phase(notification)

    # -- message handling ---------------------------------------------------------
    def handle_message(self, sender: ProcessId, message, now: float) -> List[Outgoing]:
        if isinstance(message, PbcastDigest):
            return self.on_digest(message, now)
        if isinstance(message, PbcastData):
            return self.on_data(message, now)
        if isinstance(message, PbcastSolicit):
            return self.on_solicit(message, now)
        raise TypeError(f"unknown message type: {type(message).__name__}")

    def on_digest(self, digest: PbcastDigest, now: float) -> List[Outgoing]:
        """Second phase, receiver side: merge membership, solicit missing."""
        if digest.sender == self.pid:
            return []  # defensive: never solicit oneself
        self.stats.digests_received += 1
        self.membership.apply_membership(digest.subs, digest.unsubs, now)
        missing = [
            event_id
            for event_id in digest.ids
            if event_id not in self.event_ids
        ][: self.config.solicit_max]
        if not missing:
            return []
        self.stats.solicits_sent += 1
        return [Outgoing(digest.sender, PbcastSolicit(self.pid, tuple(missing)))]

    def on_solicit(self, solicit: PbcastSolicit, now: float) -> List[Outgoing]:
        """Serve retransmissions, respecting the hop limit."""
        self.stats.solicits_received += 1
        if solicit.requester == self.pid:
            return []  # a self-addressed (stray or forged) solicit: never
            # answer — a node must not send messages to itself
        out: List[Outgoing] = []
        for event_id in solicit.ids:
            stored = self._store.get(event_id)
            if stored is None:
                continue
            if stored.hops >= self.config.hop_limit:
                self.stats.hop_limit_refusals += 1
                continue
            self.stats.retransmissions_served += 1
            out.append(
                Outgoing(
                    solicit.requester,
                    PbcastData(self.pid, stored.notification, stored.hops + 1),
                )
            )
        return out

    def on_data(self, data: PbcastData, now: float) -> List[Outgoing]:
        """A message copy arrived (phase 1 or retransmission)."""
        if data.notification.event_id in self.event_ids:
            self.stats.duplicates += 1
            return []
        self._accept(data.notification, data.hops, now)
        return []

    def _accept(self, notification: Notification, hops: int, now: float) -> None:
        self.stats.delivered += 1
        for listener in self._listeners:
            listener(self.pid, notification, now)
        self.event_ids.add(notification.event_id)
        self._store[notification.event_id] = _StoredMessage(
            notification, hops, self._tick_count
        )
        while len(self._store) > self.config.message_buffer_max:
            self._store.popitem(last=False)

    # -- periodic gossip -------------------------------------------------------------
    def on_tick(self, now: float) -> List[Outgoing]:
        """Gossip a digest of recently received messages to F targets."""
        self._tick_count += 1
        self.membership.purge(now)
        gossipable = self._gossipable_ids()
        subs, unsubs = self.membership.membership_payload(now)
        digest = PbcastDigest(self.pid, gossipable, subs=subs, unsubs=unsubs)
        targets = self.membership.gossip_targets(self.config.fanout)
        if targets:
            self.stats.digests_sent += 1
        return [Outgoing(target, digest) for target in targets]

    def _gossipable_ids(self) -> Tuple[EventId, ...]:
        """Ids still within the repetition window.

        "(1) the latter algorithm limits the number of hops as well as
        (2) repetitions for a given message" — a message received at tick t
        appears in digests only until tick t + repetition_limit.
        """
        horizon = self._tick_count - self.config.repetition_limit
        return tuple(
            event_id
            for event_id, stored in self._store.items()
            if stored.received_tick >= horizon
        )

    # -- introspection ------------------------------------------------------------------
    def has_delivered(self, event_id: EventId) -> bool:
        return event_id in self.event_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PbcastNode(pid={self.pid}, membership={type(self.membership).__name__}, "
            f"delivered={self.stats.delivered})"
        )
