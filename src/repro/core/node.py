"""The lpbcast protocol state machine — a faithful rendering of Figure 1.

A :class:`LpbcastNode` is transport-agnostic: incoming messages arrive through
:meth:`LpbcastNode.handle_message` and the periodic gossip is triggered by
:meth:`LpbcastNode.on_tick`; both return :class:`~repro.core.message.Outgoing`
records that a runner (synchronous rounds per Sec. 5.1, or the discrete-event
runtime standing in for the Sec. 5.2 testbed) delivers subject to loss,
latency and crashes.  This mirrors the paper's methodology of running the
*same* algorithm under simulation and deployment.

Reception follows the three phases of Figure 1(a) in order:

I.   unsubscriptions update ``view`` and ``unSubs`` (random truncation);
II.  subscriptions update ``view``; overflow evictees are recycled into
     ``subs`` (random truncation);
III. fresh notifications are delivered, recorded in ``eventIds`` (per sender,
     Sec. 3.2) and staged in ``events`` (random-drop) for forwarding.

Phases I–II are delegated to
:class:`~repro.membership.layer.PartialViewMembership` — the paper presents
the algorithm "as a monolithical algorithm ... to emphasize the possibility
of dealing with membership and event dissemination at the same level", but
notes (Sec. 6.2) that the membership is a separable layer; the code expresses
the separation while the node preserves the monolithic phase ordering.

Emission follows Figure 1(b): every period the node ships its ``subs`` plus
its own id, its ``unSubs``, the staged ``events`` (cleared afterwards — every
notification is gossiped at most once per process) and its ``eventIds``
digest (an entry per origin: O(publishers + gaps) to send and to read), to
``F`` targets drawn uniformly from ``view``.

Optional behaviours, each mapped to a section of the paper, are switched from
:class:`~repro.core.config.LpbcastConfig`: weighted views (Sec. 6.1),
membership gossip frequency (Sec. 6.1) and digest-driven retransmissions
(Sec. 3.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

from ..membership.layer import PartialViewMembership
from .buffers import (
    CompactEventIdDigest,
    FrequencyAwareEventBuffer,
    RandomDropBuffer,
)
from .config import LpbcastConfig
from .delivery import CausalDeliveryGate
from .events import Notification
from .ids import EventId, ProcessId
from .message import (
    EchoMessage,
    GossipMessage,
    Outgoing,
    ReadyMessage,
    RetransmitRequest,
    RetransmitResponse,
    SubscriptionAck,
    SubscriptionRequest,
    payload_digest,
)
from .retransmit import NotificationArchive, RetransmissionEngine
from .subscription import JoinState

DeliveryListener = Callable[[ProcessId, Notification, float], None]
"""Callback invoked as ``listener(pid, notification, now)`` on LPB-DELIVER."""


def _notification_key(notification: Notification) -> EventId:
    """Buffer identity of a staged notification (module-level so node state
    stays picklable — the sharded round engine ships nodes across
    processes)."""
    return notification.event_id


@dataclass
class NodeStats:
    """Per-node protocol counters, used by metrics and assertions."""

    published: int = 0
    delivered: int = 0
    duplicates: int = 0
    gossips_sent: int = 0
    gossips_received: int = 0
    events_dropped: int = 0
    event_ids_evicted: int = 0
    retransmit_requests_sent: int = 0
    retransmit_requests_received: int = 0
    retransmits_served: int = 0
    retransmits_delivered: int = 0
    join_requests_sent: int = 0
    join_requests_served: int = 0
    echoes_sent: int = 0
    echoes_received: int = 0
    readies_sent: int = 0
    readies_received: int = 0
    echo_pending_evicted: int = 0
    causal_held_back: int = 0
    causal_evicted: int = 0
    causal_deps_solicited: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class LpbcastNode:
    """One lpbcast process :math:`p_i`.

    Parameters
    ----------
    pid:
        This process's identifier.
    config:
        Protocol parameters (F, l, buffer bounds, ...).
    rng:
        Private random stream; pass a seeded ``random.Random`` for
        reproducible runs.  Each node must have its own stream.
    initial_view:
        Bootstrap contents of ``view`` (e.g. from the runner's topology
        builder or a :class:`~repro.membership.bootstrap.PriorityProcessSet`).
    """

    def __init__(
        self,
        pid: ProcessId,
        config: Optional[LpbcastConfig] = None,
        rng: Optional[random.Random] = None,
        initial_view: Iterable[ProcessId] = (),
    ) -> None:
        self.pid = pid
        self.config = config if config is not None else LpbcastConfig()
        self.rng = rng if rng is not None else random.Random()
        cfg = self.config

        self.membership = PartialViewMembership(
            owner=pid,
            view_max=cfg.view_max,
            subs_max=cfg.subs_max,
            unsubs_max=cfg.unsubs_max,
            unsub_ttl=cfg.unsub_ttl,
            rng=self.rng,
            weighted=cfg.weighted_views,
            initial_view=initial_view,
        )

        if cfg.weighted_events:
            self.events = FrequencyAwareEventBuffer(cfg.events_max, self.rng)
        else:
            self.events = RandomDropBuffer(
                cfg.events_max, self.rng, key=_notification_key
            )
        self.event_ids = CompactEventIdDigest(cfg.event_ids_max)

        self.archive = NotificationArchive(cfg.archive_max)
        self.retransmitter = RetransmissionEngine(
            cfg.retransmit_request_max, pending_ttl=4 * cfg.gossip_period
        )

        # Hot-path flags resolved once: reception/delivery run per message,
        # and isinstance dispatch on buffer variants is measurable at scale.
        self._weighted_events = cfg.weighted_events
        self._archiving = cfg.retransmissions or cfg.push_back
        self._double_echo = cfg.double_echo
        self._causal_mode = cfg.causal_delivery
        # The causal hold-back queue is pure data (no callbacks, no RNG), so
        # node state stays picklable for the sharded engine.
        self.causal: Optional[CausalDeliveryGate] = (
            CausalDeliveryGate(cfg.causal_holdback_max)
            if cfg.causal_delivery else None
        )
        # Double-echo quorum state, keyed by event id; each entry tracks the
        # held payload (if any), its digest, whether this node has echoed /
        # gone ready, and per-digest echo/ready sender sets.  Insertion order
        # doubles as the eviction order (oldest pending event first).
        self._echo_pending: dict = {}

        self.stats = NodeStats()
        self._listeners: List[DeliveryListener] = []
        self._next_seq = 0
        self._tick_count = 0
        self._join: Optional[JoinState] = None

    # -- views over the membership layer (the paper's variable names) -------
    @property
    def view(self):
        """The bounded partial ``view`` (Sec. 3.2)."""
        return self.membership.view

    @property
    def subs(self):
        """Pending subscriptions to forward (``subs``)."""
        return self.membership.subs

    @property
    def unsubs(self):
        """Pending unsubscriptions to forward (``unSubs``)."""
        return self.membership.unsubs

    @property
    def unsubscribed(self) -> bool:
        return self.membership.unsubscribed

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def add_delivery_listener(self, listener: DeliveryListener) -> None:
        """Register a callback for every LPB-DELIVER."""
        self._listeners.append(listener)

    def lpb_cast(self, payload=None, now: float = 0.0) -> Notification:
        """Publish a notification (``upon LPB-CAST(e): events <- events U {e}``).

        The publisher also delivers its own notification locally (it counts
        as the first infected process, :math:`s_0 = 1` in Sec. 4.2) and
        records the id so later copies are recognized as duplicates.
        """
        if self.unsubscribed:
            raise RuntimeError(f"process {self.pid} has unsubscribed")
        self._next_seq += 1
        event_id = EventId(self.pid, self._next_seq)
        if self._causal_mode:
            # Stamp the local frontier *before* the new event enters it: the
            # vector-interval dependency metadata of the causal mode.
            deps = self.causal.publish_deps()
            notification = Notification(event_id, payload, now, deps)
            self.stats.published += 1
            self._record_receipt(notification)
            released, _ = self.causal.offer(notification)
            for ready in released:  # own event is always causally ready
                self._deliver(ready, now, record_id=False)
            return notification
        notification = Notification(event_id, payload, now)
        self.stats.published += 1
        self._deliver(notification, now)
        self._stage_for_forwarding(notification)
        return notification

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, sender: ProcessId, message, now: float) -> List[Outgoing]:
        """Single entry point used by runners; dispatches on message type."""
        if isinstance(message, GossipMessage):
            return self.on_gossip(message, now)
        if isinstance(message, SubscriptionRequest):
            return self.on_subscription_request(message, now)
        if isinstance(message, SubscriptionAck):
            return self.on_subscription_ack(message, now)
        if isinstance(message, RetransmitRequest):
            return self.on_retransmit_request(message, now)
        if isinstance(message, RetransmitResponse):
            return self.on_retransmit_response(message, now)
        if isinstance(message, EchoMessage):
            return self.on_echo(message, now)
        if isinstance(message, ReadyMessage):
            return self.on_ready(message, now)
        raise TypeError(f"unknown message type: {type(message).__name__}")

    # ------------------------------------------------------------------
    # Gossip reception — Figure 1(a)
    # ------------------------------------------------------------------
    def on_gossip(self, gossip: GossipMessage, now: float) -> List[Outgoing]:
        """Process one incoming gossip through phases I–III."""
        if gossip.sender == self.pid:
            return []  # defensive: a node never processes its own gossip
        self.stats.gossips_received += 1
        if self._join is not None:
            self._join.on_gossip_received()

        # Phases I and II (membership layer), then phase III (events).
        self.membership.apply_membership(gossip.subs, gossip.unsubs, now)
        out: List[Outgoing] = []
        if self._double_echo:
            self._phase3_double_echo(gossip, now, out)
        elif self._causal_mode:
            self._phase3_causal(gossip, now, out)
        else:
            self._phase3_notifications(gossip, now)

        if self.config.retransmissions and gossip.event_ids:
            # ``missing`` read the digest against the store already.
            missing = self.retransmitter.select_missing(
                self.event_ids.missing(gossip.event_ids), (), now
            )
            if missing:
                self.stats.retransmit_requests_sent += 1
                out.append(
                    Outgoing(
                        gossip.sender,
                        RetransmitRequest(self.pid, tuple(missing)),
                    )
                )
        if self.config.push_back:
            pushed = self._push_back(gossip)
            if pushed:
                out.append(
                    Outgoing(gossip.sender,
                             RetransmitResponse(self.pid, tuple(pushed)))
                )
        return out

    def _push_back(self, gossip: GossipMessage) -> List[Notification]:
        """Gossip push (Sec. 2.3 fn. 5): send the sender retransmittable
        notifications its digest shows it is missing.  A digest split
        across datagrams shows only part of what the sender has, so this may
        over-push; the receiver's own duplicate detection absorbs it."""
        sender_has = {origin: (frontier, extras)
                      for origin, frontier, extras in gossip.event_ids}

        def lacks(event_id: EventId) -> bool:
            frontier, extras = sender_has.get(event_id[0], (0, ()))
            return event_id[1] > frontier and event_id[1] not in extras

        pushed: List[Notification] = []
        pushed_ids: set = set()
        budget = self.config.retransmit_request_max
        for notification in self.events:
            if len(pushed) >= budget:
                return pushed
            event_id = notification.event_id
            if lacks(event_id):
                pushed.append(notification)
                pushed_ids.add(event_id)
        for event_id in self.archive:
            if len(pushed) >= budget:
                break
            if lacks(event_id) and event_id not in pushed_ids:
                notification = self.archive.get(event_id)
                if notification is not None:
                    pushed.append(notification)
                    pushed_ids.add(event_id)
        return pushed

    def _phase3_notifications(self, gossip: GossipMessage, now: float) -> None:
        """Phase 3: deliver fresh notifications and stage them for forwarding.

        With ``digest_implies_delivery`` (the paper's Sec. 5.2 measurement
        mode, the default), an unknown id in the gossip's ``eventIds`` digest
        also counts as a delivery: the digest keeps re-advertising an event
        every round while it stays buffered, which is what makes repetitions
        unlimited and lets the epidemic match the Sec. 4 analysis.  The
        synthetic notification carries no payload and is *not* staged into
        ``events`` (only its identity spreads, through this node's own future
        digests).
        """
        weighted_events = self._weighted_events
        event_ids = self.event_ids
        carried = gossip.events
        if carried and not weighted_events:
            # The known leave in one pass (Sec. 6.1 notes them one by one).
            carried = event_ids.unseen(carried)
            self.stats.duplicates += len(gossip.events) - len(carried)
        for notification in carried:
            if notification.event_id in event_ids:  # known, or carried twice
                self.stats.duplicates += 1
                if weighted_events:
                    # Sec. 6.1 applied to events: a duplicate is evidence the
                    # notification is already widely held.
                    self.events.note_seen(notification.event_id)
                continue
            self._deliver(notification, now)
            self._stage_for_forwarding(notification)
            self.retransmitter.on_received(notification.event_id)
        if not self.config.digest_implies_delivery:
            return
        # The usual reception names nothing new: no turns.
        for event_id in event_ids.missing(gossip.event_ids):
            if event_id in event_ids:
                continue  # named twice, or folded over earlier in this walk
            # The synthetic notification stands in for a payload this
            # node never received: it must not enter the retransmission
            # archive, or a later retransmission / push-back could serve
            # a ``payload=None`` ghost in place of the real event.
            self._deliver(Notification(event_id, None, now), now,
                          archivable=False)

    def _deliver(self, notification: Notification, now: float,
                 archivable: bool = True, record_id: bool = True) -> None:
        """LPB-DELIVER: hand the notification to the application and record
        its id (for good).  ``archivable=False`` marks synthetic
        digest-implied deliveries, which carry no payload worth serving.
        ``record_id=False`` marks causal-mode releases, whose ids (and
        archive copies) were already recorded at *receipt* by
        :meth:`_record_receipt` — delivery only waited on the gate."""
        self.stats.delivered += 1
        if self._listeners:
            for listener in self._listeners:
                listener(self.pid, notification, now)
        if record_id:
            written_off = self.event_ids.add(notification.event_id)
            if written_off:
                self.stats.event_ids_evicted += written_off
            if archivable and self._archiving:
                self.archive.add(notification)

    def _stage_for_forwarding(self, notification: Notification) -> None:
        """Add to ``events`` and enforce its bound (random drop).  A dropped
        notification was delivered locally but will never be forwarded by
        this process — the overload effect probed in Fig. 6."""
        self.events.add(notification)
        dropped = self.events.truncate()
        self.stats.events_dropped += len(dropped)

    # ------------------------------------------------------------------
    # Causal delivery — hold-back ordering variant
    # ------------------------------------------------------------------
    def _phase3_causal(self, gossip: GossipMessage, now: float,
                       out: List[Outgoing]) -> None:
        """Phase III under ``causal_delivery``: like double echo, the payload
        keeps riding the epidemic — on first receipt it is recorded, staged
        for forwarding and archived — but LPB-DELIVER waits until the
        hold-back gate's frontier covers the event's dependencies.  Missing
        dependencies are solicited from the gossip sender through the normal
        retransmission machinery (the sender delivered the event, so under
        causal delivery it also holds — or held — everything the event
        depends on)."""
        weighted_events = self._weighted_events
        for notification in gossip.events:
            if notification.event_id in self.event_ids:
                self.stats.duplicates += 1
                if weighted_events:
                    self.events.note_seen(notification.event_id)
                continue
            self._causal_receive(notification, now, gossip.sender, out)

    def _causal_receive(self, notification: Notification, now: float,
                        solicit_from: ProcessId, out: List[Outgoing]) -> None:
        """Record one fresh notification and run it through the causal gate,
        delivering whatever becomes ready and soliciting missing
        dependencies from ``solicit_from``."""
        self._record_receipt(notification)
        released, missing = self.causal.offer(notification)
        self.stats.causal_held_back = self.causal.held_back_total
        self.stats.causal_evicted = self.causal.evicted
        for ready in released:
            self._deliver(ready, now, record_id=False)
        if missing and self.config.retransmissions:
            wanted = self.retransmitter.select_missing(
                tuple(missing), self.event_ids, now
            )
            if wanted:
                self.stats.retransmit_requests_sent += 1
                self.stats.causal_deps_solicited += len(wanted)
                out.append(
                    Outgoing(
                        solicit_from,
                        RetransmitRequest(self.pid, tuple(wanted)),
                    )
                )

    def _record_receipt(self, notification: Notification) -> None:
        """Causal mode: record a notification at *receipt* — id digest,
        forwarding stage, retransmission archive and pending-request clear —
        so its identity and payload keep spreading while delivery waits on
        the gate."""
        written_off = self.event_ids.add(notification.event_id)
        if written_off:
            self.stats.event_ids_evicted += written_off
        if self._archiving:
            self.archive.add(notification)
        self._stage_for_forwarding(notification)
        self.retransmitter.on_received(notification.event_id)

    # ------------------------------------------------------------------
    # Double-echo delivery — Byzantine-tolerant variant
    # ------------------------------------------------------------------
    def _phase3_double_echo(self, gossip: GossipMessage, now: float,
                            out: List[Outgoing]) -> None:
        """Phase III under ``double_echo``: payloads are held back until a
        sampled Echo quorum and then a Ready quorum certify a single digest
        per event id (Bracha's double echo, sample-based as in "Scalable
        Byzantine Reliable Broadcast").  The payload still rides the normal
        gossip stream — it is staged for forwarding on first receipt — so
        dissemination keeps its epidemic shape; only *delivery* waits.  An
        equivocating source splits its victims' echoes across digests, so at
        most one digest can reach quorum and no two correct nodes deliver
        different payloads for one event id."""
        for notification in gossip.events:
            if notification.event_id in self.event_ids:
                self.stats.duplicates += 1
                continue
            self._echo_note_payload(notification, now, out)

    def _echo_entry(self, event_id: EventId) -> dict:
        entry = self._echo_pending.get(event_id)
        if entry is None:
            if len(self._echo_pending) >= self.config.echo_pending_max:
                oldest = next(iter(self._echo_pending))
                del self._echo_pending[oldest]
                self.stats.echo_pending_evicted += 1
            entry = {"payload": None, "digest": None, "echoed": False,
                     "ready": None, "echoes": {}, "readies": {}}
            self._echo_pending[event_id] = entry
        return entry

    def _echo_note_payload(self, notification: Notification, now: float,
                           out: List[Outgoing]) -> None:
        entry = self._echo_entry(notification.event_id)
        if entry["payload"] is None:
            entry["payload"] = notification
            entry["digest"] = payload_digest(notification.payload)
            self._stage_for_forwarding(notification)
        if not entry["echoed"]:
            # Echo exactly once per event id — the digest of the *first*
            # copy received.  Echoing later variants too would let an
            # equivocating source drive two digests to quorum.
            entry["echoed"] = True
            digest = entry["digest"]
            echo = EchoMessage(self.pid, notification.event_id, digest)
            targets = self.membership.gossip_targets(self.config.echo_fanout)
            for target in targets:
                out.append(Outgoing(target, echo))
            if targets:
                self.stats.echoes_sent += 1
            self._echo_register(self.pid, notification.event_id, digest,
                                now, out)
        self._maybe_echo_deliver(notification.event_id, now)

    def on_echo(self, echo: EchoMessage, now: float) -> List[Outgoing]:
        """Count one echo vote; a quorum for a digest triggers Ready."""
        if not self._double_echo or echo.event_id in self.event_ids:
            return []
        self.stats.echoes_received += 1
        out: List[Outgoing] = []
        self._echo_register(echo.sender, echo.event_id, echo.digest, now, out)
        return out

    def on_ready(self, ready: ReadyMessage, now: float) -> List[Outgoing]:
        """Count one ready vote; quorum amplifies and eventually delivers."""
        if not self._double_echo or ready.event_id in self.event_ids:
            return []
        self.stats.readies_received += 1
        out: List[Outgoing] = []
        self._ready_register(ready.sender, ready.event_id, ready.digest,
                             now, out)
        return out

    def _echo_register(self, sender: ProcessId, event_id: EventId,
                       digest: int, now: float, out: List[Outgoing]) -> None:
        entry = self._echo_entry(event_id)
        senders = entry["echoes"].setdefault(digest, set())
        if sender in senders:
            return
        senders.add(sender)
        if entry["ready"] is None \
                and len(senders) >= self.config.echo_threshold:
            self._go_ready(entry, event_id, digest, now, out)

    def _ready_register(self, sender: ProcessId, event_id: EventId,
                        digest: int, now: float, out: List[Outgoing]) -> None:
        entry = self._echo_entry(event_id)
        senders = entry["readies"].setdefault(digest, set())
        if sender in senders:
            return
        senders.add(sender)
        if entry["ready"] is None \
                and len(senders) >= self.config.ready_threshold:
            # Ready amplification: a ready quorum is as convincing as an
            # echo quorum and lets under-sampled nodes catch up.
            self._go_ready(entry, event_id, digest, now, out)
        self._maybe_echo_deliver(event_id, now)

    def _go_ready(self, entry: dict, event_id: EventId, digest: int,
                  now: float, out: List[Outgoing]) -> None:
        entry["ready"] = digest
        ready = ReadyMessage(self.pid, event_id, digest)
        targets = self.membership.gossip_targets(self.config.echo_fanout)
        for target in targets:
            out.append(Outgoing(target, ready))
        if targets:
            self.stats.readies_sent += 1
        self._ready_register(self.pid, event_id, digest, now, out)

    def _maybe_echo_deliver(self, event_id: EventId, now: float) -> None:
        """Deliver once the held payload's digest has a ready quorum."""
        entry = self._echo_pending.get(event_id)
        if entry is None or entry["payload"] is None:
            return
        senders = entry["readies"].get(entry["digest"], ())
        if len(senders) < self.config.ready_threshold:
            return
        notification = entry["payload"]
        del self._echo_pending[event_id]
        self._deliver(notification, now)
        self.retransmitter.on_received(event_id)

    # ------------------------------------------------------------------
    # Periodic gossip emission — Figure 1(b)
    # ------------------------------------------------------------------
    def on_tick(self, now: float) -> List[Outgoing]:
        """Emit the periodic gossip(s); called every T by the runner.

        "This is done even if the process has not received any new
        notifications since it last sent a gossip message" — empty gossips
        still carry digests and membership and keep views uniform.
        """
        cfg = self.config
        self._tick_count += 1
        out: List[Outgoing] = []

        if self._join is not None and self._join.should_retry(now):
            out.extend(self._emit_join_request(now))

        self.membership.purge(now)

        include_membership = (self._tick_count % cfg.membership_period) == 0
        gossip = self._build_gossip(now, include_membership)
        targets = self.membership.gossip_targets(cfg.fanout)
        for target in targets:
            out.append(Outgoing(target, gossip))
        if targets:
            self.stats.gossips_sent += 1
        # "events <- empty" after sending (each notification forwarded once).
        self.events.clear()

        # Sec. 6.1: gossiping membership information more often than events
        # brings views closer to uniform.  Boost gossips carry membership
        # only, to freshly drawn targets, and count against ``gossips_sent``
        # exactly like the regular emission — they are real wire traffic.
        if len(self.view) > 0:
            for _ in range(cfg.membership_boost):
                boost = self._build_gossip(now, include_membership=True,
                                           membership_only=True)
                boost_targets = self.membership.gossip_targets(cfg.fanout)
                for target in boost_targets:
                    out.append(Outgoing(target, boost))
                if boost_targets:
                    self.stats.gossips_sent += 1
        return out

    def _build_gossip(
        self, now: float, include_membership: bool, membership_only: bool = False
    ) -> GossipMessage:
        if include_membership:
            # "gossip.subs <- subs U {pi}": the sender always advertises
            # itself, which keeps in-degrees balanced (Sec. 4.3).
            subs, unsubs = self.membership.membership_payload(now)
        else:
            subs, unsubs = (), ()

        if membership_only:
            return GossipMessage(self.pid, subs=subs, unsubs=unsubs)
        return GossipMessage(
            self.pid,
            subs=subs,
            unsubs=unsubs,
            events=tuple(self.events),
            event_ids=self.event_ids.snapshot(),  # cached between deliveries
        )

    # ------------------------------------------------------------------
    # Join / leave — Sec. 3.4
    # ------------------------------------------------------------------
    def start_join(self, contact: ProcessId, now: float) -> List[Outgoing]:
        """Begin subscribing through ``contact`` (must already be in Π)."""
        if contact == self.pid:
            raise ValueError("cannot join through oneself")
        self._join = JoinState(contact, self.config.join_timeout)
        return self._emit_join_request(now)

    def _emit_join_request(self, now: float) -> List[Outgoing]:
        assert self._join is not None
        self._join.start(now)
        self.stats.join_requests_sent += 1
        return [Outgoing(self._join.contact, SubscriptionRequest(self.pid))]

    def on_subscription_request(
        self, request: SubscriptionRequest, now: float
    ) -> List[Outgoing]:
        """Contact side: adopt the subscriber and gossip its subscription on
        its behalf; answer with a view sample to bootstrap the joiner."""
        joiner = request.subscriber
        if joiner == self.pid:
            return []
        self.stats.join_requests_served += 1
        self.membership.add(joiner)
        self.membership.subs.add(joiner)
        self.membership.subs.truncate()
        sample = tuple(self.view.select_for_subs(self.config.view_max))
        return [Outgoing(joiner, SubscriptionAck(self.pid, sample))]

    def on_subscription_ack(self, ack: SubscriptionAck, now: float) -> List[Outgoing]:
        """Joiner side: seed the view from the contact's sample."""
        if self._join is not None and ack.contact == self._join.contact:
            self._join.on_ack()
        self.membership.add(ack.contact)
        for pid in ack.view_sample:
            self.membership.add(pid)
        return []

    def try_unsubscribe(self, now: float) -> bool:
        """Attempt to leave Π.

        Sec. 3.4: "the unsubscription of any process is refused as long as
        the local unsubscription buffer of the process exceeds a given size",
        which protects the unsubscription from being truncated away before
        it was ever gossiped.
        """
        return self.membership.local_unsubscribe(
            now, self.config.unsub_refusal_threshold
        )

    # ------------------------------------------------------------------
    # Retransmissions
    # ------------------------------------------------------------------
    def on_retransmit_request(
        self, request: RetransmitRequest, now: float
    ) -> List[Outgoing]:
        self.stats.retransmit_requests_received += 1
        found = RetransmissionEngine.serve(request.event_ids, self.events, self.archive)
        if not found:
            return []
        self.stats.retransmits_served += len(found)
        return [Outgoing(request.requester, RetransmitResponse(self.pid, tuple(found)))]

    def on_retransmit_response(
        self, response: RetransmitResponse, now: float
    ) -> List[Outgoing]:
        out: List[Outgoing] = []
        for notification in response.events:
            if notification.event_id in self.event_ids:
                self.stats.duplicates += 1
                continue
            self.stats.retransmits_delivered += 1
            if self._causal_mode:
                # A recovered dependency routes through the gate like any
                # receipt; it may itself expose deeper missing dependencies,
                # solicited from the responder who served it.
                self._causal_receive(notification, now, response.responder, out)
                continue
            self._deliver(notification, now)
            self._stage_for_forwarding(notification)
            self.retransmitter.on_received(notification.event_id)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def joined(self) -> bool:
        """True once integration evidence (any gossip) has been observed, or
        if the node never had to join (it was bootstrapped with a view)."""
        if self._join is None:
            return True
        return self._join.integrated

    def has_delivered(self, event_id: EventId) -> bool:
        """Whether ``event_id`` reads as delivered: it was (a delivered id is
        never forgotten), or a fold past ``event_ids_max`` out-of-order ids
        skipped over it (``stats.event_ids_evicted`` counts those)."""
        return event_id in self.event_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LpbcastNode(pid={self.pid}, |view|={len(self.view)}, "
            f"delivered={self.stats.delivered})"
        )
