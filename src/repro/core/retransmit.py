"""Digest-driven retransmissions (gossip pull).

The paper's gossip messages carry a digest of delivered notifications
precisely so that "older notifications ... stored in a different buffer"
can "satisfy retransmission requests" (Sec. 3.2).  The measurements of
Sec. 5.2 were taken *without* retransmissions, so the engine is optional
(``LpbcastConfig.retransmissions``) and a dedicated ablation bench measures
its effect on reliability.

The scheme is the classical *gossip pull* (Sec. 2.3, footnote 5): on
receiving a digest that names notifications the local process has not
delivered, it solicits them from the digest's sender, who answers from its
pending ``events`` buffer or from the archive.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from .events import Notification
from .ids import EventId, ProcessId


class NotificationArchive:
    """Bounded FIFO store of old notifications, addressable by event id.

    This is the "different buffer" of Sec. 3.2.  Delivered notifications are
    archived; when the bound overflows, the oldest archived notification is
    discarded — after which retransmission requests for it can no longer be
    served, which is exactly the buffer-purging effect the reliability
    measurements of Fig. 6 probe.
    """

    def __init__(self, max_size: int) -> None:
        if max_size < 0:
            raise ValueError("max_size must be non-negative")
        self.max_size = max_size
        self._store: "OrderedDict[EventId, Notification]" = OrderedDict()

    def add(self, notification: Notification) -> List[Notification]:
        """Archive ``notification``; returns evicted notifications."""
        if notification.event_id not in self._store:
            self._store[notification.event_id] = notification
        evicted: List[Notification] = []
        while len(self._store) > self.max_size:
            _, old = self._store.popitem(last=False)
            evicted.append(old)
        return evicted

    def get(self, event_id: EventId) -> Optional[Notification]:
        return self._store.get(event_id)

    def ids(self) -> Tuple[EventId, ...]:
        return tuple(self._store)

    def __contains__(self, event_id: object) -> bool:
        return event_id in self._store

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[EventId]:
        return iter(self._store)


class RetransmissionEngine:
    """Tracks outstanding solicitations and builds requests/responses.

    A notification id is solicited from at most one peer at a time; the
    pending entry expires after ``pending_ttl`` so a lost request or response
    can be re-solicited from a later digest.
    """

    def __init__(self, request_max: int, pending_ttl: float = 4.0) -> None:
        if request_max < 0:
            raise ValueError("request_max must be non-negative")
        if pending_ttl <= 0:
            raise ValueError("pending_ttl must be positive")
        self.request_max = request_max
        self.pending_ttl = pending_ttl
        self._pending: Dict[EventId, float] = {}
        self.requests_built = 0
        self.ids_requested = 0

    def select_missing(
        self,
        digest: Tuple[EventId, ...],
        delivered,
        now: float,
    ) -> List[EventId]:
        """Ids in ``digest`` that are neither delivered nor already pending.

        ``delivered`` is anything supporting ``in`` (the node's event-id
        buffer).  At most ``request_max`` ids are selected, and each becomes
        pending until ``now + pending_ttl``.
        """
        self._expire(now)
        missing: List[EventId] = []
        for event_id in digest:
            if len(missing) >= self.request_max:
                break
            if event_id in delivered or event_id in self._pending:
                continue
            missing.append(event_id)
            self._pending[event_id] = now + self.pending_ttl
        if missing:
            self.requests_built += 1
            self.ids_requested += len(missing)
        return missing

    def on_received(self, event_id: EventId) -> None:
        """The notification arrived (by retransmission or regular gossip)."""
        self._pending.pop(event_id, None)

    def pending_count(self, now: Optional[float] = None) -> int:
        if now is not None:
            self._expire(now)
        return len(self._pending)

    def _expire(self, now: float) -> None:
        if not self._pending:
            return
        expired = [eid for eid, deadline in self._pending.items() if deadline <= now]
        for eid in expired:
            del self._pending[eid]

    @staticmethod
    def serve(
        requested: Tuple[EventId, ...],
        pending_events,
        archive: NotificationArchive,
    ) -> List[Notification]:
        """Look requested notifications up in the pending ``events`` buffer
        first, then in the archive."""
        by_id = {n.event_id: n for n in pending_events}
        found: List[Notification] = []
        for event_id in requested:
            notification = by_id.get(event_id)
            if notification is None:
                notification = archive.get(event_id)
            if notification is not None:
                found.append(notification)
        return found
