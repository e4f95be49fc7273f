"""Publication workloads.

The paper's measurement runs had "all 125 processes; each publishing 40
events per gossip round" (Sec. 5.2).  :class:`BroadcastWorkload` generalizes
that: a chosen subset of processes publishes a configurable number of events
per round (round runner) or per own tick (async runtime), and every published
notification is recorded so the reliability metric can later ask, for each
(notification, process) pair, whether it was delivered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core.events import Notification
from ..core.ids import EventId, ProcessId

PublishFn = Callable[[object, float], Notification]
"""Publishes one event on a node at a given time; returns the notification.

Defaults to lpbcast's ``node.lpb_cast(None, now)``; the pbcast harness passes
its own multicast-initiating function.
"""


def _lpbcast_publish(node, now: float) -> Notification:
    return node.lpb_cast(None, now)


@dataclass(frozen=True)
class PublicationRecord:
    """One published notification and its provenance."""

    event_id: EventId
    publisher: ProcessId
    published_at: float


class BroadcastWorkload:
    """Publishes events at a fixed rate and records what was published.

    Parameters
    ----------
    publishers:
        The nodes that publish (any object accepted by ``publish_fn``).
    events_per_round:
        Events each publisher emits per round/tick (paper: 40).
    start, stop:
        Active window in rounds (inclusive start, exclusive stop).  ``stop``
        of ``None`` means "never stops"; benches use a finite window so the
        tail of the run can flush in-flight notifications before reliability
        is measured.
    publish_fn:
        Protocol-specific publication hook.
    """

    def __init__(
        self,
        publishers: Sequence[object],
        events_per_round: int = 1,
        start: int = 1,
        stop: Optional[int] = None,
        publish_fn: PublishFn = _lpbcast_publish,
    ) -> None:
        if events_per_round < 0:
            raise ValueError("events_per_round must be non-negative")
        self.publishers = list(publishers)
        self.events_per_round = events_per_round
        self.start = start
        self.stop = stop
        self.publish_fn = publish_fn
        self.records: List[PublicationRecord] = []

    # -- round-runner integration ------------------------------------------
    def on_round(self, round_number: int, sim) -> None:
        """RoundHook: publish on every alive publisher in the window.

        Publishers may be node objects or bare process ids; either way the
        publish target is re-resolved through ``sim.nodes`` at hook time, so
        the workload stays valid when an engine replaces its node handles
        (the sharded engine swaps real nodes for proxies at start).
        """
        if not self._active(round_number):
            return
        now = float(round_number)
        for publisher in self.publishers:
            pid = publisher if isinstance(publisher, int) else publisher.pid
            if not sim.alive(pid):
                continue
            node = sim.nodes.get(pid, publisher)
            self._publish_batch(node, pid, now)

    # -- async-runtime integration ------------------------------------------
    def on_tick(self, pid: ProcessId, now: float) -> None:
        """Tick listener for :class:`~repro.sim.async_runner.AsyncGossipRuntime`:
        publish when one of our publishers ticks (per-tick == per-round)."""
        if not self._active(now):
            return
        for node in self.publishers:
            if node.pid == pid:
                self._publish_batch(node, pid, now)
                return

    def _active(self, at: float) -> bool:
        if at < self.start:
            return False
        return self.stop is None or at < self.stop

    def _publish_batch(self, node, pid: ProcessId, now: float) -> None:
        for _ in range(self.events_per_round):
            notification = self.publish_fn(node, now)
            self.records.append(
                PublicationRecord(notification.event_id, pid, now)
            )

    # -- queries -------------------------------------------------------------
    def published_ids(self) -> List[EventId]:
        return [record.event_id for record in self.records]

    def __len__(self) -> int:
        return len(self.records)

