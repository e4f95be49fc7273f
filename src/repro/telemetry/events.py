"""Structured trace events with bounded buffering.

A :class:`TraceEvent` is one observation in the engine-native trace stream:
a round phase boundary, a gossip send or receive, an application delivery,
an eviction summary, a fault verdict that struck, or an invariant
violation.  Events are buffered in a :class:`TraceBuffer` with a hard
capacity — when the buffer is full new events are counted as dropped rather
than evicting history, so a trace always starts at the beginning of the run
and states how much of its tail is missing.

Sharded runs record events inside shard workers tagged with the same
``(phase, index)`` coordinates the engine uses to replay delivery listeners;
the coordinator merges per-round batches in that canonical order, so the
trace stream of a sharded run lines up with the serial engine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

# Canonical event kinds (engines may emit additional, namespaced kinds).
ROUND_START = "round.start"
ROUND_END = "round.end"
SEND = "send"
RECEIVE = "receive"
DELIVER = "deliver"
EVICTION = "eviction"
CRASH = "crash"
RECOVERY = "recovery"
FAULT_DROP = "fault.drop"
FAULT_DELAY = "fault.delay"
FAULT_DUPLICATE = "fault.duplicate"
FAULT_BYZANTINE = "fault.byzantine"
FAULT_REPLAY = "fault.replay"
INVARIANT_VIOLATION = "invariant.violation"

TRACE_KINDS = (
    ROUND_START, ROUND_END, SEND, RECEIVE, DELIVER, EVICTION, CRASH,
    RECOVERY, FAULT_DROP, FAULT_DELAY, FAULT_DUPLICATE, FAULT_BYZANTINE,
    FAULT_REPLAY, INVARIANT_VIOLATION,
)


@dataclass(frozen=True)
class TraceEvent:
    """One traced observation.

    ``at`` is the engine's time coordinate: the round number on round
    engines, simulated seconds on the discrete-event runtime.  ``data``
    holds kind-specific fields (message kind, counts, details) and must stay
    JSON-serializable.
    """

    kind: str
    at: float
    pid: Optional[int] = None
    peer: Optional[int] = None
    data: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "type": "trace",
            "kind": self.kind,
            "at": self.at,
            "pid": self.pid,
            "peer": self.peer,
            "data": dict(self.data),
        }


#: Ordering tag for shard-recorded events: ``(phase, index)`` in the round
#: engines' canonical replay order (see repro.sim.parallel_runner).
TraceTag = Tuple[int, int]


class TraceBuffer:
    """Bounded, append-only event store.

    ``capacity`` bounds memory; once reached, further events only advance
    ``dropped``.  Keeping the head (not the tail) makes truncation explicit
    and deterministic — the same policy the pre-existing
    :class:`repro.sim.trace.Tracer` uses.
    """

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.events: List[TraceEvent] = []
        self.dropped = 0

    def append(self, event: TraceEvent) -> None:
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)

    def extend(self, events: Iterable[TraceEvent]) -> None:
        for event in events:
            self.append(event)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for event in self.events:
            totals[event.kind] = totals.get(event.kind, 0) + 1
        return totals

    def tail(self, count: int) -> List[TraceEvent]:
        return self.events[-count:] if count > 0 else []

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
