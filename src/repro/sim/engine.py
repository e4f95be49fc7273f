"""A minimal discrete-event simulation kernel.

A binary-heap agenda of ``(time, sequence, action)`` entries.  The sequence
number makes scheduling stable: events at equal times fire in scheduling
order, so runs are deterministic given deterministic actions.  This kernel
underlies the asynchronous runtime that stands in for the paper's
125-workstation testbed (Sec. 5.2), ``repro/sim/async_runner.py``, and
the UDP deployment's wall-clock loop, ``repro/runtime/udp.py``.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

Action = Callable[[], None]


class EventHandle:
    """Cancellation token returned by :meth:`Simulator.schedule`."""

    __slots__ = ("time", "cancelled")

    def __init__(self, time: float) -> None:
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """Single-threaded discrete-event loop with a virtual clock."""

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = start_time
        self._seq = 0
        self._queue: List[tuple] = []
        self.events_executed = 0

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, action: Action) -> EventHandle:
        """Run ``action`` after ``delay`` time units."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        return self.schedule_at(self.now + delay, action)

    def schedule_at(self, time: float, action: Action) -> EventHandle:
        """Run ``action`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        handle = EventHandle(time)
        heapq.heappush(self._queue, (time, self._seq, handle, action))
        self._seq += 1
        return handle

    # -- execution ---------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event; returns False when idle."""
        while self._queue:
            time, _, handle, action = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            self.now = time
            self.events_executed += 1
            action()
            return True
        return False

    def run_until(self, deadline: float) -> None:
        """Execute every event with time <= deadline, then advance the clock
        to ``deadline``."""
        if deadline < self.now:
            raise ValueError("deadline is in the past")
        while self._queue:
            time, _, handle, _ = self._queue[0]
            if time > deadline:
                break
            if handle.cancelled:
                heapq.heappop(self._queue)
                continue
            self.step()
        self.now = deadline

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the agenda (optionally at most ``max_events`` events);
        returns the number executed."""
        executed = 0
        while self._queue and (max_events is None or executed < max_events):
            if self.step():
                executed += 1
        return executed

    def next_time(self) -> Optional[float]:
        """Time of the earliest live entry (None if none); runs nothing."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None

    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) entries."""
        return len(self._queue)

    def idle(self) -> bool:
        return not self._queue
