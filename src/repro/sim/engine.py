"""A minimal discrete-event simulation kernel.

A binary-heap agenda of ``(time, sequence, action, args)`` entries; running
one calls ``action(*args)``.  The sequence number makes scheduling stable:
events at equal times fire in scheduling order, so runs are deterministic
given deterministic actions.  This kernel underlies the asynchronous
runtime that stands in for the paper's 125-workstation testbed (Sec. 5.2),
``repro/sim/async_runner.py``, and the UDP deployment's wall-clock loop,
``repro/runtime/udp.py``.

There are no handles and no cancellation: an entry is four references, and
scheduling a bound method with its arguments allocates nothing else (no
closure, no token).  A caller whose pending action may have gone stale — a
failed host's tick, a timer superseded by a revival — keeps that state
itself and lets the action return early.  The time guards are written
``not time >= now`` so that NaN is refused with the same one compare.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional


class Simulator:
    """Single-threaded discrete-event loop with a virtual clock."""

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = start_time
        self._seq = 0
        self._queue: List[tuple] = []
        self.events_executed = 0

    # -- scheduling --------------------------------------------------------
    def schedule(self, delay: float, action: Callable, *args) -> None:
        """Run ``action(*args)`` after ``delay`` time units."""
        if not delay >= 0:
            raise ValueError("cannot schedule into the past")
        heappush(self._queue, (self.now + delay, self._seq, action, args))
        self._seq += 1

    def schedule_at(self, time: float, action: Callable, *args) -> None:
        """Run ``action(*args)`` at absolute virtual time ``time``."""
        if not time >= self.now:
            raise ValueError("cannot schedule into the past")
        heappush(self._queue, (time, self._seq, action, args))
        self._seq += 1

    # -- execution ---------------------------------------------------------
    def run_until(self, deadline: float) -> None:
        """Execute every event with time <= deadline, then advance the clock
        to ``deadline``."""
        if not deadline >= self.now:
            raise ValueError("deadline is in the past")
        queue = self._queue
        while queue and queue[0][0] <= deadline:
            time, _, action, args = heappop(queue)
            self.now = time
            self.events_executed += 1
            action(*args)
        self.now = deadline

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the agenda (optionally at most ``max_events`` events);
        returns the number executed."""
        queue = self._queue
        executed = 0
        while queue and (max_events is None or executed < max_events):
            time, _, action, args = heappop(queue)
            self.now = time
            self.events_executed += 1
            action(*args)
            executed += 1
        return executed

    def next_time(self) -> Optional[float]:
        """Time of the earliest entry (None if none); runs nothing."""
        return self._queue[0][0] if self._queue else None

    def pending(self) -> int:
        """Number of scheduled entries."""
        return len(self._queue)

    def idle(self) -> bool:
        return not self._queue
