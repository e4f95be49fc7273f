"""Subscription lifecycle helpers (Sec. 3.4).

Two concerns live here:

* :class:`UnsubscriptionBuffer` — the ``unSubs`` list.  The paper's pseudocode
  treats it as a bounded random-eviction set; Sec. 3.4 additionally attaches a
  timestamp to every unsubscription so it can become obsolete, and refuses a
  local unsubscription while the buffer is saturated.  We keep one (latest)
  timestamp per process id, which preserves the pseudocode's set semantics
  while honouring the timestamp rule.

* :class:`JoinState` — the joiner-side handshake: "a process pi which wants to
  subscribe must know a process pj which is already in Π ... Otherwise, a
  timeout will trigger the re-emission of the subscription request."
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, KeysView, List, Optional, Tuple

from .events import Unsubscription
from .ids import ProcessId


class UnsubscriptionBuffer:
    """Bounded buffer of timestamped unsubscriptions, keyed by process id.

    Re-adding an unsubscription for a process already buffered keeps the
    *newest* timestamp, so a refreshed unsubscription does not expire early.
    Overflow evicts uniformly at random (Figure 1(a), Phase 1).
    """

    def __init__(self, max_size: int, rng: Optional[random.Random] = None) -> None:
        if max_size < 0:
            raise ValueError("max_size must be non-negative")
        self.max_size = max_size
        self._rng = rng if rng is not None else random.Random()
        self._entries: Dict[ProcessId, Unsubscription] = {}

    def add(self, unsub: Unsubscription) -> None:
        existing = self._entries.get(unsub.pid)
        if existing is None or unsub.timestamp > existing.timestamp:
            self._entries[unsub.pid] = unsub

    def truncate(self) -> List[Unsubscription]:
        """Random eviction down to the bound; returns evictees."""
        if len(self._entries) <= self.max_size:
            return []
        # One copy, not one per draw: a dict keeps insertion order across
        # ``pop``, so ``pids`` stays equal to ``list(self._entries)``.
        pids = list(self._entries)
        evicted: List[Unsubscription] = []
        rng = self._rng
        for n in range(len(pids), self.max_size, -1):
            if type(rng) is not random.Random:  # its own choice()
                pos = pids.index(rng.choice(pids))
            else:  # Random.choice's _randbelow(n) inlined: the same draws
                pos = rng.getrandbits(n.bit_length())
                while pos >= n:
                    pos = rng.getrandbits(n.bit_length())
            evicted.append(self._entries.pop(pids.pop(pos)))
        return evicted

    def purge_obsolete(self, now: float, ttl: float) -> List[Unsubscription]:
        """Drop entries whose timestamp is at least ``ttl`` old."""
        expired = ([] if not self._entries else  # the usual case, per tick
                   [unsub for unsub in self._entries.values()
                    if now - unsub.timestamp >= ttl])
        for unsub in expired:
            del self._entries[unsub.pid]
        return expired

    def discard(self, pid: ProcessId) -> bool:
        return self._entries.pop(pid, None) is not None

    def pids(self) -> KeysView[ProcessId]:
        """Live view of the buffered process ids: ``in`` on it is a plain
        dict lookup, for callers testing many pids (Phase 2)."""
        return self._entries.keys()

    def snapshot(self) -> Tuple[Unsubscription, ...]:
        return tuple(self._entries.values()) if self._entries else ()

    def __contains__(self, pid: object) -> bool:
        return pid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ProcessId]:
        return iter(self._entries)


class JoinState:
    """Joiner-side subscription handshake with timeout-driven re-emission.

    The node drives this object: :meth:`start` when the application asks to
    join, :meth:`on_ack` / :meth:`on_gossip_received` as evidence of
    integration arrives, and :meth:`should_retry` from the periodic tick.
    """

    def __init__(self, contact: ProcessId, timeout: float) -> None:
        if timeout <= 0:
            raise ValueError("join timeout must be positive")
        self.contact = contact
        self.timeout = timeout
        self.attempts = 0
        self.acknowledged = False
        self.integrated = False
        self._deadline: Optional[float] = None

    def start(self, now: float) -> None:
        """Record the emission of a subscription request."""
        self.attempts += 1
        self._deadline = now + self.timeout

    def on_ack(self) -> None:
        self.acknowledged = True

    def on_gossip_received(self) -> None:
        """Receiving gossip is the paper's integration signal: pi "will
        experience this by receiving more and more gossip messages"."""
        self.integrated = True

    def should_retry(self, now: float) -> bool:
        """True when the timeout elapsed without evidence of integration."""
        if self.integrated:
            return False
        return self._deadline is not None and now >= self._deadline
