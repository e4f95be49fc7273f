"""Partial views (Sec. 3.2 / 3.3) and the weighted-view optimization (Sec. 6.1).

The ``view`` of a process is a bounded, duplicate-free list of process ids
that never contains the owning process itself ("a process pi will never add
itself to its own local view", Sec. 4.1 footnote 8).  When it overflows,
entries are evicted uniformly at random and handed back to the caller so that
Phase 2 of Figure 1(a) can recycle them into ``subs``:

    while |view| > l do
        target <- random element in view
        view <- view \\ {target}
        subs <- subs U {target}

:class:`WeightedPartialView` implements the optimization of Sec. 6.1: every
entry carries a weight counting "the level of awareness for a given process".
When a subscription for an already-known process arrives, its weight grows;
truncation preferentially evicts *high*-weight entries (they are likely known
by many others) and ``subs`` construction prefers *low*-weight entries (they
need more advertising).
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

from .ids import ProcessId


class PartialView:
    """Uniform random partial view — the default lpbcast view."""

    def __init__(
        self,
        owner: ProcessId,
        max_size: int,
        rng: Optional[random.Random] = None,
    ) -> None:
        if max_size < 0:
            raise ValueError("max_size (l) must be non-negative")
        self.owner = owner
        self.max_size = max_size
        self._rng = rng if rng is not None else random.Random()
        self._items: List[ProcessId] = []
        self._index: Dict[ProcessId, int] = {}

    # -- mutation ----------------------------------------------------------
    def add(self, pid: ProcessId) -> bool:
        """Insert ``pid``; rejects the owner and duplicates.  Does not
        truncate — Phase 2 adds a batch and then truncates once."""
        if pid == self.owner or pid in self._index:
            return False
        self._index[pid] = len(self._items)
        self._items.append(pid)
        return True

    def admit(self, candidates, dead=()) -> List[ProcessId]:
        """Phase 2's adds as one pass: insert every candidate that is not
        the owner, not already present and not in ``dead`` (anything
        supporting ``in``; an empty one is not consulted at all).  Returns
        the pids added, in order; like :meth:`add` it does not truncate."""
        if dead:
            candidates = [pid for pid in candidates if pid not in dead]
        owner = self.owner
        index = self._index
        n = len(index)
        added: List[ProcessId] = []
        for pid in candidates:
            if pid not in index and pid != owner:
                index[pid] = n
                n += 1
                added.append(pid)
        self._items.extend(added)
        return added

    def remove(self, pid: ProcessId) -> bool:
        """Remove ``pid`` if present (Phase 1 unsubscription handling)."""
        pos = self._index.pop(pid, None)
        if pos is None:
            return False
        self._forget_weight(pid)
        last = self._items.pop()
        if pos < len(self._items):
            self._items[pos] = last
            self._index[last] = pos
        return True

    def _pick_eviction_index(self) -> int:
        """Index of the entry to evict; uniform here, overridden by the
        weighted variant."""
        return self._rng.randrange(len(self._items))

    def _forget_weight(self, pid: ProcessId) -> None:
        """Hook for the weighted variant; no-op for uniform views."""

    def truncate(self) -> List[ProcessId]:
        """Evict entries until ``len(view) <= l``; returns the evictees.

        Phase 2 runs this once per received gossip, so the uniform case
        inlines the eviction draw (bit-identical to
        ``Random.randrange(len(view))`` — rejection sampling over
        ``bit_length`` bits, exactly CPython's ``_randbelow``); the weighted
        subclass and custom generators use the overridable
        :meth:`_pick_eviction_index` path.
        """
        items = self._items
        n = len(items)
        if n <= self.max_size:
            return []
        evicted: List[ProcessId] = []
        index = self._index
        max_size = self.max_size
        if type(self) is PartialView and type(self._rng) is random.Random:
            getrandbits = self._rng.getrandbits
            while n > max_size:
                k = n.bit_length()
                pos = getrandbits(k)
                while pos >= n:
                    pos = getrandbits(k)
                pid = items[pos]
                last = items.pop()
                del index[pid]
                n -= 1
                if pos < n:
                    items[pos] = last
                    index[last] = pos
                evicted.append(pid)
            return evicted
        while len(items) > max_size:
            pos = self._pick_eviction_index()
            pid = items[pos]
            last = items.pop()
            del index[pid]
            self._forget_weight(pid)
            if pos < len(items):
                items[pos] = last
                index[last] = pos
            evicted.append(pid)
        return evicted

    def clear(self) -> None:
        self._items.clear()
        self._index.clear()

    # -- queries -----------------------------------------------------------
    def choose_gossip_targets(self, fanout: int) -> List[ProcessId]:
        """``choose F random members target1..targetF in view`` (Fig. 1(b)).

        Returns min(F, |view|) distinct targets, uniformly at random.
        """
        if fanout >= len(self._items):
            return list(self._items)
        return self._rng.sample(self._items, fanout)

    def select_for_subs(self, k: int) -> List[ProcessId]:
        """Entries to advertise in outgoing ``subs``; uniform sample here,
        low-weight-first in the weighted variant."""
        if k >= len(self._items):
            return list(self._items)
        return self._rng.sample(self._items, k)

    def snapshot(self) -> Tuple[ProcessId, ...]:
        return tuple(self._items)

    def __contains__(self, pid: object) -> bool:
        return pid in self._index

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[ProcessId]:
        return iter(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(owner={self.owner}, "
            f"items={sorted(self._items)!r}, l={self.max_size})"
        )


class WeightedPartialView(PartialView):
    """Partial view with awareness weights (Sec. 6.1).

    * :meth:`note_awareness` — called when an incoming ``subs`` entry names a
      process already in the view: "the weight of pj is increased".
    * truncation "consist[s] in removing entries with a high weight, since
      these are more probable of being known by many other processes"; ties
      are broken uniformly at random.
    * "when constructing subs, a process preferably adds entries from its
      view with a small weight."
    """

    def __init__(
        self,
        owner: ProcessId,
        max_size: int,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(owner, max_size, rng)
        self._weights: Dict[ProcessId, int] = {}

    def add(self, pid: ProcessId) -> bool:
        added = super().add(pid)
        if added:
            self._weights[pid] = 0
        return added

    def admit(self, candidates, dead=()) -> List[ProcessId]:
        """As the uniform view's, and a candidate already in the view has
        its weight increased (a repeat within ``candidates`` included)."""
        added: List[ProcessId] = []
        for pid in candidates:
            if pid in dead:
                continue
            if pid in self:
                self.note_awareness(pid)
            elif self.add(pid):
                added.append(pid)
        return added

    def note_awareness(self, pid: ProcessId) -> None:
        """Record that another process also advertised ``pid``."""
        if pid in self._weights:
            self._weights[pid] += 1

    def weight_of(self, pid: ProcessId) -> int:
        return self._weights.get(pid, 0)

    def _forget_weight(self, pid: ProcessId) -> None:
        self._weights.pop(pid, None)

    def _pick_eviction_index(self) -> int:
        max_weight = max(self._weights[pid] for pid in self._items)
        heaviest = [
            pos for pos, pid in enumerate(self._items)
            if self._weights[pid] == max_weight
        ]
        return self._rng.choice(heaviest)

    def select_for_subs(self, k: int) -> List[ProcessId]:
        if k >= len(self._items):
            return list(self._items)
        # Sort by (weight, random tiebreak) and take the lightest k.
        decorated = [
            (self._weights[pid], self._rng.random(), pid) for pid in self._items
        ]
        decorated.sort()
        return [pid for _, _, pid in decorated[:k]]
