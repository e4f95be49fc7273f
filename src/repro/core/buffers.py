"""Bounded buffers with the truncation policies of Sec. 3.2 / Figure 1.

Every list used by lpbcast "has a maximum size, noted |L|m" and "none of the
outlined data structures contains duplicates" — adding an already contained
element leaves the structure unchanged.  Three eviction policies appear in the
paper's pseudocode:

* ``remove random element``   — used for ``unSubs``, ``subs`` and ``events``
  (:class:`RandomDropBuffer`);
* ``remove oldest element``   — used for ``eventIds``
  (:class:`FifoEventIdBuffer`, generically :class:`FifoBuffer`);
* the per-sender digest optimization sketched in Sec. 3.2: "the buffer can be
  optimized by only retaining for each sender the identifiers of notifications
  delivered since the last one delivered in sequence"
  (:class:`CompactEventIdDigest`).

All random choices are drawn from an injected ``random.Random`` so that whole
simulations are reproducible from a single seed.

Hot-path note: reception (Figure 1(a)) dominates the object-per-node engines'
profiles, and most of that is Python dispatch per element, not the algorithm.
So :meth:`RandomDropBuffer.truncate` inlines the eviction draw when the stream
is a plain ``random.Random`` — ``Random.randrange(n)`` bit-for-bit
(``getrandbits(n.bit_length())`` rejection sampling, CPython's
``_randbelow``) — and each phase is one bulk pass on the structure that owns
the index: :meth:`RandomDropBuffer.absorb` for ``subs``,
:meth:`FifoBuffer.missing` for ``eventIds``, ``PartialView.admit`` for
``view``.  Both make the same draws in the same order as the per-element
methods, which stay as the only path keyed buffers and custom generators have
and as the reference the tests compare against; the telemetry parity suite
pins the streams with a pre-optimization golden counter record.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from .ids import EventId, ProcessId

T = TypeVar("T", bound=Hashable)


def _identity(item):
    """Default buffer key (module-level, not a lambda, so buffers — and the
    nodes holding them — can be pickled across shard-worker boundaries)."""
    return item


class RandomDropBuffer(Generic[T]):
    """A bounded duplicate-free collection with uniform random eviction.

    Implements the ``while |L| > |L|m: remove random element from L`` loops of
    Figure 1(a).  Membership tests, insertion and random removal are all
    O(1) (swap-remove against a position index), which matters because every
    gossip reception truncates several of these buffers.

    The buffer intentionally does *not* auto-truncate on :meth:`add`; the
    paper's pseudocode adds a batch of elements and then truncates, and some
    call sites need the evicted elements (Phase 2 recycles view evictees into
    ``subs``).  Call :meth:`truncate` explicitly, or use :meth:`add_truncating`
    for the common single-step case.
    """

    def __init__(
        self,
        max_size: int,
        rng: Optional[random.Random] = None,
        key: Optional[Callable[[T], Hashable]] = None,
    ) -> None:
        if max_size < 0:
            raise ValueError("max_size must be non-negative")
        self.max_size = max_size
        self._rng = rng if rng is not None else random.Random()
        self._key: Callable[[T], Hashable] = key if key is not None else _identity
        #: Items are their own keys in the common case; skipping the key
        #: call per membership test/insert matters in the reception path.
        self._key_is_identity = key is None
        self._items: List[T] = []
        self._index: Dict[Hashable, int] = {}

    # -- mutation ----------------------------------------------------------
    def add(self, item: T) -> bool:
        """Insert ``item``; return False (and leave the buffer unchanged) if
        an item with the same key is already present.  Identity is the
        item's ``key`` (default: the item itself) — the events buffer keys
        notifications by event id so arbitrary payloads need not be
        hashable."""
        k = item if self._key_is_identity else self._key(item)
        index = self._index
        if k in index:
            return False
        items = self._items
        index[k] = len(items)
        items.append(item)
        return True

    def add_all(self, items) -> int:
        """Insert every item; return how many were new."""
        added = 0
        for item in items:
            if self.add(item):
                added += 1
        return added

    def discard(self, item: T) -> bool:
        """Remove ``item`` (matched by key) if present; return whether it
        was present."""
        pos = self._index.pop(self._key(item), None)
        if pos is None:
            return False
        last = self._items.pop()
        if pos < len(self._items):
            self._items[pos] = last
            self._index[self._key(last)] = pos
        return True

    def pop_random(self) -> T:
        """Remove and return a uniformly random element."""
        if not self._items:
            raise IndexError("pop from empty buffer")
        pos = self._rng.randrange(len(self._items))
        item = self._items[pos]
        last = self._items.pop()
        del self._index[self._key(item)]
        if pos < len(self._items):
            self._items[pos] = last
            self._index[self._key(last)] = pos
        return item

    def truncate(self) -> List[T]:
        """Evict uniformly random elements until the bound holds.

        Returns the evicted elements (callers such as Phase 2 of Figure 1(a)
        recycle them).  For a plain ``random.Random`` stream the eviction
        loop is inlined (identical draws to :meth:`pop_random`, see module
        docstring); custom generators fall back to ``pop_random``.
        """
        items = self._items
        max_size = self.max_size
        n = len(items)
        if n <= max_size:
            return []
        rng = self._rng
        if type(rng) is not random.Random:
            evicted = []
            while len(items) > max_size:
                evicted.append(self.pop_random())
            return evicted
        evicted = []
        index = self._index
        keyfn = None if self._key_is_identity else self._key
        getrandbits = rng.getrandbits
        while n > max_size:
            # Random.randrange(n) == _randbelow(n): rejection-sample
            # n.bit_length() bits — same stream consumption, fewer frames.
            k = n.bit_length()
            pos = getrandbits(k)
            while pos >= n:
                pos = getrandbits(k)
            item = items[pos]
            last = items.pop()
            del index[item if keyfn is None else keyfn(item)]
            n -= 1
            if pos < n:
                items[pos] = last
                index[last if keyfn is None else keyfn(last)] = pos
            evicted.append(item)
        return evicted

    def add_truncating(self, item: T) -> List[T]:
        """``add`` followed by ``truncate``; returns the evicted elements."""
        self.add(item)
        return self.truncate()

    def absorb(self, items) -> None:
        """:meth:`add_all` then :meth:`truncate`, returning neither result
        (Phase 2 feeding ``subs``).  With identity keys and a plain
        ``random.Random`` it is one pass — :meth:`truncate`'s draws in the
        same order, swap-removing on the list alone, the survivors' positions
        re-derived once at the end; otherwise the composition itself."""
        rng = self._rng
        if not self._key_is_identity or type(rng) is not random.Random:
            self.add_all(items)
            self.truncate()
            return
        held = self._items
        index = self._index
        n = len(held)
        for item in items:
            if item not in index:
                index[item] = n
                n += 1
                held.append(item)
        max_size = self.max_size
        if n <= max_size:
            return
        getrandbits = rng.getrandbits
        while n > max_size:
            k = n.bit_length()
            pos = getrandbits(k)
            while pos >= n:
                pos = getrandbits(k)
            last = held.pop()
            n -= 1
            if pos < n:
                held[pos] = last
        self._index = dict(zip(held, range(n)))

    def clear(self) -> None:
        self._items.clear()
        self._index.clear()

    def drain(self) -> List[T]:
        """Return all elements and empty the buffer (``events`` is emptied
        after each outgoing gossip, Figure 1(b))."""
        items = list(self._items)
        self.clear()
        return items

    # -- queries -----------------------------------------------------------
    def sample(self, k: int) -> List[T]:
        """Uniform sample without replacement of ``min(k, len)`` elements."""
        if k >= len(self._items):
            return list(self._items)
        return self._rng.sample(self._items, k)

    def snapshot(self) -> Tuple[T, ...]:
        """Immutable copy of the current contents (order unspecified)."""
        return tuple(self._items)

    def __contains__(self, item: object) -> bool:
        try:
            return self._key(item) in self._index  # type: ignore[arg-type]
        except (TypeError, AttributeError):
            return False

    def contains_key(self, key: Hashable) -> bool:
        """Membership test by key (e.g. an event id for the events buffer)."""
        return key in self._index

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({list(self._items)!r}, max={self.max_size})"


class FifoBuffer(Generic[T]):
    """A bounded duplicate-free collection evicting the *oldest* element.

    Used for ``eventIds`` ("remove oldest element from eventIds",
    Figure 1(a)) and for the retransmission archive.  Re-adding an existing
    element does not refresh its age — Figure 1(a) only inserts fresh ids, and
    keeping insertion age makes "oldest" well defined.

    :meth:`snapshot` is cached: every gossip emission wires the ``eventIds``
    digest (Figure 1(b)), but between deliveries the buffer is unchanged, so
    the tuple is rebuilt only after a mutation.  Mutators invalidate the
    cache; no-op adds (item already present, nothing evicted) keep it.
    """

    def __init__(self, max_size: int) -> None:
        if max_size < 0:
            raise ValueError("max_size must be non-negative")
        self.max_size = max_size
        self._items: "OrderedDict[T, None]" = OrderedDict()
        self._snapshot: Optional[Tuple[T, ...]] = None

    def add(self, item: T) -> List[T]:
        """Insert ``item`` (no-op if present) and evict oldest elements as
        needed to respect the bound.  Returns the evicted elements."""
        items = self._items
        if item not in items:
            items[item] = None
            self._snapshot = None
        if len(items) <= self.max_size:
            return []
        evicted: List[T] = []
        while len(items) > self.max_size:
            oldest, _ = items.popitem(last=False)
            evicted.append(oldest)
        self._snapshot = None
        return evicted

    def add_all(self, items) -> List[T]:
        evicted: List[T] = []
        for item in items:
            evicted.extend(self.add(item))
        return evicted

    def discard(self, item: T) -> bool:
        if item in self._items:
            del self._items[item]
            self._snapshot = None
            return True
        return False

    def clear(self) -> None:
        self._items.clear()
        self._snapshot = None

    def snapshot(self) -> Tuple[T, ...]:
        """Contents oldest-first (cached between mutations)."""
        snap = self._snapshot
        if snap is None:
            snap = self._snapshot = tuple(self._items)
        return snap

    def oldest(self) -> T:
        if not self._items:
            raise IndexError("buffer is empty")
        return next(iter(self._items))

    def missing(self, items) -> List[T]:
        """The elements of ``items`` not held, in order, repeats kept — a
        received digest read against the whole buffer in one pass."""
        held = self._items
        return [item for item in items if item not in held]

    def __contains__(self, item: object) -> bool:
        return item in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({list(self._items)!r}, max={self.max_size})"


class FifoEventIdBuffer(FifoBuffer[EventId]):
    """``eventIds`` exactly as in the Figure 1(a) pseudocode.

    A plain bounded FIFO of event identifiers.  This is the variant whose
    bound ``|eventIds|m`` the measurements of Fig. 6(b) sweep: once an id is
    evicted, a late copy of the same notification is no longer recognized as
    a duplicate and is re-delivered/re-forwarded, and reliability accounting
    treats re-deliveries as duplicates.
    """


class FrequencyAwareEventBuffer:
    """``events`` buffer with awareness-weighted eviction (Sec. 6.1).

    "A similar scheme could also be applied to events and eventIds": when a
    duplicate of a staged notification arrives, that notification is
    evidently already circulating widely, so under overflow it is the best
    candidate to drop — the scarce forwarding slots go to notifications seen
    fewer times.  Ties are broken uniformly at random, degenerating to the
    pseudocode's random drop when all weights are equal.
    """

    def __init__(self, max_size: int, rng: Optional[random.Random] = None) -> None:
        if max_size < 0:
            raise ValueError("max_size must be non-negative")
        self.max_size = max_size
        self._rng = rng if rng is not None else random.Random()
        self._items: Dict[Hashable, object] = {}
        self._seen: Dict[Hashable, int] = {}

    @staticmethod
    def _key(item) -> Hashable:
        return item.event_id

    def add(self, item) -> bool:
        key = self._key(item)
        if key in self._items:
            return False
        self._items[key] = item
        self._seen[key] = 0
        return True

    def note_seen(self, event_id: Hashable) -> None:
        """A duplicate copy of ``event_id`` arrived."""
        if event_id in self._seen:
            self._seen[event_id] += 1

    def seen_count(self, event_id: Hashable) -> int:
        return self._seen.get(event_id, 0)

    def truncate(self) -> List:
        """Evict the most-seen notifications until the bound holds."""
        dropped: List = []
        while len(self._items) > self.max_size:
            max_seen = max(self._seen.values())
            candidates = [k for k, c in self._seen.items() if c == max_seen]
            victim = self._rng.choice(candidates)
            dropped.append(self._items.pop(victim))
            del self._seen[victim]
        return dropped

    def drain(self) -> List:
        items = list(self._items.values())
        self.clear()
        return items

    def clear(self) -> None:
        self._items.clear()
        self._seen.clear()

    def contains_key(self, key: Hashable) -> bool:
        return key in self._items

    def __contains__(self, item: object) -> bool:
        try:
            return self._key(item) in self._items  # type: ignore[arg-type]
        except AttributeError:
            return False

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items.values())


class _SenderDigest:
    """Delivered-id record for one originator.

    ``last_in_seq`` is the largest s such that every sequence number 1..s has
    been delivered; ``out_of_order`` holds delivered sequence numbers beyond
    the gap.  Whenever the gap closes, the record compacts itself.
    """

    __slots__ = ("last_in_seq", "out_of_order")

    def __init__(self) -> None:
        self.last_in_seq = 0
        self.out_of_order: Set[int] = set()

    def contains(self, seq: int) -> bool:
        return seq <= self.last_in_seq or seq in self.out_of_order

    def add(self, seq: int) -> None:
        if self.contains(seq):
            return
        if seq == self.last_in_seq + 1:
            self.last_in_seq = seq
            while self.last_in_seq + 1 in self.out_of_order:
                self.last_in_seq += 1
                self.out_of_order.remove(self.last_in_seq)
        else:
            self.out_of_order.add(seq)

    def pending_count(self) -> int:
        return len(self.out_of_order)


class CompactEventIdDigest:
    """The per-sender digest optimization of Sec. 3.2.

    "the buffer can be optimized by only retaining for each sender the
    identifiers of notifications delivered since the last one delivered in
    sequence."

    Memory is bounded by ``max_out_of_order`` *out-of-order* entries in total
    across all senders; in-sequence prefixes cost O(1) per sender regardless
    of how many notifications they summarize.  When the out-of-order budget
    overflows, the oldest-inserted out-of-order entries are folded away by
    advancing that sender's ``last_in_seq`` — a deliberate over-approximation
    (ids below ``last_in_seq`` read as delivered) that preserves the
    at-most-once delivery guarantee while keeping memory constant, at the
    price of possibly suppressing genuinely missing notifications, the same
    qualitative trade-off as evicting from ``eventIds``.
    """

    def __init__(self, max_out_of_order: int = 256) -> None:
        if max_out_of_order < 0:
            raise ValueError("max_out_of_order must be non-negative")
        self.max_out_of_order = max_out_of_order
        self._senders: Dict[ProcessId, _SenderDigest] = {}
        self._insertion_order: "OrderedDict[EventId, None]" = OrderedDict()

    def __contains__(self, event_id: object) -> bool:
        if not isinstance(event_id, tuple) or len(event_id) != 2:
            return False
        digest = self._senders.get(event_id[0])
        return digest is not None and digest.contains(event_id[1])

    def missing(self, event_ids) -> List[EventId]:
        """The ids of ``event_ids`` not recorded as delivered, in order."""
        return [event_id for event_id in event_ids if event_id not in self]

    def add(self, event_id: EventId) -> None:
        """Record ``event_id`` as delivered."""
        digest = self._senders.get(event_id.origin)
        if digest is None:
            digest = self._senders[event_id.origin] = _SenderDigest()
        if digest.contains(event_id.seq):
            return
        digest.add(event_id.seq)
        if event_id.seq > digest.last_in_seq:
            self._insertion_order[event_id] = None
        else:
            # The gap closed; drop tracking entries the compaction absorbed.
            self._compact_tracking(event_id.origin, digest)
        self._enforce_budget()

    def _compact_tracking(self, origin: ProcessId, digest: _SenderDigest) -> None:
        absorbed = [
            eid
            for eid in self._insertion_order
            if eid.origin == origin and eid.seq <= digest.last_in_seq
        ]
        for eid in absorbed:
            del self._insertion_order[eid]

    def _enforce_budget(self) -> None:
        while len(self._insertion_order) > self.max_out_of_order:
            oldest, _ = self._insertion_order.popitem(last=False)
            digest = self._senders[oldest.origin]
            # Fold: advance the in-sequence pointer past the evicted entry.
            if oldest.seq > digest.last_in_seq:
                for seq in range(digest.last_in_seq + 1, oldest.seq + 1):
                    digest.out_of_order.discard(seq)
                digest.last_in_seq = max(digest.last_in_seq, oldest.seq)
                while digest.last_in_seq + 1 in digest.out_of_order:
                    digest.last_in_seq += 1
                    digest.out_of_order.remove(digest.last_in_seq)
                self._compact_tracking(oldest.origin, digest)

    def out_of_order_count(self) -> int:
        """Total out-of-order entries currently tracked (memory proxy)."""
        return sum(d.pending_count() for d in self._senders.values())

    def last_in_sequence(self, origin: ProcessId) -> int:
        digest = self._senders.get(origin)
        return digest.last_in_seq if digest is not None else 0

    def senders(self) -> Tuple[ProcessId, ...]:
        return tuple(self._senders)
