"""Bounded buffers with the truncation policies of Sec. 3.2 / Figure 1.

Every list used by lpbcast "has a maximum size, noted |L|m" and "none of the
outlined data structures contains duplicates" — adding an already contained
element leaves the structure unchanged.  Three eviction policies appear in the
paper's pseudocode:

* ``remove random element``   — used for ``unSubs``, ``subs`` and ``events``
  (:class:`RandomDropBuffer`);
* ``remove oldest element``   — Figure 1(a)'s policy for ``eventIds``, kept
  for pbcast's id list (:class:`FifoBuffer`);
* for lpbcast's own ``eventIds``, the per-sender form of Sec. 3.2: "only
  retaining for each sender the identifiers of notifications delivered
  since the last one delivered in sequence" (:class:`CompactEventIdDigest`)
  — a FIFO that forgets an id takes its next advertisement for news.

All random choices are drawn from an injected ``random.Random`` so that whole
simulations are reproducible from a single seed.

Hot-path note: reception (Figure 1(a)) dominates the object-per-node engines'
profiles, and most of that is Python dispatch per element, not the algorithm.
So :meth:`RandomDropBuffer.truncate` inlines the eviction draw when the stream
is a plain ``random.Random`` — ``Random.randrange(n)`` bit-for-bit
(``getrandbits(n.bit_length())`` rejection sampling, CPython's
``_randbelow``) — and each phase is one bulk pass on the structure that owns
the index: :meth:`RandomDropBuffer.absorb` for ``subs``,
:meth:`CompactEventIdDigest.missing` / ``unseen`` for ``eventIds``,
``PartialView.admit`` for ``view``.  The passes make the same draws in the
same order as the per-element methods, which stay as the only path keyed
buffers and custom generators have and as the reference the tests compare
against; the telemetry parity suite pins the streams with a
pre-optimization golden counter record.
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
    Tuple,
    TypeVar,
)

from .ids import DigestEntry, EventId, ProcessId

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

    "remove oldest element from eventIds" (Figure 1(a)) as written: pbcast's
    delivered-id list, where an evicted id may be delivered again.  Re-adding
    an existing element does not refresh its age — Figure 1(a) only inserts
    fresh ids, and keeping insertion age makes "oldest" well defined.

    :meth:`snapshot` is cached between mutations; no-op adds (item already
    present, nothing evicted) keep it.
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

    def __contains__(self, item: object) -> bool:
        return item in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({list(self._items)!r}, max={self.max_size})"


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


class CompactEventIdDigest:
    """``eventIds`` as Sec. 3.2 prescribes it: per sender, only "the
    identifiers of notifications delivered since the last one delivered in
    sequence".

    Per origin a *frontier* — every sequence number up to it is delivered —
    and, in one insertion-ordered table across origins, the *extras*
    delivered out of order beyond it; ``len(store)`` counts the extras and
    ``max_out_of_order`` (``|eventIds|m``) bounds them.  A frontier costs
    O(1) however many ids it stands for, so memory, :meth:`snapshot` and
    :meth:`missing` are O(publishers + gaps) and a delivered id is known for
    good.  On overflow the oldest extra is folded into its origin's frontier,
    which then covers the ids skipped over too: the known set only grows,
    at-most-once delivery always holds, and the bound trades completeness.
    """

    def __init__(self, max_out_of_order: int = 256) -> None:
        if max_out_of_order < 0:
            raise ValueError("max_out_of_order must be non-negative")
        self.max_out_of_order = max_out_of_order
        self._frontier: Dict[ProcessId, int] = {}
        self._extras: Dict[EventId, None] = {}  # oldest insertion first
        self._snapshot: Optional[Tuple[DigestEntry, ...]] = None

    def __contains__(self, event_id: object) -> bool:
        if not isinstance(event_id, tuple) or len(event_id) != 2:
            return False
        return (event_id[1] <= self._frontier.get(event_id[0], 0)
                or event_id in self._extras)

    def __len__(self) -> int:
        return len(self._extras)

    def add(self, event_id: EventId) -> int:
        """Record ``event_id`` as delivered; returns how many never-delivered
        ids a fold wrote off (0 unless the extras overflowed)."""
        origin, seq = event_id
        frontiers, extras = self._frontier, self._extras
        frontier = frontiers.get(origin, 0)
        if seq <= frontier or (seq > frontier + 1 and event_id in extras):
            return 0
        self._snapshot = None
        written_off = 0
        if seq > frontier + 1:
            frontiers.setdefault(origin, 0)
            extras[event_id] = None
            if len(extras) <= self.max_out_of_order:
                return 0
            # Fold the oldest extra (and its origin's extras below it) in.
            origin, seq = next(iter(extras))
            absorbed = [held for held in extras
                        if held[0] == origin and held[1] <= seq]
            for held in absorbed:
                del extras[held]
            written_off = seq - frontiers[origin] - len(absorbed)
        # In sequence (or folded): on through the extras that continue it.
        while extras and (origin, seq + 1) in extras:
            seq += 1
            del extras[(origin, seq)]
        frontiers[origin] = seq
        return written_off

    def snapshot(self) -> Tuple[DigestEntry, ...]:
        """The digest of every gossip (Figure 1(b)): per origin ``(origin,
        frontier, extras)``, extras ascending; cached between mutations."""
        snap = self._snapshot
        if snap is None:
            beyond: Dict[ProcessId, List[int]] = {}
            for origin, seq in self._extras:
                beyond.setdefault(origin, []).append(seq)
            snap = self._snapshot = tuple([
                (origin, frontier,
                 tuple(sorted(beyond[origin])) if origin in beyond else ())
                for origin, frontier in self._frontier.items()])
        return snap

    def missing(self, digest) -> List[EventId]:
        """The ids a received ``digest`` names that are not known here,
        origin by origin, ascending.  An entry at or behind the local
        frontier with no extras costs one compare; otherwise only its gap is
        enumerated, at most ``max_out_of_order`` ids of it (the newest), so a
        far-ahead or forged frontier costs a bounded walk.  Reading moves no
        local frontier: only :meth:`add` does."""
        out: List[EventId] = []
        held = self._extras
        known = self._frontier.get
        cap = self.max_out_of_order
        new, make = tuple.__new__, EventId
        for origin, frontier, extras in digest:
            mine = known(origin, 0)
            if frontier <= mine and not extras:
                continue
            # At most len(held) of them are held: this far down is enough.
            first = max(mine, frontier - cap - len(held)) + 1
            fresh = [new(make, (origin, seq))
                     for seq in (*range(first, frontier + 1), *extras)
                     if seq > mine]
            if held:
                fresh = [event_id for event_id in fresh if event_id not in held]
            out += fresh[len(fresh) - cap:] if len(fresh) > cap else fresh
        return out

    def unseen(self, notifications) -> list:
        """The ``notifications`` whose id is not known, in order — the
        carried events of a gossip read in one pass."""
        known = self._frontier.get
        held = self._extras
        return [n for n in notifications
                if n[0][1] > known(n[0][0], 0) and n[0] not in held]

    def last_in_sequence(self, origin: ProcessId) -> int:
        """``origin``'s frontier: every seq up to it is delivered."""
        return self._frontier.get(origin, 0)
