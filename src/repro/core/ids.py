"""Process and event identifiers.

The paper (Sec. 3.1) assumes processes "have ordered distinct identifiers".
We model a process identifier as a plain ``int``: ordered, distinct, hashable
and cheap — large-scale simulations create millions of id comparisons per run.
A :class:`ProcessNamespace` helper hands out fresh ids and remembers an
optional human-readable name for each, which the runtime layers use for
reporting.

Event (notification) identifiers follow Sec. 3.2: "We suppose that these
identifiers are unique, and include the identifier of the originator."  An
:class:`EventId` is therefore an ``(origin, seq)`` pair where ``seq`` is a
per-originator sequence number.  The per-sender sequencing is what lets
``eventIds`` — and every gossip's digest, one :data:`DigestEntry` per origin
— be a frontier plus the few ids delivered out of order beyond it
(:class:`repro.core.buffers.CompactEventIdDigest`).
"""

from __future__ import annotations

from typing import Dict, Iterator, NamedTuple, Optional, Tuple

ProcessId = int
"""Alias documenting intent: process identifiers are ordered distinct ints."""

DigestEntry = Tuple[ProcessId, int, Tuple[int, ...]]
"""``(origin, frontier, extras)``: every seq ``1..frontier`` of ``origin`` is
delivered, and so are the ``extras``, ascending seqs beyond it.  A plain
tuple — digests are built and read in the reception hot path."""


class EventId(NamedTuple):
    """Globally unique notification identifier.

    ``origin`` is the publishing process and ``seq`` the 1-based sequence
    number of the notification at that publisher.  Ordering is lexicographic
    which matches "delivered in sequence" per sender (Sec. 3.2).
    """

    origin: ProcessId
    seq: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.origin}#{self.seq}"


class ProcessNamespace:
    """Factory for fresh, ordered process identifiers.

    >>> ns = ProcessNamespace()
    >>> a = ns.create("alice")
    >>> b = ns.create()
    >>> a < b
    True
    >>> ns.name_of(a)
    'alice'
    """

    def __init__(self, start: ProcessId = 0) -> None:
        if start < 0:
            raise ValueError("process ids must be non-negative")
        self._next = start
        self._names: Dict[ProcessId, str] = {}

    def create(self, name: Optional[str] = None) -> ProcessId:
        """Return a fresh process id, optionally associating a display name."""
        pid = self._next
        self._next += 1
        self._names[pid] = name if name is not None else f"p{pid}"
        return pid

    def create_many(self, count: int) -> list:
        """Create ``count`` fresh ids in one call (convenience for runners)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.create() for _ in range(count)]

    def name_of(self, pid: ProcessId) -> str:
        """Display name for ``pid`` (falls back to ``p<id>`` for foreign ids)."""
        return self._names.get(pid, f"p{pid}")

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self) -> Iterator[ProcessId]:
        return iter(self._names)

    def __contains__(self, pid: object) -> bool:
        return pid in self._names
