"""Process and event identifiers.

The paper (Sec. 3.1) assumes processes "have ordered distinct identifiers".
We model a process identifier as a plain ``int``: ordered, distinct, hashable
and cheap — large-scale simulations create millions of id comparisons per run.

Event (notification) identifiers follow Sec. 3.2: "We suppose that these
identifiers are unique, and include the identifier of the originator."  An
:class:`EventId` is therefore an ``(origin, seq)`` pair where ``seq`` is a
per-originator sequence number.  The per-sender sequencing is what lets
``eventIds`` — and every gossip's digest, one :data:`DigestEntry` per origin
— be a frontier plus the few ids delivered out of order beyond it
(:class:`repro.core.buffers.CompactEventIdDigest`).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

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

