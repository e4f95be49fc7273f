"""Bit-packed boolean columns for the mega-scale columnar engine.

The columnar engine's per-event × per-node state is boolean, and at
n = 1,000,000 a plain ``bool`` column costs one byte per node — 1 MB per
event row, several hundred MB per run.  This module packs those columns
64 nodes per ``uint64`` word (an 8x memory cut) and provides the word-level
primitives the round passes are written in: pack/unpack, population count,
index scatter (reads go through one ``unpack_bools`` per row — a byte-wide
gather beats per-index shifts several times over).

Two symmetric halves share one layout so repro artifacts recorded on a
numpy machine replay on a stdlib-only one:

* **numpy words** — arrays of ``uint64``; node ``i`` lives at bit
  ``i & 63`` of word ``i >> 6``.  The layout is the *little-endian*
  ``packbits`` layout, forced explicitly (``"<u8"`` views) so pack and
  unpack agree on any host byte order.  Population counts use
  ``numpy.bitwise_count`` when the installed numpy has it (>= 2.0) and an
  8-bit lookup table over a byte view otherwise.
* **python ints** — one arbitrary-precision ``int`` per column; node ``i``
  is bit ``i``.  CPython ints are already bitsets with C-speed ``&``/``|``
  and (3.10+) ``bit_count``; the pure-python backend stores each event row
  as one such int.

Both halves are property-tested against naive boolean arrays in
``tests/sim/test_bitset.py``.
"""

from __future__ import annotations

from typing import List, Sequence

try:  # optional fast path, mirroring repro.sim.columnar_runner
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the python backend
    _np = None

#: Nodes per packed word.
WORD_BITS = 64


def words_for(n: int) -> int:
    """Words needed to hold ``n`` bits."""
    return (n + WORD_BITS - 1) >> 6


# ---------------------------------------------------------------------------
# numpy words
# ---------------------------------------------------------------------------

if _np is not None:
    #: Per-byte population counts — the fallback when the installed numpy
    #: predates ``bitwise_count``.
    POPCOUNT8 = _np.array([bin(value).count("1") for value in range(256)],
                          dtype=_np.uint8)

    _HAVE_BITWISE_COUNT = hasattr(_np, "bitwise_count")


def zero_words(n: int):
    """A cleared bitset holding ``n`` bits."""
    return _np.zeros(words_for(n), dtype=_np.uint64)


def pack_bools(flags):
    """Boolean array → ``uint64`` words (little-endian bit layout)."""
    flags = _np.ascontiguousarray(flags, dtype=bool)
    bits = _np.packbits(flags, bitorder="little")
    pad = (-bits.size) % 8
    if pad:
        bits = _np.concatenate([bits, _np.zeros(pad, dtype=_np.uint8)])
    return bits.view("<u8").astype(_np.uint64, copy=False)


def unpack_bools(words, n: int):
    """``uint64`` words → boolean array of length ``n``."""
    if n == 0:
        return _np.zeros(0, dtype=bool)
    raw = _np.ascontiguousarray(words, dtype="<u8").view(_np.uint8)
    return _np.unpackbits(raw, count=n, bitorder="little").view(_np.bool_)


def popcount_words(words) -> int:
    """Total set bits across ``words`` (any shape)."""
    if _HAVE_BITWISE_COUNT:
        return int(_np.bitwise_count(words).sum(dtype=_np.int64))
    return int(POPCOUNT8[words.view(_np.uint8)].sum(dtype=_np.int64))


def popcount_rows(matrix):
    """Per-row set bits of a ``(rows, words)`` matrix → ``int64[rows]``."""
    if _HAVE_BITWISE_COUNT:
        return _np.bitwise_count(matrix).sum(axis=1, dtype=_np.int64)
    per_byte = POPCOUNT8[matrix.view(_np.uint8)]
    return per_byte.reshape(matrix.shape[0], -1).sum(axis=1, dtype=_np.int64)


def bit_indices(words, n: int):
    """Indices of the set bits among the first ``n``."""
    return _np.flatnonzero(unpack_bools(words, n))


def mask_from_indices(indices, n: int):
    """Bitset with exactly the bits in ``indices`` set."""
    flags = _np.zeros(n, dtype=bool)
    flags[indices] = True
    return pack_bools(flags)


# ---------------------------------------------------------------------------
# python ints
# ---------------------------------------------------------------------------

if hasattr(int, "bit_count"):  # 3.10+
    def int_popcount(value: int) -> int:
        """Set bits of a python-int bitset."""
        return value.bit_count()
else:  # pragma: no cover - 3.9 fallback
    def int_popcount(value: int) -> int:
        """Set bits of a python-int bitset."""
        return bin(value).count("1")


def int_pack(flags: Sequence[bool]) -> int:
    """Boolean sequence → python-int bitset (bit ``i`` = ``flags[i]``)."""
    value = 0
    for index, flag in enumerate(flags):
        if flag:
            value |= 1 << index
    return value


def int_unpack(value: int, n: int) -> List[bool]:
    """Python-int bitset → list of ``n`` booleans."""
    return [bool((value >> index) & 1) for index in range(n)]


def int_indices(value: int, n: int) -> List[int]:
    """Indices of the set bits among the first ``n``."""
    return [index for index in range(n) if (value >> index) & 1]


def int_full_mask(n: int) -> int:
    """All of the first ``n`` bits set."""
    return (1 << n) - 1
