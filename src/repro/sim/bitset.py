"""Bit-packed boolean columns for the mega-scale columnar engine.

The columnar engine's per-event × per-node state is boolean, and at
n = 1,000,000 a plain ``bool`` column costs one byte per node — 1 MB per
event row, several hundred MB per run.  This module packs those columns
64 nodes per ``uint64`` word (an 8x memory cut) and provides the word-level
primitives the round passes are written in: pack/unpack, population count,
index scatter (reads go through one ``unpack_bools`` per row — a byte-wide
gather beats per-index shifts several times over).

Columns are arrays of ``uint64``; node ``i`` lives at bit ``i & 63`` of word
``i >> 6``.  The layout is the *little-endian* ``packbits`` layout, forced
explicitly (``"<u8"`` views) so pack and unpack agree on any host byte
order.  Population counts use ``numpy.bitwise_count`` when the installed
numpy has it (>= 2.0) and an 8-bit lookup table over a byte view otherwise
(numpy is a hard dependency but its version is not pinned).

Property-tested against naive boolean arrays in
``tests/sim/test_bitset.py``.
"""

from __future__ import annotations

import numpy as _np

#: Nodes per packed word.
WORD_BITS = 64


def words_for(n: int) -> int:
    """Words needed to hold ``n`` bits."""
    return (n + WORD_BITS - 1) >> 6


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
