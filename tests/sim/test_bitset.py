"""Property tests for the bit-packed boolean columns.

Every helper is checked against the naive boolean-array model it
replaces, on both halves of the module: numpy ``uint64`` words and
python-int bitsets.  The two halves share one layout (node ``i`` at bit
``i & 63`` of word ``i >> 6``), so a cross-backend round-trip is also
pinned: packing the same flags must describe the same set bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import bitset

flag_lists = st.lists(st.booleans(), min_size=0, max_size=300)


def _words_to_int(words: np.ndarray) -> int:
    """Numpy words → the equivalent python-int bitset."""
    value = 0
    for index, word in enumerate(words.tolist()):
        value |= word << (64 * index)
    return value


class TestWordsFor:
    def test_boundaries(self):
        assert bitset.words_for(0) == 0
        assert bitset.words_for(1) == 1
        assert bitset.words_for(64) == 1
        assert bitset.words_for(65) == 2
        assert bitset.words_for(1_000_000) == 15_625


class TestNumpyWords:
    @given(flag_lists)
    @settings(max_examples=200, deadline=None)
    def test_pack_unpack_round_trip(self, flags):
        arr = np.array(flags, dtype=bool)
        words = bitset.pack_bools(arr)
        assert words.dtype == np.uint64
        assert words.size == bitset.words_for(arr.size)
        assert np.array_equal(bitset.unpack_bools(words, arr.size), arr)

    @given(flag_lists)
    @settings(max_examples=200, deadline=None)
    def test_popcount_matches_sum(self, flags):
        arr = np.array(flags, dtype=bool)
        words = bitset.pack_bools(arr)
        assert bitset.popcount_words(words) == int(arr.sum())

    @given(st.lists(flag_lists.map(lambda f: f[:64]), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_popcount_rows_matches_per_row_sum(self, rows):
        width = max((len(r) for r in rows), default=0)
        mat = np.zeros((len(rows), width), dtype=bool)
        for i, row in enumerate(rows):
            mat[i, : len(row)] = row
        packed = np.vstack([bitset.pack_bools(mat[i]) for i in range(len(rows))]) \
            if width else np.zeros((len(rows), 0), dtype=np.uint64)
        got = bitset.popcount_rows(packed)
        assert got.tolist() == mat.sum(axis=1).tolist()

    def test_popcount_lut_fallback_agrees(self, monkeypatch):
        rng = np.random.default_rng(9)
        arr = rng.random(5000) < 0.3
        words = bitset.pack_bools(arr)
        expect = int(arr.sum())
        assert bitset.popcount_words(words) == expect
        monkeypatch.setattr(bitset, "_HAVE_BITWISE_COUNT", False)
        assert bitset.popcount_words(words) == expect
        mat = words.reshape(1, -1)
        assert bitset.popcount_rows(mat).tolist() == [expect]

    @given(flag_lists)
    @settings(max_examples=200, deadline=None)
    def test_bit_indices_match_flatnonzero(self, flags):
        arr = np.array(flags, dtype=bool)
        words = bitset.pack_bools(arr)
        assert bitset.bit_indices(words, arr.size).tolist() == \
            np.flatnonzero(arr).tolist()

    @given(st.integers(min_value=1, max_value=300), st.data())
    @settings(max_examples=100, deadline=None)
    def test_mask_from_indices(self, n, data):
        indices = data.draw(st.lists(
            st.integers(min_value=0, max_value=n - 1), max_size=50))
        words = bitset.mask_from_indices(np.array(indices, dtype=np.int64), n)
        expect = np.zeros(n, dtype=bool)
        expect[indices] = True
        assert np.array_equal(bitset.unpack_bools(words, n), expect)

    def test_zero_words(self):
        words = bitset.zero_words(130)
        assert words.size == 3
        assert bitset.popcount_words(words) == 0


class TestPythonInts:
    @given(flag_lists)
    @settings(max_examples=200, deadline=None)
    def test_pack_unpack_round_trip(self, flags):
        value = bitset.int_pack(flags)
        assert bitset.int_unpack(value, len(flags)) == list(flags)

    @given(flag_lists)
    @settings(max_examples=200, deadline=None)
    def test_popcount_matches_sum(self, flags):
        assert bitset.int_popcount(bitset.int_pack(flags)) == sum(flags)

    @given(flag_lists)
    @settings(max_examples=200, deadline=None)
    def test_indices_match_enumerate(self, flags):
        value = bitset.int_pack(flags)
        assert bitset.int_indices(value, len(flags)) == \
            [i for i, f in enumerate(flags) if f]

    def test_full_mask(self):
        assert bitset.int_full_mask(0) == 0
        assert bitset.int_full_mask(3) == 0b111
        assert bitset.int_popcount(bitset.int_full_mask(100)) == 100


class TestCrossBackend:
    @given(flag_lists)
    @settings(max_examples=200, deadline=None)
    def test_same_layout(self, flags):
        words = bitset.pack_bools(np.array(flags, dtype=bool))
        assert _words_to_int(words) == bitset.int_pack(flags)
