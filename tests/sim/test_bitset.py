"""Property tests for the bit-packed boolean columns.

Every helper is checked against the naive boolean-array model it
replaces, and the layout the engine's single-bit reads and writes rely on
(node ``i`` at bit ``i & 63`` of word ``i >> 6``) is pinned.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import bitset

flag_lists = st.lists(st.booleans(), min_size=0, max_size=300)


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

    def test_popcount_words_and_rows_agree(self):
        rng = np.random.default_rng(9)
        arr = rng.random(5000) < 0.3
        words = bitset.pack_bools(arr)
        expect = int(arr.sum())
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

    @given(flag_lists)
    @settings(max_examples=200, deadline=None)
    def test_node_i_is_bit_i_mod_64_of_word_i_div_64(self, flags):
        words = bitset.pack_bools(np.array(flags, dtype=bool)).tolist()
        assert [bool(words[i >> 6] >> (i & 63) & 1)
                for i in range(len(flags))] == flags

    def test_zero_words(self):
        words = bitset.zero_words(130)
        assert words.size == 3
        assert bitset.popcount_words(words) == 0
