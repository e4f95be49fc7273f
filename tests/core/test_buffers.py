"""Tests for the bounded buffers of Sec. 3.2."""

import random

import pytest

from repro.core.buffers import (
    CompactEventIdDigest,
    FifoBuffer,
    RandomDropBuffer,
)
from repro.core.events import Notification
from repro.core.ids import EventId


class TestRandomDropBuffer:
    def test_add_and_contains(self):
        buf = RandomDropBuffer(5, random.Random(0))
        assert buf.add("a")
        assert "a" in buf
        assert len(buf) == 1

    def test_no_duplicates(self):
        buf = RandomDropBuffer(5, random.Random(0))
        assert buf.add("a")
        assert not buf.add("a")
        assert len(buf) == 1

    def test_add_all_counts_new(self):
        buf = RandomDropBuffer(10, random.Random(0))
        assert buf.add_all(["a", "b", "a", "c"]) == 3

    def test_truncate_respects_bound_and_returns_evicted(self):
        buf = RandomDropBuffer(3, random.Random(0))
        buf.add_all(range(10))
        evicted = buf.truncate()
        assert len(buf) == 3
        assert len(evicted) == 7
        assert set(evicted) | set(buf) == set(range(10))
        assert set(evicted) & set(buf) == set()

    def test_truncate_noop_under_bound(self):
        buf = RandomDropBuffer(5, random.Random(0))
        buf.add_all([1, 2])
        assert buf.truncate() == []
        assert len(buf) == 2

    def test_eviction_is_random(self):
        # Over many trials every element should get evicted sometimes.
        evicted_counts = {i: 0 for i in range(5)}
        for seed in range(200):
            buf = RandomDropBuffer(4, random.Random(seed))
            buf.add_all(range(5))
            for item in buf.truncate():
                evicted_counts[item] += 1
        assert all(count > 0 for count in evicted_counts.values())

    def test_discard(self):
        buf = RandomDropBuffer(5, random.Random(0))
        buf.add_all(["a", "b", "c"])
        assert buf.discard("b")
        assert not buf.discard("b")
        assert set(buf) == {"a", "c"}

    def test_pop_random_empties(self):
        buf = RandomDropBuffer(5, random.Random(0))
        buf.add_all([1, 2, 3])
        popped = {buf.pop_random() for _ in range(3)}
        assert popped == {1, 2, 3}
        with pytest.raises(IndexError):
            buf.pop_random()

    def test_drain(self):
        buf = RandomDropBuffer(5, random.Random(0))
        buf.add_all([1, 2, 3])
        assert sorted(buf.drain()) == [1, 2, 3]
        assert len(buf) == 0

    def test_sample(self):
        buf = RandomDropBuffer(10, random.Random(0))
        buf.add_all(range(10))
        sample = buf.sample(4)
        assert len(sample) == 4
        assert len(set(sample)) == 4
        assert set(sample) <= set(range(10))

    def test_sample_larger_than_content(self):
        buf = RandomDropBuffer(10, random.Random(0))
        buf.add_all([1, 2])
        assert sorted(buf.sample(5)) == [1, 2]

    def test_zero_capacity(self):
        buf = RandomDropBuffer(0, random.Random(0))
        buf.add("x")
        assert buf.truncate() == ["x"]
        assert len(buf) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            RandomDropBuffer(-1)

    def test_key_function_allows_unhashable_values(self):
        buf = RandomDropBuffer(5, random.Random(0), key=lambda d: d["id"])
        assert buf.add({"id": 1, "payload": [1, 2]})
        assert not buf.add({"id": 1, "payload": [9]})
        assert buf.contains_key(1)
        assert not buf.contains_key(2)

    def test_contains_with_unhashable_item_and_identity_key(self):
        buf = RandomDropBuffer(5, random.Random(0))
        assert {"x": 1} not in buf  # must not raise

    def test_add_truncating(self):
        buf = RandomDropBuffer(2, random.Random(0))
        buf.add_all([1, 2])
        evicted = buf.add_truncating(3)
        assert len(buf) == 2
        assert len(evicted) == 1


class TestAbsorb:
    def test_equals_add_all_then_truncate_and_keeps_the_index(self):
        fused = RandomDropBuffer(3, random.Random(4))
        plain = RandomDropBuffer(3, random.Random(4))
        for batch in ([1, 2], [2, 3, 4, 5, 3], [], [6]):
            assert fused.absorb(batch) is None
            plain.add_all(batch)
            plain.truncate()
            assert tuple(fused) == tuple(plain)
            assert fused._rng.getstate() == plain._rng.getstate()
        assert all(item in fused for item in tuple(fused))
        assert not fused.add(tuple(fused)[0]) and fused.add(99)

    def test_keyed_buffer_takes_the_composition(self):
        fused = RandomDropBuffer(2, random.Random(4), key=abs)
        plain = RandomDropBuffer(2, random.Random(4), key=abs)
        fused.absorb([1, -1, 2, 3, -3, 4])
        plain.add_all([1, -1, 2, 3, -3, 4])
        plain.truncate()
        assert tuple(fused) == tuple(plain) and len(fused) == 2
        assert fused._rng.getstate() == plain._rng.getstate()


class TestFifoBuffer:
    def test_evicts_oldest(self):
        buf = FifoBuffer(3)
        for i in range(5):
            buf.add(i)
        assert buf.snapshot() == (2, 3, 4)

    def test_add_returns_evicted(self):
        buf = FifoBuffer(2)
        assert buf.add("a") == []
        assert buf.add("b") == []
        assert buf.add("c") == ["a"]

    def test_readd_does_not_refresh_age(self):
        buf = FifoBuffer(2)
        buf.add("a")
        buf.add("b")
        buf.add("a")  # no-op, "a" stays oldest
        assert buf.add("c") == ["a"]

    def test_oldest(self):
        buf = FifoBuffer(5)
        buf.add_all(["x", "y"])
        assert buf.oldest() == "x"

    def test_snapshot_cached_between_mutations(self):
        buf = FifoBuffer(5)
        buf.add_all(["a", "b"])
        first = buf.snapshot()
        assert first == ("a", "b")
        assert buf.snapshot() is first  # no mutation: same cached tuple
        buf.add("a")  # duplicate, nothing evicted: still a no-op
        assert buf.snapshot() is first

    def test_snapshot_cache_invalidated_by_insert_and_eviction(self):
        buf = FifoBuffer(2)
        buf.add("a")
        assert buf.snapshot() == ("a",)
        buf.add("b")
        assert buf.snapshot() == ("a", "b")
        buf.add("c")  # evicts "a"
        assert buf.snapshot() == ("b", "c")

    def test_snapshot_cache_invalidated_by_discard_and_clear(self):
        buf = FifoBuffer(3)
        buf.add_all(["a", "b", "c"])
        assert buf.snapshot() == ("a", "b", "c")
        buf.discard("b")
        assert buf.snapshot() == ("a", "c")
        buf.clear()
        assert buf.snapshot() == ()

    def test_oldest_empty_raises(self):
        with pytest.raises(IndexError):
            FifoBuffer(3).oldest()

    def test_discard(self):
        buf = FifoBuffer(5)
        buf.add_all([1, 2, 3])
        assert buf.discard(2)
        assert not buf.discard(2)
        assert buf.snapshot() == (1, 3)

    def test_zero_capacity_evicts_immediately(self):
        buf = FifoBuffer(0)
        assert buf.add("a") == ["a"]
        assert len(buf) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FifoBuffer(-2)


class TestCompactEventIdDigest:
    def test_in_sequence_compaction(self):
        digest = CompactEventIdDigest()
        for seq in (1, 2, 3):
            digest.add(EventId(7, seq))
        assert digest.last_in_sequence(7) == 3
        assert len(digest) == 0
        assert EventId(7, 2) in digest
        assert EventId(7, 4) not in digest

    def test_gap_tracked_out_of_order(self):
        digest = CompactEventIdDigest()
        digest.add(EventId(7, 1))
        digest.add(EventId(7, 3))
        assert digest.last_in_sequence(7) == 1
        assert len(digest) == 1
        assert EventId(7, 3) in digest
        assert EventId(7, 2) not in digest

    def test_gap_closes(self):
        digest = CompactEventIdDigest()
        digest.add(EventId(7, 1))
        digest.add(EventId(7, 3))
        digest.add(EventId(7, 2))
        assert digest.last_in_sequence(7) == 3
        assert len(digest) == 0

    def test_multiple_senders_independent(self):
        digest = CompactEventIdDigest()
        digest.add(EventId(1, 1))
        digest.add(EventId(2, 5))
        assert digest.last_in_sequence(1) == 1
        assert digest.last_in_sequence(2) == 0
        assert digest.snapshot() == ((1, 1, ()), (2, 0, (5,)))

    def test_budget_folds_oldest(self):
        digest = CompactEventIdDigest(max_out_of_order=2)
        digest.add(EventId(1, 10))
        digest.add(EventId(1, 20))
        # Overflows: (1,10), the oldest, is folded into the frontier, which
        # writes off the nine ids it skipped over.
        assert digest.add(EventId(1, 30)) == 9
        assert digest.last_in_sequence(1) == 10
        assert digest.snapshot() == ((1, 10, (20, 30)),)
        assert EventId(1, 7) in digest      # over-approximation
        assert EventId(1, 30) in digest

    def test_fold_takes_the_oldest_inserted_and_what_continues_it(self):
        digest = CompactEventIdDigest(max_out_of_order=3)
        written_off = [digest.add(EventId(origin, seq))
                       for origin, seq in ((2, 9), (1, 5), (1, 3), (1, 4))]
        # (2,9) was the oldest: folded, eight ids written off; origin 1 waits.
        assert written_off == [0, 0, 0, 8]
        assert digest.snapshot() == ((2, 9, ()), (1, 0, (3, 4, 5)))
        # (1,5) is next; 3 and 4 lie below it and go with it (delivered, so
        # not counted): only seqs 1 and 2 are written off.
        assert digest.add(EventId(3, 2)) == 2
        assert digest.snapshot() == ((2, 9, ()), (1, 5, ()), (3, 0, (2,)))
        digest.add(EventId(1, 7))
        digest.add(EventId(1, 8))
        assert digest.add(EventId(1, 6)) == 0       # a gap closing frees room
        assert digest.snapshot() == ((2, 9, ()), (1, 8, ()), (3, 0, (2,)))

    def test_snapshot_cached_between_mutations(self):
        digest = CompactEventIdDigest()
        digest.add(EventId(1, 1))
        digest.add(EventId(1, 3))
        first = digest.snapshot()
        assert first == ((1, 1, (3,)),)
        assert digest.snapshot() is first
        digest.add(EventId(1, 1))           # known: no mutation
        digest.add(EventId(1, 3))
        assert digest.snapshot() is first
        digest.add(EventId(1, 2))           # closes the gap
        assert digest.snapshot() == ((1, 3, ()),)

    def test_missing_reads_a_digest_origin_by_origin(self):
        digest = CompactEventIdDigest()
        for seq in (1, 2, 4):
            digest.add(EventId(1, seq))
        theirs = ((2, 0, (1,)), (1, 3, (4, 6)), (3, 0, ()))
        assert digest.missing(theirs) == [
            EventId(2, 1), EventId(1, 3), EventId(1, 6)]
        assert digest.missing(()) == []
        assert digest.missing(iter(((1, 2, ()),))) == []   # behind: one compare

    def test_unseen_keeps_the_unknown_notifications_in_order(self):
        digest = CompactEventIdDigest()
        for seq in (1, 2, 4):
            digest.add(EventId(1, seq))
        carried = [Notification(EventId(1, seq), {"unhashable": []}, 0.0)
                   for seq in (3, 1, 4, 5, 3)]
        carried.append(Notification(EventId(2, 1), None, 0.0))
        assert digest.unseen(carried) == [carried[0], carried[3], carried[4],
                                          carried[5]]
        assert digest.unseen(()) == []

    def test_duplicate_add_is_noop(self):
        digest = CompactEventIdDigest()
        digest.add(EventId(1, 2))
        digest.add(EventId(1, 2))
        assert len(digest) == 1

    def test_contains_rejects_foreign_types(self):
        digest = CompactEventIdDigest()
        assert "not-an-id" not in digest
        assert (1,) not in digest

    def test_never_delivered_sender(self):
        digest = CompactEventIdDigest()
        assert digest.last_in_sequence(42) == 0
        assert EventId(42, 1) not in digest

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            CompactEventIdDigest(max_out_of_order=-1)
