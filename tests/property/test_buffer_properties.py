"""Property-based tests for the bounded buffers (hypothesis)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import (
    CompactEventIdDigest,
    FifoBuffer,
    RandomDropBuffer,
)
from repro.core.ids import EventId

from ..helpers import ids_named

items = st.lists(st.integers(min_value=0, max_value=50), max_size=60)
capacities = st.integers(min_value=0, max_value=20)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestRandomDropBufferProperties:
    @given(items=items, capacity=capacities, seed=seeds)
    def test_bound_always_holds_after_truncate(self, items, capacity, seed):
        buf = RandomDropBuffer(capacity, random.Random(seed))
        buf.add_all(items)
        buf.truncate()
        assert len(buf) <= capacity

    @given(items=items, capacity=capacities, seed=seeds)
    def test_no_duplicates_ever(self, items, capacity, seed):
        buf = RandomDropBuffer(capacity, random.Random(seed))
        buf.add_all(items)
        contents = list(buf)
        assert len(contents) == len(set(contents))

    @given(items=items, capacity=capacities, seed=seeds)
    def test_truncate_partitions_content(self, items, capacity, seed):
        buf = RandomDropBuffer(capacity, random.Random(seed))
        buf.add_all(items)
        before = set(buf)
        evicted = buf.truncate()
        after = set(buf)
        assert after | set(evicted) == before
        assert after.isdisjoint(evicted)

    @given(items=items, seed=seeds)
    def test_unbounded_add_preserves_all(self, items, seed):
        buf = RandomDropBuffer(1000, random.Random(seed))
        buf.add_all(items)
        assert set(buf) == set(items)

    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["add", "discard", "truncate"]),
                      st.integers(0, 30)),
            max_size=80,
        ),
        capacity=capacities,
        seed=seeds,
    )
    def test_index_consistency_under_mixed_operations(self, ops, capacity, seed):
        buf = RandomDropBuffer(capacity, random.Random(seed))
        model = set()
        for op, value in ops:
            if op == "add":
                buf.add(value)
                model.add(value)
            elif op == "discard":
                buf.discard(value)
                model.discard(value)
            else:
                for evicted in buf.truncate():
                    model.discard(evicted)
            assert set(buf) == model
            for item in model:
                assert item in buf


class TestFifoBufferProperties:
    @given(items=items, capacity=capacities)
    def test_bound_holds(self, items, capacity):
        buf = FifoBuffer(capacity)
        buf.add_all(items)
        assert len(buf) <= capacity

    @staticmethod
    def reference_model(items, capacity):
        """Ordered-set-with-capacity reference: re-adding an item evicted
        earlier re-inserts it at the back."""
        content, evicted = [], []
        for item in items:
            if item not in content:
                content.append(item)
            while len(content) > capacity:
                evicted.append(content.pop(0))
        return content, evicted

    @given(items=items, capacity=st.integers(min_value=1, max_value=20))
    def test_matches_reference_content(self, items, capacity):
        buf = FifoBuffer(capacity)
        buf.add_all(items)
        expected, _ = self.reference_model(items, capacity)
        assert list(buf.snapshot()) == expected

    @given(items=items, capacity=capacities)
    def test_matches_reference_evictions(self, items, capacity):
        buf = FifoBuffer(capacity)
        evicted = buf.add_all(items)
        _, expected = self.reference_model(items, capacity)
        assert evicted == expected


event_ids = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=1, max_value=30),
).map(lambda t: EventId(*t))


class TestCompactDigestProperties:
    @given(ids=st.lists(event_ids, max_size=60))
    def test_never_forgets_without_eviction(self, ids):
        digest = CompactEventIdDigest(max_out_of_order=10_000)
        seen = set()
        for event_id in ids:
            digest.add(event_id)
            seen.add(event_id)
            for known in seen:
                assert known in digest

    @given(ids=st.lists(event_ids, max_size=60))
    def test_eviction_only_over_approximates(self, ids):
        # With a tight budget the digest may claim extra ids as delivered
        # (folding), but must never lose one it actually recorded.
        digest = CompactEventIdDigest(max_out_of_order=3)
        seen = set()
        for event_id in ids:
            digest.add(event_id)
            seen.add(event_id)
        for event_id in seen:
            assert event_id in digest

    @given(ids=st.lists(event_ids, max_size=60),
           budget=st.integers(min_value=0, max_value=8))
    def test_out_of_order_budget_respected(self, ids, budget):
        digest = CompactEventIdDigest(max_out_of_order=budget)
        for event_id in ids:
            digest.add(event_id)
            assert len(digest) <= budget

    @given(ops=st.lists(st.tuples(st.sampled_from("ab"), event_ids),
                        max_size=80))
    def test_two_stores_agree_with_plain_sets(self, ops):
        # The model: a delivered-id store is a set.  Without overflow the
        # frontier/extras form must answer exactly as the set does.
        stores = {who: CompactEventIdDigest(max_out_of_order=10_000)
                  for who in "ab"}
        sets = {who: set() for who in "ab"}
        universe = [EventId(origin, seq)
                    for origin in range(7) for seq in range(1, 33)]
        for who, event_id in ops:
            assert stores[who].add(event_id) == 0          # nothing folded
            sets[who].add(event_id)
            for mine, other in ("ab", "ba"):
                store, theirs = stores[mine], stores[other].snapshot()
                assert ids_named(store.snapshot()) == sets[mine]
                assert store.snapshot() is store.snapshot()    # cached
                assert [e for e in universe if e in store] \
                    == [e for e in universe if e in sets[mine]]
                missing = store.missing(theirs)
                assert len(missing) == len(set(missing))       # each id once
                assert set(missing) == sets[other] - sets[mine]
                origins = [origin for origin, _, _ in theirs]
                assert missing == sorted(
                    missing, key=lambda e: (origins.index(e.origin), e.seq))
                assert type(missing[0]) is EventId if missing else True

    @given(ids=st.lists(event_ids, max_size=60),
           budget=st.integers(min_value=0, max_value=6))
    def test_overflow_only_grows_and_counts_what_it_wrote_off(self, ids,
                                                              budget):
        store = CompactEventIdDigest(max_out_of_order=budget)
        delivered, known, written_off = set(), set(), 0
        for event_id in ids:
            if event_id in store:
                continue        # the node takes it for a duplicate
            written_off += store.add(event_id)
            delivered.add(event_id)
            grown = ids_named(store.snapshot())
            assert grown >= known | delivered                  # only grows
            assert written_off == len(grown - delivered)
            known = grown

    @given(ids=st.lists(event_ids, max_size=40),
           far=st.integers(min_value=31, max_value=2**62),
           budget=st.integers(min_value=0, max_value=6))
    def test_one_entry_names_at_most_the_budget_and_the_newest(self, ids,
                                                               far, budget):
        store = CompactEventIdDigest(max_out_of_order=budget)
        for event_id in ids:
            store.add(event_id)
        before = store.snapshot()
        missing = store.missing(((3, far, (far + 2,)),))
        assert store.snapshot() is before      # reading moves no frontier
        unknown = [seq for seq in (far + 2, *range(far, far - 40, -1))
                   if EventId(3, seq) not in store]
        assert missing == [EventId(3, seq)
                           for seq in sorted(unknown[:budget])]
