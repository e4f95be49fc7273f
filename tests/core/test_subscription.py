"""Tests for UnsubscriptionBuffer and JoinState."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import Unsubscription
from repro.core.subscription import JoinState, UnsubscriptionBuffer


class TestUnsubscriptionBuffer:
    def test_add_and_contains(self):
        buf = UnsubscriptionBuffer(5, random.Random(0))
        buf.add(Unsubscription(3, 1.0))
        assert 3 in buf
        assert len(buf) == 1

    def test_newest_timestamp_wins(self):
        buf = UnsubscriptionBuffer(5, random.Random(0))
        buf.add(Unsubscription(3, 1.0))
        buf.add(Unsubscription(3, 5.0))
        assert buf.snapshot() == (Unsubscription(3, 5.0),)

    def test_older_timestamp_ignored(self):
        buf = UnsubscriptionBuffer(5, random.Random(0))
        buf.add(Unsubscription(3, 5.0))
        buf.add(Unsubscription(3, 1.0))
        assert buf.snapshot() == (Unsubscription(3, 5.0),)

    def test_truncate_random_eviction(self):
        buf = UnsubscriptionBuffer(2, random.Random(0))
        for pid in range(5):
            buf.add(Unsubscription(pid, 1.0))
        evicted = buf.truncate()
        assert len(buf) == 2
        assert len(evicted) == 3

    def test_purge_obsolete(self):
        buf = UnsubscriptionBuffer(10, random.Random(0))
        buf.add(Unsubscription(1, 0.0))
        buf.add(Unsubscription(2, 8.0))
        expired = buf.purge_obsolete(now=10.0, ttl=5.0)
        assert [u.pid for u in expired] == [1]
        assert 2 in buf

    def test_discard(self):
        buf = UnsubscriptionBuffer(10, random.Random(0))
        buf.add(Unsubscription(1, 0.0))
        assert buf.discard(1)
        assert not buf.discard(1)

    def test_iter(self):
        buf = UnsubscriptionBuffer(10, random.Random(0))
        buf.add(Unsubscription(1, 0.0))
        buf.add(Unsubscription(2, 0.0))
        assert set(buf) == {1, 2}

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            UnsubscriptionBuffer(-1)


def reference_truncate(buf: UnsubscriptionBuffer):
    """``UnsubscriptionBuffer.truncate`` as it was before it stopped copying
    the whole buffer for every eviction: the reference for draws, evictees
    and their order."""
    evicted = []
    while len(buf._entries) > buf.max_size:
        pid = buf._rng.choice(list(buf._entries))
        evicted.append(buf._entries.pop(pid))
    return evicted


class TestTruncateKeepsItsDraws:
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 40), st.floats(0.0, 50.0)), max_size=60),
        discarded=st.lists(st.integers(0, 40), max_size=10),
        capacity=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_evictees_buffer_and_stream_as_the_per_draw_copy(
            self, entries, discarded, capacity, seed):
        twins = [UnsubscriptionBuffer(capacity, random.Random(seed))
                 for _ in range(2)]
        for buf in twins:
            # Refreshed timestamps and removals in between: the insertion
            # order the draws index into is not simply the order of arrival.
            for pid, timestamp in entries:
                buf.add(Unsubscription(pid, timestamp))
            for pid in discarded:
                buf.discard(pid)
        new, old = twins
        assert new.truncate() == reference_truncate(old)
        assert new.snapshot() == old.snapshot()
        assert new._rng.getstate() == old._rng.getstate()
        assert len(new) <= capacity
        assert new.truncate() == []          # within its bound: no draw
        assert new._rng.getstate() == old._rng.getstate()

    def test_quiet_buffer_short_cuts(self):
        buf = UnsubscriptionBuffer(3, random.Random(0))
        assert buf.snapshot() == () and buf.purge_obsolete(9.0, 1.0) == []
        pids = buf.pids()                    # a live view, not a copy
        assert not pids
        buf.add(Unsubscription(4, 1.0))
        assert 4 in pids and 5 not in pids
        assert buf.purge_obsolete(9.0, 1.0) == [Unsubscription(4, 1.0)]
        assert not pids


class TestJoinState:
    def test_retry_after_timeout(self):
        join = JoinState(contact=1, timeout=2.0)
        join.start(now=0.0)
        assert not join.should_retry(now=1.0)
        assert join.should_retry(now=2.0)

    def test_no_retry_after_integration(self):
        join = JoinState(contact=1, timeout=2.0)
        join.start(now=0.0)
        join.on_gossip_received()
        assert not join.should_retry(now=100.0)

    def test_ack_alone_does_not_stop_retries(self):
        # The ack only confirms the contact got the request; integration
        # evidence is receiving gossip (Sec. 3.4).
        join = JoinState(contact=1, timeout=2.0)
        join.start(now=0.0)
        join.on_ack()
        assert join.acknowledged
        assert join.should_retry(now=5.0)

    def test_attempts_counted(self):
        join = JoinState(contact=1, timeout=2.0)
        join.start(now=0.0)
        join.start(now=2.0)
        assert join.attempts == 2

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            JoinState(contact=1, timeout=0.0)
