"""Phase III and the pull filter in one pass == the walk id by id.

``_phase3_notifications`` drops the carried notifications it knows in one
pass (``unseen``) and reads the received digest against the whole id store
at once (``missing``), enumerating only the gaps.  The walk the node ran
before — every carried notification and every id a digest entry names,
tested against ``eventIds`` in turn — is kept here as the reference; what an
entry may name as new is settled when the digest is read (at most
``event_ids_max`` ids, the newest of its gap), which the reference spells
the slow, obvious way.  A second part pins the Python call budget of one
reception, so a per-element method cannot creep back unnoticed.
"""

import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.buffers import CompactEventIdDigest
from repro.core.config import LpbcastConfig
from repro.core.events import Notification
from repro.core.ids import EventId
from repro.core.message import GossipMessage
from repro.core.node import LpbcastNode
from repro.core.retransmit import RetransmissionEngine

from ..helpers import digest_of


def named_as_new(store, digest):
    """``store.missing(digest)`` without the arithmetic: every id an entry
    stands for is built and tested with ``in``; the newest ``|eventIds|m``
    unknown ones of each entry are what it names as new."""
    out = []
    for origin, frontier, extras in digest:
        named = [EventId(origin, seq)
                 for seq in (*range(1, frontier + 1), *extras)]
        unknown = [event_id for event_id in named if event_id not in store]
        out += unknown[max(0, len(unknown) - store.max_out_of_order):]
    return out


class SequentialWalkNode(LpbcastNode):
    """The node with Phase III as it ran before: every carried notification
    and every id the digest names as new tested against ``eventIds`` in
    turn, whatever the store's state."""

    def _phase3_notifications(self, gossip, now):
        event_ids = self.event_ids
        for notification in gossip.events:
            if notification.event_id in event_ids:
                self.stats.duplicates += 1
                continue
            self._deliver(notification, now)
            self._stage_for_forwarding(notification)
            self.retransmitter.on_received(notification.event_id)
        if self.config.digest_implies_delivery:
            for event_id in named_as_new(event_ids, gossip.event_ids):
                if event_id in event_ids:
                    continue
                self._deliver(Notification(event_id, None, now), now,
                              archivable=False)


def twin(cls, event_ids_max, seed):
    config = LpbcastConfig(event_ids_max=event_ids_max, events_max=4)
    node = cls(0, config, random.Random(seed), initial_view=(1, 2, 3))
    node.delivered = []
    node.add_delivery_listener(
        lambda pid, notification, now: node.delivered.append((notification, now)))
    return node


# Three origins x a dozen sequence numbers against bounds of 0..10: entries
# run ahead of and behind the store, repeat an origin, carry extras the store
# holds, lacks or has folded over, and find it empty, one short of full, full.
event_ids = st.builds(EventId, st.integers(1, 3), st.integers(1, 8))
entries = st.tuples(
    st.integers(1, 3), st.integers(0, 8),
    st.lists(st.integers(1, 6), max_size=4, unique=True).map(sorted),
).map(lambda e: (e[0], e[1], tuple(e[1] + gap for gap in e[2])))
gossips = st.tuples(st.lists(event_ids, max_size=4),       # events (payloads)
                    st.lists(entries, max_size=5))         # the digest


@given(event_ids_max=st.integers(0, 10),
       stream=st.lists(gossips, min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_phase3_equals_the_sequential_walk(event_ids_max, stream, seed):
    new = twin(LpbcastNode, event_ids_max, seed)
    old = twin(SequentialWalkNode, event_ids_max, seed)
    for now, (events, digest) in enumerate(stream):
        message = GossipMessage(
            9, events=tuple(Notification(eid, "payload", 0.0) for eid in events),
            event_ids=tuple(digest))
        assert new.event_ids.missing(digest) == named_as_new(new.event_ids, digest)
        assert new.handle_message(9, message, float(now)) == []
        assert old.handle_message(9, message, float(now)) == []
        assert new.delivered == old.delivered          # order and listener calls
        ids = [notification.event_id for notification, _ in new.delivered]
        assert len(ids) == len(set(ids))               # each id once, ever
        assert new.stats == old.stats
        assert new.event_ids.snapshot() == old.event_ids.snapshot()
        assert len(new.event_ids) <= event_ids_max
        assert tuple(new.events) == tuple(old.events)
        assert new.rng.getstate() == old.rng.getstate()


class TestNoEvictionRule:
    """An id that was delivered is never news again, full store or not."""

    A, B, C, D = (EventId(1, seq) for seq in (2, 4, 6, 8))      # all out of order

    def node_holding(self, *held, event_ids_max=3):
        node = twin(LpbcastNode, event_ids_max, seed=0)
        node.handle_message(9, GossipMessage(9, event_ids=digest_of(held)), 0.0)
        node.delivered.clear()
        return node

    def delivered_ids(self, node):
        return [notification.event_id for notification, _ in node.delivered]

    def test_full_store_folds_and_never_redelivers(self):
        node = self.node_holding(self.A, self.B, self.C)
        # D and (1,1) are new, A is named again: (1,1) closes A's gap, which
        # makes the room D needs.
        digest = digest_of((self.D, self.A, EventId(1, 1)))
        node.handle_message(9, GossipMessage(9, event_ids=digest), 1.0)
        assert self.delivered_ids(node) == [EventId(1, 1), self.D]
        assert node.event_ids.snapshot() == ((1, 2, (4, 6, 8)),)
        assert node.stats.event_ids_evicted == 0
        # A fourth id out of order folds B, the oldest, into the frontier;
        # (1,3), which the fold skipped over, is written off for good.
        node.handle_message(
            9, GossipMessage(9, event_ids=((1, 0, (10,)),)), 2.0)
        assert self.delivered_ids(node)[2:] == [EventId(1, 10)]
        assert node.event_ids.snapshot() == ((1, 4, (6, 8, 10)),)
        assert node.stats.event_ids_evicted == 1
        node.handle_message(
            9, GossipMessage(9, event_ids=digest_of(
                EventId(1, seq) for seq in (1, 2, 3, 4))), 3.0)
        assert len(node.delivered) == 3

    def test_one_short_of_full_delivers_from_the_filtered_list(self):
        node = self.node_holding(self.A, self.B)
        node.handle_message(
            9, GossipMessage(9, event_ids=((1, 0, (2, 8)), (1, 0, (4, 8)))), 1.0)
        assert self.delivered_ids(node) == [self.D]    # the repeat re-checked
        assert node.event_ids.snapshot() == ((1, 0, (2, 4, 8)),)
        assert node.stats.event_ids_evicted == 0

    def test_all_known_digest_touches_nothing(self):
        node = self.node_holding(self.A, self.B, self.C)
        snapshot = node.event_ids.snapshot()
        node.handle_message(
            9, GossipMessage(9, event_ids=digest_of((self.C, self.A))), 1.0)
        assert node.delivered == []
        assert node.event_ids.snapshot() is snapshot   # the cached tuple


@given(delivered=st.lists(event_ids, max_size=12),
       pending=st.lists(event_ids, max_size=4),
       digest=st.lists(entries, max_size=5))
def test_select_missing_on_the_filtered_digest_equals_the_raw_one(
        delivered, pending, digest):
    """The node hands ``select_missing`` the ids ``missing`` kept and no
    store; the engine run over every named id against the store agrees."""
    store = CompactEventIdDigest(64)     # no entry runs into the per-entry cap
    for event_id in delivered:
        store.add(event_id)
    raw_ids = tuple(EventId(origin, seq) for origin, frontier, extras in digest
                    for seq in (*range(1, frontier + 1), *extras))
    for request_max in range(len(raw_ids) + 2):            # 0 included
        engines = [RetransmissionEngine(request_max, pending_ttl=4.0)
                   for _ in range(2)]
        for engine in engines:                  # some ids already solicited,
            engine.select_missing(pending[:request_max], (), now=0.0)
        raw, filtered = engines                 # one of them expired by now=5
        assert (filtered.select_missing(store.missing(digest), (), now=2.0)
                == raw.select_missing(raw_ids, store, now=2.0))
        assert (filtered.select_missing(store.missing(digest), (), now=5.0)
                == raw.select_missing(raw_ids, store, now=5.0))
        assert filtered.pending_count() == raw.pending_count()
        assert (filtered.requests_built, filtered.ids_requested) \
            == (raw.requests_built, raw.ids_requested)


# ---------------------------------------------------------------------------
# A guard that is not a clock: Python calls inside one reception
# ---------------------------------------------------------------------------

CALL_BUDGET = 25
"""Python-level ``call`` events inside one ``handle_message`` of the gossip
below.  The per-element spelling made 189 (four method calls for each of 16
subs, 15 more in ``add_all``, one ``__contains__`` per digest id); the bulk
passes make 12 on CPython 3.11 and fewer once comprehensions are inlined."""


def realistic_reception(weighted):
    """A node in steady state — ``view`` and ``subs`` at their bounds of 25
    and 15, 100 ids known, ``unSubs`` empty — and a gossip carrying 16
    unknown subs, four known notifications and a digest of those 100 ids."""
    config = LpbcastConfig(view_max=25, subs_max=15, weighted_views=weighted)
    node = LpbcastNode(0, config, random.Random(1), initial_view=range(1, 26))
    known = tuple((origin, 25, ()) for origin in (1, 2, 3, 4))
    node.handle_message(
        9, GossipMessage(9, subs=tuple(range(100, 116)), event_ids=known), 0.0)
    assert (len(node.view), len(node.subs), len(node.unsubs)) == (25, 15, 0)
    assert node.stats.delivered == 100
    assert node.event_ids.snapshot() == known
    carried = tuple(Notification(EventId(origin, 25), None, 0.0)
                    for origin in (1, 2, 3, 4))
    return node, GossipMessage(8, subs=tuple(range(200, 216)), events=carried,
                               event_ids=known)


def count_python_calls(fn, *args):
    calls = []

    def profiler(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, calls


@pytest.mark.parametrize("weighted", [False, True])
def test_one_reception_stays_within_its_call_budget(weighted):
    node, message = realistic_reception(weighted)
    before = set(node.view) | set(node.subs)
    delivered = node.stats.delivered
    out, calls = count_python_calls(node.handle_message, 8, message, 1.0)
    assert out == []
    assert node.stats.gossips_received == 2
    assert node.stats.delivered == delivered          # every digest id known
    assert node.stats.duplicates == 4                 # and every carried one
    assert (len(node.view), len(node.subs)) == (25, 15)
    assert 0 not in node.view
    held = set(node.view) | set(node.subs)
    assert held <= before | set(message.subs)
    assert held & set(message.subs)                   # some newcomers stayed
    assert all(node.subs.discard(pid) for pid in tuple(node.subs))
    if not weighted:
        # The weighted view (Sec. 6.1) is the generic per-element path by
        # design; only the default configuration has a budget.
        assert len(calls) <= CALL_BUDGET, calls
