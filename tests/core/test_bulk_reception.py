"""Phase III and the pull filter in one pass == the walk id by id.

``_phase3_notifications`` reads the received digest against the whole id
store at once (``missing``) and returns when nothing is new.  When
something is, it may deliver from the filtered list only if no delivery of
the walk can evict — a full FIFO ``eventIds`` evicts its oldest id on every
delivery, and if that id comes later in the same digest the sequential
walk re-delivers it.  The walk the node ran before is kept here as the
reference, for both id stores; a second part pins the Python call budget of
one reception, so a per-element method cannot creep back unnoticed.
"""

import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.buffers import CompactEventIdDigest, FifoEventIdBuffer
from repro.core.config import LpbcastConfig
from repro.core.events import Notification
from repro.core.ids import EventId
from repro.core.message import GossipMessage
from repro.core.node import LpbcastNode
from repro.core.retransmit import RetransmissionEngine


class SequentialWalkNode(LpbcastNode):
    """The node with Phase III as it ran before: every digest id tested
    against ``eventIds`` in turn, whatever the buffer's state."""

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
            for event_id in gossip.event_ids:
                if event_id in event_ids:
                    continue
                self._deliver(Notification(event_id, None, now), now,
                              archivable=False)


def twin(cls, compact, event_ids_max, seed):
    config = LpbcastConfig(event_ids_max=event_ids_max, events_max=4,
                           compact_event_ids=compact)
    node = cls(0, config, random.Random(seed), initial_view=(1, 2, 3))
    node.delivered = []
    node.add_delivery_listener(
        lambda pid, notification, now: node.delivered.append((notification, now)))
    return node


def id_state(node):
    ids = node.event_ids
    if isinstance(ids, FifoEventIdBuffer):
        return ids.snapshot()                # oldest first: order matters
    return (tuple((origin, ids.last_in_sequence(origin)) for origin in ids.senders()),
            ids.out_of_order_count(), node._wire_digest())


# Three origins x eight sequence numbers against bounds of 0..10: digests
# repeat ids, outgrow ``event_ids_max`` and find the buffer empty, one short
# of full, full, and long wrapped.
event_ids = st.builds(EventId, st.integers(1, 3), st.integers(1, 8))
gossips = st.tuples(st.lists(event_ids, max_size=4),       # events (payloads)
                    st.lists(event_ids, max_size=24))      # the digest


@given(compact=st.booleans(), event_ids_max=st.integers(0, 10),
       stream=st.lists(gossips, min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_phase3_equals_the_sequential_walk(compact, event_ids_max, stream, seed):
    new = twin(LpbcastNode, compact, event_ids_max, seed)
    old = twin(SequentialWalkNode, compact, event_ids_max, seed)
    for now, (events, digest) in enumerate(stream):
        message = GossipMessage(
            9, events=tuple(Notification(eid, "payload", 0.0) for eid in events),
            event_ids=tuple(digest))
        assert new.handle_message(9, message, float(now)) == []
        assert old.handle_message(9, message, float(now)) == []
        assert new.delivered == old.delivered          # order and listener calls
        assert new.stats == old.stats
        assert id_state(new) == id_state(old)
        assert tuple(new.events) == tuple(old.events)
        assert new.rng.getstate() == old.rng.getstate()


class TestNoEvictionRule:
    """The cases a filter that is only *approximately* right gets wrong."""

    A, B, C, D = (EventId(1, seq) for seq in (1, 2, 3, 4))

    def node_holding(self, *held, event_ids_max=3):
        node = twin(LpbcastNode, False, event_ids_max, seed=0)
        node.handle_message(9, GossipMessage(9, event_ids=held), 0.0)
        node.delivered.clear()
        return node

    def delivered_ids(self, node):
        return [notification.event_id for notification, _ in node.delivered]

    def test_full_buffer_redelivers_the_id_its_own_delivery_evicted(self):
        node = self.node_holding(self.A, self.B, self.C)
        # D is new; delivering it evicts A, which the digest names next.
        node.handle_message(9, GossipMessage(9, event_ids=(self.D, self.A)), 1.0)
        assert self.delivered_ids(node) == [self.D, self.A]
        assert node.event_ids.snapshot() == (self.C, self.D, self.A)
        assert node.stats.event_ids_evicted == 2

    def test_one_short_of_full_delivers_from_the_filtered_list(self):
        node = self.node_holding(self.A, self.B)
        node.handle_message(
            9, GossipMessage(9, event_ids=(self.A, self.D, self.B, self.D)), 1.0)
        assert self.delivered_ids(node) == [self.D]    # the repeat re-checked
        assert node.event_ids.snapshot() == (self.A, self.B, self.D)
        assert node.stats.event_ids_evicted == 0

    def test_all_known_digest_touches_nothing(self):
        node = self.node_holding(self.A, self.B, self.C)
        snapshot = node.event_ids.snapshot()
        node.handle_message(9, GossipMessage(9, event_ids=(self.C, self.A)), 1.0)
        assert node.delivered == []
        assert node.event_ids.snapshot() is snapshot   # the cached tuple


@pytest.mark.parametrize("store", [
    lambda: FifoEventIdBuffer(6), lambda: CompactEventIdDigest(6)])
def test_missing_keeps_order_and_repeats(store):
    ids = store()
    for seq in (1, 2, 4):
        ids.add(EventId(1, seq))
    digest = [EventId(1, 3), EventId(1, 1), EventId(2, 1), EventId(1, 3),
              EventId(1, 4)]
    assert ids.missing(digest) == [EventId(1, 3), EventId(2, 1), EventId(1, 3)]
    assert ids.missing(()) == [] and ids.missing(iter(digest[1:2])) == []


@given(compact=st.booleans(), delivered=st.lists(event_ids, max_size=12),
       pending=st.lists(event_ids, max_size=4),
       digest=st.lists(event_ids, max_size=24))
def test_select_missing_on_the_filtered_digest_equals_the_raw_one(
        compact, delivered, pending, digest):
    store = CompactEventIdDigest(8) if compact else FifoEventIdBuffer(8)
    for event_id in delivered:
        store.add(event_id)
    for request_max in range(len(digest) + 2):             # 0 included
        engines = [RetransmissionEngine(request_max, pending_ttl=4.0)
                   for _ in range(2)]
        for engine in engines:                  # some ids already solicited,
            engine.select_missing(pending[:request_max], (), now=0.0)
        raw, filtered = engines                 # one of them expired by now=5
        assert (filtered.select_missing(store.missing(digest), store, now=2.0)
                == raw.select_missing(tuple(digest), store, now=2.0))
        assert (filtered.select_missing(store.missing(digest), store, now=5.0)
                == raw.select_missing(tuple(digest), store, now=5.0))
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
    unknown subs and a digest of those 100 ids."""
    config = LpbcastConfig(view_max=25, subs_max=15, event_ids_max=104,
                           weighted_views=weighted)
    node = LpbcastNode(0, config, random.Random(1), initial_view=range(1, 26))
    known = tuple(EventId(origin, seq)
                  for origin in (1, 2, 3, 4) for seq in range(1, 26))
    node.handle_message(
        9, GossipMessage(9, subs=tuple(range(100, 116)), event_ids=known), 0.0)
    assert (len(node.view), len(node.subs), len(node.unsubs)) == (25, 15, 0)
    assert node.event_ids.snapshot() == known
    return node, GossipMessage(8, subs=tuple(range(200, 216)), event_ids=known)


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
