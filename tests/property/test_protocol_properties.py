"""Property-based tests of protocol-level invariants.

Feed a node arbitrary (well-formed) gossip sequences and check that the
paper's structural invariants can never be violated: bounded buffers, no
self-knowledge, at-most-once delivery — an id, once delivered, is remembered
for good.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GossipMessage, LpbcastConfig, LpbcastNode
from repro.core.events import Notification, Unsubscription
from repro.core.ids import EventId

pids = st.integers(min_value=0, max_value=20)
seqs = st.integers(min_value=1, max_value=20)
event_ids = st.builds(EventId, origin=pids, seq=seqs)
notifications = st.builds(
    Notification,
    event_id=event_ids,
    payload=st.none(),
    created_at=st.just(0.0),
)
unsubs = st.builds(
    Unsubscription, pid=pids, timestamp=st.floats(min_value=0.0, max_value=5.0)
)
# Raw digest entries: origins may repeat, frontiers run ahead of or behind the
# node, extras ascend past the frontier (all a decoder lets through).
digest_entries = st.tuples(
    pids, st.integers(min_value=0, max_value=20),
    st.lists(st.integers(1, 9), max_size=4, unique=True).map(sorted),
).map(lambda e: (e[0], e[1], tuple(e[1] + gap for gap in e[2])))
gossips = st.builds(
    GossipMessage,
    sender=pids,
    subs=st.lists(pids, max_size=8).map(tuple),
    unsubs=st.lists(unsubs, max_size=4).map(tuple),
    events=st.lists(notifications, max_size=8).map(tuple),
    event_ids=st.lists(digest_entries, max_size=8).map(tuple),
)


def fresh_node(seed: int) -> LpbcastNode:
    config = LpbcastConfig(
        fanout=2, view_max=4, events_max=5, event_ids_max=8,
        subs_max=4, unsubs_max=3,
    )
    return LpbcastNode(0, config, random.Random(seed), initial_view=(1, 2))


class TestNodeInvariants:
    @settings(max_examples=60, deadline=None)
    @given(messages=st.lists(gossips, max_size=25),
           seed=st.integers(0, 2**32 - 1))
    def test_bounds_hold_under_arbitrary_gossip(self, messages, seed):
        node = fresh_node(seed)
        for i, message in enumerate(messages):
            node.on_gossip(message, now=float(i))
            if i % 3 == 0:
                node.on_tick(now=float(i))
            assert len(node.view) <= node.config.view_max
            assert len(node.subs) <= node.config.subs_max
            assert len(node.unsubs) <= node.config.unsubs_max
            assert len(node.events) <= node.config.events_max
            assert len(node.event_ids) <= node.config.event_ids_max

    @settings(max_examples=60, deadline=None)
    @given(messages=st.lists(gossips, max_size=25),
           seed=st.integers(0, 2**32 - 1))
    def test_never_knows_itself(self, messages, seed):
        node = fresh_node(seed)
        for i, message in enumerate(messages):
            node.on_gossip(message, now=float(i))
            assert node.pid not in node.view
            assert node.pid not in node.subs

    @settings(max_examples=60, deadline=None)
    @given(messages=st.lists(gossips, max_size=25),
           seed=st.integers(0, 2**32 - 1))
    def test_deliveries_unique_while_remembered(self, messages, seed):
        node = fresh_node(seed)
        deliveries = []
        node.add_delivery_listener(lambda pid, n, now: deliveries.append(n.event_id))
        for i, message in enumerate(messages):
            node.on_gossip(message, now=float(i))
            # No id is delivered twice, overflow or not: folding the oldest
            # out-of-order id into its frontier only adds to what is known.
            assert len(deliveries) == len(set(deliveries))
            assert all(eid in node.event_ids for eid in deliveries)

    @settings(max_examples=60, deadline=None)
    @given(messages=st.lists(gossips, max_size=15),
           seed=st.integers(0, 2**32 - 1))
    def test_outgoing_messages_never_target_self(self, messages, seed):
        node = fresh_node(seed)
        for i, message in enumerate(messages):
            for out in node.on_gossip(message, now=float(i)):
                assert out.destination != node.pid
            for out in node.on_tick(now=float(i)):
                assert out.destination != node.pid

    @settings(max_examples=60, deadline=None)
    @given(messages=st.lists(gossips, max_size=15),
           seed=st.integers(0, 2**32 - 1))
    def test_gossip_payload_bounded(self, messages, seed):
        node = fresh_node(seed)
        cfg = node.config
        for i, message in enumerate(messages):
            node.on_gossip(message, now=float(i))
            for out in node.on_tick(now=float(i)):
                g = out.message
                assert len(g.subs) <= cfg.subs_max + 1   # + self
                assert len(g.unsubs) <= cfg.unsubs_max
                assert len(g.events) <= cfg.events_max
                origins = [origin for origin, _, _ in g.event_ids]
                assert len(origins) == len(set(origins))    # one entry each
                assert sum(len(extras) for _, _, extras in g.event_ids) \
                    <= cfg.event_ids_max
