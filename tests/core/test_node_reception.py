"""Tests for gossip reception — the three phases of Figure 1(a)."""

import pickle
import random

from repro.core import LpbcastConfig, LpbcastNode
from repro.core.ids import EventId

from ..helpers import gossip, make_node, notification, unsub


class TestPhase1Unsubscriptions:
    def test_unsubscription_removed_from_view(self):
        node = make_node(view=(2, 3, 4))
        node.on_gossip(gossip(unsubs=(unsub(3),)), now=1.0)
        assert 3 not in node.view
        assert 2 in node.view

    def test_unsubscription_buffered_for_forwarding(self):
        node = make_node(view=(2, 3))
        node.on_gossip(gossip(unsubs=(unsub(3),)), now=1.0)
        assert 3 in node.unsubs

    def test_obsolete_unsubscription_ignored(self):
        node = make_node(view=(2, 3), unsub_ttl=5.0)
        node.on_gossip(gossip(unsubs=(unsub(3, timestamp=0.0),)), now=100.0)
        assert 3 in node.view
        assert 3 not in node.unsubs

    def test_unsubs_buffer_truncated_to_bound(self):
        node = make_node(unsubs_max=3)
        unsubs = tuple(unsub(pid, timestamp=1.0) for pid in range(10, 20))
        node.on_gossip(gossip(unsubs=unsubs), now=1.0)
        assert len(node.unsubs) == 3

    def test_unsubscription_for_unknown_process_still_buffered(self):
        node = make_node(view=(2,))
        node.on_gossip(gossip(unsubs=(unsub(42),)), now=1.0)
        assert 42 in node.unsubs


class TestPhase2Subscriptions:
    def test_new_subscription_enters_view_and_subs(self):
        node = make_node(view=(2,))
        node.on_gossip(gossip(subs=(5,)), now=1.0)
        assert 5 in node.view
        assert 5 in node.subs

    def test_own_id_rejected(self):
        node = make_node(pid=0)
        node.on_gossip(gossip(subs=(0,)), now=1.0)
        assert 0 not in node.view
        assert 0 not in node.subs

    def test_known_subscription_not_re_added_to_subs(self):
        node = make_node(view=(5,))
        node.on_gossip(gossip(subs=(5,)), now=1.0)
        assert 5 not in node.subs

    def test_view_overflow_recycles_evictees_into_subs(self):
        node = make_node(view=(1, 2, 3), view_max=3, fanout=2, subs_max=10)
        node.on_gossip(gossip(subs=(7,)), now=1.0)
        assert len(node.view) == 3
        # One of {1,2,3,7} was evicted and must now be advertised in subs.
        in_subs = set(node.subs)
        evicted = {1, 2, 3, 7} - set(node.view)
        assert evicted <= in_subs

    def test_subs_buffer_truncated(self):
        node = make_node(subs_max=2, view_max=50, fanout=1)
        node.on_gossip(gossip(subs=tuple(range(10, 30))), now=1.0)
        assert len(node.subs) == 2

    def test_buffered_unsubscription_blocks_readdition(self):
        # Death-certificate rule: while 9's unsubscription is buffered, a
        # stale subscription for 9 cannot re-enter the view.
        node = make_node(view=(9,), unsub_ttl=5.0)
        node.on_gossip(gossip(subs=(9,), unsubs=(unsub(9, timestamp=1.0),)), now=1.0)
        assert 9 not in node.view
        assert 9 not in node.subs

    def test_resubscription_accepted_after_certificate_expires(self):
        node = make_node(view=(9,), unsub_ttl=5.0)
        node.on_gossip(gossip(unsubs=(unsub(9, timestamp=1.0),)), now=1.0)
        node.on_tick(now=10.0)  # ttl expires the certificate
        node.on_gossip(gossip(subs=(9,)), now=10.5)
        assert 9 in node.view


class TestPhase3Notifications:
    def test_fresh_notification_delivered(self):
        node = make_node(view=(2,))
        delivered = []
        node.add_delivery_listener(lambda pid, n, now: delivered.append(n))
        n1 = notification(2, 1, "hello")
        node.on_gossip(gossip(events=(n1,)), now=1.0)
        assert delivered == [n1]
        assert node.has_delivered(n1.event_id)

    def test_duplicate_not_redelivered(self):
        node = make_node(view=(2,))
        delivered = []
        node.add_delivery_listener(lambda pid, n, now: delivered.append(n))
        n1 = notification(2, 1)
        node.on_gossip(gossip(events=(n1,)), now=1.0)
        node.on_gossip(gossip(events=(n1,)), now=2.0)
        assert len(delivered) == 1
        assert node.stats.duplicates == 1

    def test_delivered_notification_staged_for_forwarding(self):
        node = make_node(view=(2,))
        n1 = notification(2, 1)
        node.on_gossip(gossip(events=(n1,)), now=1.0)
        assert node.events.contains_key(n1.event_id)

    def test_events_buffer_overflow_drops_randomly(self):
        node = make_node(view=(2,), events_max=3)
        events = tuple(notification(2, seq) for seq in range(1, 10))
        node.on_gossip(gossip(events=events), now=1.0)
        assert len(node.events) == 3
        assert node.stats.events_dropped == 6

    def test_event_ids_bounded_oldest_dropped(self):
        node = make_node(view=(2,), event_ids_max=3)
        events = tuple(notification(2, seq) for seq in (3, 5, 7, 9))
        node.on_gossip(gossip(events=events), now=1.0)
        # Four ids out of order against a bound of three: the oldest (seq 3)
        # was folded into origin 2's frontier, which wrote off seqs 1 and 2.
        assert len(node.event_ids) == 3
        assert node.event_ids.last_in_sequence(2) == 3
        assert node.stats.event_ids_evicted == 2
        # They read as delivered now: a late copy is a duplicate, not news.
        assert node.has_delivered(EventId(2, 1))
        node.on_gossip(gossip(events=(notification(2, 1),)), now=2.0)
        assert (node.stats.delivered, node.stats.duplicates) == (4, 1)

    def test_digest_implies_delivery_default(self):
        node = make_node(view=(2,))
        eid = EventId(9, 4)
        node.on_gossip(gossip(event_ids=(eid,)), now=1.0)
        assert node.has_delivered(eid)
        assert node.stats.delivered == 1

    def test_digest_delivery_synthetic_not_staged_into_events(self):
        node = make_node(view=(2,))
        node.on_gossip(gossip(event_ids=(EventId(9, 4),)), now=1.0)
        assert len(node.events) == 0

    def test_digest_delivery_disabled(self):
        node = make_node(view=(2,), digest_implies_delivery=False)
        eid = EventId(9, 4)
        node.on_gossip(gossip(event_ids=(eid,)), now=1.0)
        assert not node.has_delivered(eid)

    def test_digest_known_id_not_redelivered(self):
        node = make_node(view=(2,))
        n1 = notification(2, 1)
        node.on_gossip(gossip(events=(n1,)), now=1.0)
        node.on_gossip(gossip(event_ids=(n1.event_id,)), now=2.0)
        assert node.stats.delivered == 1


class TestIdStoreTravelsWithTheNode:
    def test_node_pickled_into_a_shard_keeps_its_id_store(self):
        # The sharded engine ships nodes to its workers by pickle: frontiers,
        # extras and the order the extras arrived in (which decides the next
        # fold) must all arrive.
        node = make_node(view=(2,), event_ids_max=3)
        held = [EventId(1, 1), EventId(1, 6), EventId(2, 4), EventId(1, 4)]
        node.on_gossip(gossip(event_ids=held), now=1.0)
        assert node.event_ids.snapshot() == ((1, 1, (4, 6)), (2, 0, (4,)))
        clone = pickle.loads(pickle.dumps(node))
        assert clone.event_ids.snapshot() == node.event_ids.snapshot()
        assert list(clone.event_ids._extras) == list(node.event_ids._extras)
        deliveries = []
        clone.add_delivery_listener(
            lambda pid, n, now: deliveries.append(n.event_id))
        clone.on_gossip(gossip(event_ids=held), now=2.0)
        assert deliveries == []                      # nothing is news twice
        for twin in (node, clone):                   # a fourth extra: a fold
            twin.on_gossip(gossip(event_ids=(EventId(3, 5),)), now=3.0)
        assert deliveries == [EventId(3, 5)]
        assert clone.event_ids.snapshot() == node.event_ids.snapshot() \
            == ((1, 4, (6,)), (2, 0, (4,)), (3, 0, (5,)))  # (1,4) was oldest
        # ... and its fold wrote off (1,2) and (1,3), on both.
        assert clone.stats.event_ids_evicted == node.stats.event_ids_evicted == 2


class TestDispatch:
    def test_unknown_message_type_raises(self):
        node = make_node()
        try:
            node.handle_message(1, object(), now=0.0)
        except TypeError as exc:
            assert "unknown message" in str(exc)
        else:
            raise AssertionError("expected TypeError")

    def test_gossip_counter(self):
        node = make_node(view=(2,))
        node.handle_message(2, gossip(), now=1.0)
        assert node.stats.gossips_received == 1


class TestPublish:
    def test_publisher_delivers_locally(self):
        node = make_node(view=(2,))
        delivered = []
        node.add_delivery_listener(lambda pid, n, now: delivered.append(n))
        n = node.lpb_cast("x", now=0.0)
        assert delivered == [n]
        assert node.has_delivered(n.event_id)
        assert node.events.contains_key(n.event_id)

    def test_sequence_numbers_increase(self):
        node = make_node(view=(2,))
        a = node.lpb_cast(now=0.0)
        b = node.lpb_cast(now=0.0)
        assert b.event_id.seq == a.event_id.seq + 1

    def test_publish_after_unsubscribe_rejected(self):
        node = make_node(view=(2,))
        assert node.try_unsubscribe(now=0.0)
        try:
            node.lpb_cast("x", now=1.0)
        except RuntimeError:
            pass
        else:
            raise AssertionError("expected RuntimeError")
