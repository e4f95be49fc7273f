"""Tests for periodic gossip emission — Figure 1(b)."""

from repro.core import GossipMessage

from ..helpers import gossip, ids_named, make_node, notification


def tick_gossips(node, now=1.0):
    """Run on_tick and return the GossipMessage payloads sent."""
    out = node.on_tick(now)
    return [o for o in out if isinstance(o.message, GossipMessage)]


class TestEmission:
    def test_gossips_to_fanout_targets(self):
        node = make_node(view=tuple(range(1, 11)), fanout=3, view_max=10)
        out = tick_gossips(node)
        assert len(out) == 3
        destinations = {o.destination for o in out}
        assert len(destinations) == 3
        assert destinations <= set(range(1, 11))

    def test_gossips_even_without_events(self):
        # "This is done even if the process has not received any new
        # notifications since it last sent a gossip message."
        node = make_node(view=(1, 2, 3))
        out = tick_gossips(node)
        assert len(out) == 3
        assert all(o.message.events == () for o in out)

    def test_sender_advertises_itself(self):
        node = make_node(pid=7, view=(1, 2, 3))
        out = tick_gossips(node)
        assert all(7 in o.message.subs for o in out)

    def test_events_cleared_after_gossip(self):
        # Each notification is forwarded at most once per process.
        node = make_node(view=(1, 2, 3))
        node.on_gossip(gossip(events=(notification(9, 1),)), now=0.5)
        first = tick_gossips(node, now=1.0)
        assert any(o.message.events for o in first)
        second = tick_gossips(node, now=2.0)
        assert all(o.message.events == () for o in second)

    def test_digest_carried_every_round(self):
        node = make_node(view=(1, 2, 3))
        n = notification(9, 1)
        node.on_gossip(gossip(events=(n,)), now=0.5)
        tick_gossips(node, now=1.0)
        second = tick_gossips(node, now=2.0)
        assert all(n.event_id in ids_named(o.message.event_ids)
                   for o in second)

    def test_same_gossip_object_to_all_targets(self):
        node = make_node(view=(1, 2, 3, 4, 5), fanout=3)
        out = tick_gossips(node)
        assert len({id(o.message) for o in out}) == 1

    def test_empty_view_sends_nothing(self):
        node = make_node(view=())
        assert node.on_tick(1.0) == []
        assert node.stats.gossips_sent == 0

    def test_unsubs_forwarded(self):
        node = make_node(view=(1, 2, 3))
        from ..helpers import unsub
        node.on_gossip(gossip(unsubs=(unsub(9, timestamp=1.0),)), now=1.0)
        out = tick_gossips(node, now=2.0)
        assert all(any(u.pid == 9 for u in o.message.unsubs) for o in out)

    def test_obsolete_unsubs_purged_on_tick(self):
        node = make_node(view=(1, 2, 3), unsub_ttl=5.0)
        from ..helpers import unsub
        node.on_gossip(gossip(unsubs=(unsub(9, timestamp=1.0),)), now=1.0)
        out = tick_gossips(node, now=50.0)
        assert all(o.message.unsubs == () for o in out)


class TestMembershipFrequency:
    def test_membership_every_kth_round(self):
        node = make_node(pid=7, view=(1, 2, 3), membership_period=3)
        rounds_with_membership = []
        for r in range(1, 7):
            out = tick_gossips(node, now=float(r))
            if any(o.message.subs for o in out):
                rounds_with_membership.append(r)
        # Ticks 3 and 6 only (k=3).
        assert rounds_with_membership == [3, 6]

    def test_membership_boost_sends_extra_gossips(self):
        node = make_node(view=(1, 2, 3, 4, 5), fanout=2, membership_boost=2)
        out = tick_gossips(node)
        # 1 regular batch of F + 2 boost batches of F.
        assert len(out) == 6
        boost_messages = [o.message for o in out if o.message.events == ()
                          and o.message.event_ids == ()]
        assert len(boost_messages) >= 4  # boosts carry membership only

    def test_boost_gossips_carry_subs(self):
        node = make_node(pid=7, view=(1, 2, 3), membership_boost=1)
        out = tick_gossips(node)
        assert all(7 in o.message.subs for o in out)

    def test_boost_gossips_counted_as_sent(self):
        # Boost emissions are real wire traffic: each boost batch increments
        # gossips_sent exactly like the regular per-tick emission.
        node = make_node(view=(1, 2, 3, 4, 5), fanout=2, membership_boost=2)
        tick_gossips(node)
        assert node.stats.gossips_sent == 3  # 1 regular + 2 boost batches

    def test_boost_with_empty_view_sends_nothing(self):
        node = make_node(view=(), membership_boost=3)
        assert node.on_tick(1.0) == []
        assert node.stats.gossips_sent == 0


class TestWeightedSubsConstruction:
    def test_weighted_payload_includes_low_weight_view_entries(self):
        node = make_node(pid=0, view=(1, 2, 3, 4), weighted_views=True,
                         subs_max=3, view_max=10)
        # Raise awareness of 1 and 2; payload should prefer 3 and 4.
        node.on_gossip(gossip(subs=(1, 2)), now=0.5)
        out = tick_gossips(node, now=1.0)
        payload = set(out[0].message.subs)
        assert {3, 4} <= payload
        assert 0 in payload  # self always advertised
