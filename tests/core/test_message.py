"""Tests for protocol message records."""

import pytest

from repro.core.events import Unsubscription
from repro.core.ids import EventId
from repro.core.message import (
    GossipMessage,
    Outgoing,
    RetransmitRequest,
    RetransmitResponse,
    SubscriptionAck,
    SubscriptionRequest,
)

from ..helpers import notification


class TestGossipMessage:
    def test_defaults_are_empty(self):
        g = GossipMessage(sender=1)
        assert g.subs == ()
        assert g.unsubs == ()
        assert g.events == ()
        assert g.event_ids == ()

    def test_immutable(self):
        g = GossipMessage(sender=1)
        with pytest.raises(Exception):
            g.subs = (2,)

    def test_size_estimate_counts_elements(self):
        g = GossipMessage(
            sender=1,
            subs=(2, 3),
            unsubs=(Unsubscription(4, 0.0),),
            events=(notification(1, 1),),
            event_ids=((1, 2, ()), (7, 0, (4,))),
        )
        # The digest counts for the ids it names: 1#1, 1#2 and 7#4.
        assert g.size_estimate() == 1 + 2 + 1 + 1 + 3

    def test_empty_gossip_has_header_only(self):
        assert GossipMessage(sender=1).size_estimate() == 1


class TestAuxiliaryMessages:
    def test_subscription_request(self):
        assert SubscriptionRequest(5).subscriber == 5

    def test_subscription_ack_sample(self):
        ack = SubscriptionAck(contact=1, view_sample=(2, 3))
        assert ack.view_sample == (2, 3)

    def test_retransmit_request(self):
        req = RetransmitRequest(9, (EventId(1, 1),))
        assert req.requester == 9

    def test_retransmit_response(self):
        resp = RetransmitResponse(3, (notification(1, 1),))
        assert resp.responder == 3

    def test_outgoing_pairs(self):
        out = Outgoing(7, "message")
        assert out.destination == 7
        assert out.message == "message"
