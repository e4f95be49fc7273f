"""Tests for the logged client and the end-to-end strong guarantee."""

import random

import pytest

from repro.core import LpbcastConfig
from repro.core.ids import EventId
from repro.loggers import (
    LoggedLpbcastNode,
    LogUpload,
    LogUploadAck,
    RecoveryRequest,
    RecoveryResponse,
    build_logged_system,
)
from repro.sim import NetworkModel, RoundSimulation

from ..helpers import notification


def make_client(pid=0, loggers=(900,), **overrides):
    cfg = LpbcastConfig(digest_implies_delivery=False, **overrides)
    return LoggedLpbcastNode(pid, cfg, random.Random(pid),
                             initial_view=(1, 2, 3), loggers=loggers)


class TestUploads:
    def test_publish_uploads_to_all_loggers(self):
        client = make_client(loggers=(900, 901))
        n, uploads = client.publish_logged("x", now=0.0)
        assert len(uploads) == 2
        assert {u.destination for u in uploads} == {900, 901}
        assert all(isinstance(u.message, LogUpload) for u in uploads)

    def test_unacked_uploads_retried_each_tick(self):
        client = make_client()
        n, _ = client.publish_logged("x", now=0.0)
        out = client.on_tick(now=1.0)
        uploads = [o for o in out if isinstance(o.message, LogUpload)]
        assert len(uploads) == 1

    def test_ack_stops_retries(self):
        client = make_client()
        n, _ = client.publish_logged("x", now=0.0)
        client.handle_message(900, LogUploadAck(900, n.event_id), now=0.5)
        out = client.on_tick(now=1.0)
        assert not any(isinstance(o.message, LogUpload) for o in out)


class TestRecovery:
    def test_recovery_request_every_period(self):
        client = make_client()
        requests = 0
        for tick in range(1, 7):
            out = client.on_tick(now=float(tick))
            requests += sum(
                1 for o in out if isinstance(o.message, RecoveryRequest)
            )
        assert requests == 2  # period 3, ticks 3 and 6

    def test_frontier_reflects_contiguous_deliveries(self):
        client = make_client()
        from ..helpers import gossip
        client.on_gossip(gossip(events=(notification(5, 1),
                                        notification(5, 2))), now=0.0)
        assert client.frontier() == (EventId(5, 2),)

    def test_recovery_response_delivers_missing(self):
        client = make_client()
        missing = notification(5, 1, "recovered")
        client.handle_message(
            900, RecoveryResponse(900, (missing,)), now=1.0
        )
        assert client.has_contiguously_delivered(missing.event_id)
        assert client.recovered_events == 1

    def test_recovery_response_skips_known(self):
        client = make_client()
        from ..helpers import gossip
        n = notification(5, 1)
        client.on_gossip(gossip(events=(n,)), now=0.0)
        client.handle_message(900, RecoveryResponse(900, (n,)), now=1.0)
        assert client.recovered_events == 0

    def test_invalid_recovery_period(self):
        with pytest.raises(ValueError):
            LoggedLpbcastNode(0, recovery_period=0)

    def test_causal_delivery_rejected(self):
        with pytest.raises(ValueError, match="no binary record"):
            make_client(causal_delivery=True)


class TestStrongGuarantee:
    def run_system(self, with_loggers: bool, seed=3):
        """Harsh conditions: 25% loss, starved buffers, no digest shortcut."""
        cfg = LpbcastConfig(
            fanout=3, view_max=10, events_max=3, event_ids_max=6,
            digest_implies_delivery=False,
        )
        clients, loggers = build_logged_system(
            30, logger_count=2, config=cfg, seed=seed
        )
        nodes = clients + (loggers if with_loggers else [])
        if not with_loggers:
            for client in clients:
                client.loggers = ()
        sim = RoundSimulation(
            NetworkModel(loss_rate=0.25, rng=random.Random(seed + 9)),
            seed=seed,
        )
        sim.add_nodes(nodes)
        published = []
        for client in clients[:6]:
            n, uploads = client.publish_logged({"from": client.pid}, now=0.0)
            published.append(n)
            if with_loggers:
                sim.inject(client.pid, uploads)
        sim.run(40)
        missing = sum(
            1
            for n in published
            for client in clients
            if not client.has_contiguously_delivered(n.event_id)
        )
        return missing, len(published) * len(clients)

    def test_without_loggers_events_are_lost(self):
        missing, total = self.run_system(with_loggers=False)
        assert missing > 0  # probabilistic-only delivery leaves gaps

    def test_with_loggers_everyone_delivers_everything(self):
        missing, total = self.run_system(with_loggers=True)
        assert missing == 0

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            build_logged_system(0)
        with pytest.raises(ValueError):
            build_logged_system(5, logger_count=0)

    def test_builder_wiring(self):
        clients, loggers = build_logged_system(5, logger_count=2, seed=0)
        assert len(clients) == 5 and len(loggers) == 2
        logger_pids = {lg.pid for lg in loggers}
        assert all(set(c.loggers) == logger_pids for c in clients)
