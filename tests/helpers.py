"""Shared builders for the test suite."""

from __future__ import annotations

import random
from typing import List, Optional

from repro.core import GossipMessage, LpbcastConfig, LpbcastNode
from repro.core.buffers import CompactEventIdDigest
from repro.core.events import Notification, Unsubscription
from repro.core.ids import EventId
from repro.metrics import DeliveryLog
from repro.sim import NetworkModel, RoundSimulation, build_lpbcast_nodes


def make_node(
    pid: int = 0,
    seed: int = 0,
    view: tuple = (),
    **config_overrides,
) -> LpbcastNode:
    """A single node with a seeded rng and explicit initial view."""
    config = LpbcastConfig(**config_overrides) if config_overrides else LpbcastConfig()
    return LpbcastNode(pid, config, random.Random(seed), initial_view=view)


def digest_of(event_ids) -> tuple:
    """The digest a process that delivered exactly ``event_ids`` (in that
    order) gossips: per-origin ``(origin, frontier, extras)`` entries."""
    event_ids = list(event_ids)
    store = CompactEventIdDigest(max_out_of_order=len(event_ids))
    for event_id in event_ids:
        store.add(event_id)
    return store.snapshot()


def ids_named(digest) -> set:
    """Every ``EventId`` a digest stands for."""
    return {EventId(origin, seq)
            for origin, frontier, extras in digest
            for seq in (*range(1, frontier + 1), *extras)}


def gossip(
    sender: int = 99,
    subs: tuple = (),
    unsubs: tuple = (),
    events: tuple = (),
    event_ids: tuple = (),
) -> GossipMessage:
    """``event_ids`` are the ids the digest is to name (see
    :func:`digest_of`)."""
    return GossipMessage(
        sender, subs=subs, unsubs=unsubs, events=events,
        event_ids=digest_of(event_ids),
    )


def notification(origin: int = 1, seq: int = 1, payload=None,
                 deps: tuple = ()) -> Notification:
    return Notification(EventId(origin, seq), payload, 0.0, deps)


def unsub(pid: int, timestamp: float = 0.0) -> Unsubscription:
    return Unsubscription(pid, timestamp)


def small_system(
    n: int = 20,
    seed: int = 0,
    loss_rate: float = 0.0,
    config: Optional[LpbcastConfig] = None,
):
    """(sim, nodes, log) triple for integration-style unit tests."""
    cfg = config if config is not None else LpbcastConfig(fanout=3, view_max=8)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    network = NetworkModel(loss_rate=loss_rate, rng=random.Random(seed + 1000))
    sim = RoundSimulation(network, seed=seed)
    sim.add_nodes(nodes)
    log = DeliveryLog().attach(nodes)
    return sim, nodes, log


def run_dissemination(n: int = 30, rounds: int = 12, seed: int = 0,
                      loss_rate: float = 0.0, config=None):
    """Publish one event at node 0 and run; returns (sim, nodes, log, event)."""
    sim, nodes, log = small_system(n, seed=seed, loss_rate=loss_rate, config=config)
    event = nodes[0].lpb_cast("payload", now=0.0)
    sim.run(rounds)
    return sim, nodes, log, event
