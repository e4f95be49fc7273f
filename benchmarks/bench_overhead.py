"""Overhead bench — protocol load and its stability (Sec. 3.3).

"The network thus experiences little fluctuations in terms of overall load
due to gossip messages, as long as the number of processes inside Π and also
T remain unchanged."

Measures per-round protocol message counts and serialized byte volume for
lpbcast and pbcast under the same workload, and verifies the load-stability
claim: lpbcast's *message count* is exactly n·F per round regardless of
application traffic (payload volume grows instead), while pbcast adds
data/solicit traffic on top of its digests.
"""

import random

import figlib
from repro.core import LpbcastConfig
from repro.metrics import format_table
from repro.metrics.bandwidth import BandwidthMeter
from repro.pbcast import FIRST_PHASE_NONE, PbcastConfig, build_pbcast_nodes
from repro.sim import BroadcastWorkload, NetworkModel, RoundSimulation, build_lpbcast_nodes
from repro.wire import wire_bytes_of

ROUNDS = 12
N = 60


def run_lpbcast(rate: int, seed: int = 0):
    cfg = LpbcastConfig(fanout=3, view_max=12)
    nodes = build_lpbcast_nodes(N, cfg, seed=seed)
    meter = BandwidthMeter()
    sim = RoundSimulation(
        NetworkModel(loss_rate=figlib.EPSILON, rng=random.Random(seed + 1)),
        seed=seed,
    )
    sim.add_round_hook(meter.on_round)
    sim.add_nodes(nodes)
    if rate:
        workload = BroadcastWorkload(nodes[:10], events_per_round=rate,
                                     start=2, stop=10)
        sim.add_round_hook(workload.on_round)
    sim.run(ROUNDS)
    return meter


def run_pbcast(rate: int, seed: int = 0):
    cfg = PbcastConfig(fanout=3, view_max=12, first_phase=FIRST_PHASE_NONE)
    nodes = build_pbcast_nodes(N, cfg, seed=seed, membership="partial")
    meter = BandwidthMeter()
    sim = RoundSimulation(
        NetworkModel(loss_rate=figlib.EPSILON, rng=random.Random(seed + 1)),
        seed=seed,
    )
    sim.add_round_hook(meter.on_round)
    sim.add_nodes(nodes)
    if rate:
        def publish(node, now):
            notification, first = node.publish(None, now)
            sim.inject(node.pid, first)
            return notification

        workload = BroadcastWorkload(nodes[:10], events_per_round=rate,
                                     start=2, stop=10, publish_fn=publish)
        sim.add_round_hook(workload.on_round)
    sim.run(ROUNDS)
    return meter


def test_overhead_and_stability(benchmark):
    def compute():
        return {
            "lpbcast idle": run_lpbcast(rate=0),
            "lpbcast loaded": run_lpbcast(rate=2),
            "pbcast idle": run_pbcast(rate=0),
            "pbcast loaded": run_pbcast(rate=2),
        }

    meters = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = []
    for name, meter in meters.items():
        rows.append([
            name,
            meter.total_messages(),
            round(meter.total_messages() / ROUNDS / N, 2),
            meter.load_stability(),
            " ".join(f"{k}:{v}" for k, v in sorted(meter.messages_by_kind().items())),
        ])
    print()
    print(format_table(
        ["system", "msgs total", "msgs/round/proc", "load CV", "by kind"],
        rows,
        title=f"Protocol overhead, n={N}, F=3, {ROUNDS} rounds",
    ))

    # lpbcast: exactly F messages per process per round, loaded or not.
    assert meters["lpbcast idle"].total_messages() == N * 3 * ROUNDS
    assert meters["lpbcast loaded"].total_messages() == N * 3 * ROUNDS
    assert meters["lpbcast loaded"].load_stability() < 1e-9

    # pbcast adds solicit/data traffic under load.
    assert (meters["pbcast loaded"].total_messages()
            > meters["pbcast idle"].total_messages())
    kinds = meters["pbcast loaded"].messages_by_kind()
    assert "PbcastSolicit" in kinds and "PbcastData" in kinds


def test_wire_sizes(benchmark):
    from repro.core import GossipMessage
    from repro.core.events import Unsubscription
    from repro.core.ids import EventId
    from repro.core.events import Notification

    def compute():
        empty = GossipMessage(sender=1)
        loaded = GossipMessage(
            sender=1,
            subs=tuple(range(15)),
            unsubs=tuple(Unsubscription(i, 1.0) for i in range(5)),
            events=tuple(
                Notification(EventId(2, s), "x" * 32, 0.0) for s in range(1, 11)
            ),
            # 60 ids held out of order (the bound), over 12 origins.
            event_ids=tuple((origin, 40, tuple(range(42, 52, 2)))
                            for origin in range(3, 15)),
        )
        return wire_bytes_of(empty), wire_bytes_of(loaded)

    empty_size, loaded_size = benchmark.pedantic(compute, rounds=1, iterations=1)
    print(f"\nempty gossip: {empty_size} B, fully loaded gossip: {loaded_size} B")
    assert empty_size < 100
    assert loaded_size < 4096  # a loaded gossip still fits small datagrams
