"""Logger-extension bench (rpbcast-style strong reliability, Sec. 7).

Quantifies what the deterministic third phase buys and costs: under harsh
conditions (25% loss, starved buffers, no digest-implies-delivery shortcut),
plain lpbcast leaves (event, process) pairs undelivered; adding two loggers
closes the gap completely, at a bounded extra message cost.
"""

import random

from repro.core import LpbcastConfig
from repro.loggers import build_logged_system
from repro.metrics import format_table
from repro.metrics.bandwidth import BandwidthMeter
from repro.sim import NetworkModel, RoundSimulation

N = 40
PUBLISHERS = 8
ROUNDS = 40
LOSS = 0.25


def run(with_loggers: bool, seed: int = 1):
    cfg = LpbcastConfig(
        fanout=3, view_max=10, events_max=3, event_ids_max=6,
        digest_implies_delivery=False,
    )
    clients, loggers = build_logged_system(N, logger_count=2, config=cfg,
                                           seed=seed)
    nodes = clients + (loggers if with_loggers else [])
    if not with_loggers:
        for client in clients:
            client.loggers = ()
    meter = BandwidthMeter()
    sim = RoundSimulation(
        NetworkModel(loss_rate=LOSS, rng=random.Random(seed + 9)), seed=seed
    )
    sim.add_round_hook(meter.on_round)
    sim.add_nodes(nodes)
    published = []
    for client in clients[:PUBLISHERS]:
        notification, uploads = client.publish_logged(None, now=0.0)
        published.append(notification)
        if with_loggers:
            sim.inject(client.pid, uploads)
    sim.run(ROUNDS)
    missing = sum(
        1
        for notification in published
        for client in clients
        if not client.has_contiguously_delivered(notification.event_id)
    )
    recovered = sum(client.recovered_events for client in clients)
    return {
        "missing_pairs": missing,
        "total_pairs": len(published) * len(clients),
        "recovered": recovered,
        "messages": meter.total_messages(),
    }


def test_logger_strong_reliability(benchmark):
    def compute():
        return {
            "plain lpbcast": run(with_loggers=False),
            "with 2 loggers": run(with_loggers=True),
        }

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [
        [name, r["missing_pairs"], r["total_pairs"], r["recovered"],
         r["messages"]]
        for name, r in results.items()
    ]
    print()
    print(format_table(
        ["system", "missing pairs", "total pairs", "recovered", "messages"],
        rows,
        title=f"Logger extension: n={N}, loss={LOSS}, starved buffers, "
              f"{ROUNDS} rounds",
    ))

    plain = results["plain lpbcast"]
    logged = results["with 2 loggers"]
    # The probabilistic protocol alone leaves gaps in this regime...
    assert plain["missing_pairs"] > 0
    # ...the deterministic third phase closes all of them...
    assert logged["missing_pairs"] == 0
    assert logged["recovered"] > 0
    # ...at a bounded cost (well under 3x the message volume).
    assert logged["messages"] < 3 * plain["messages"]
