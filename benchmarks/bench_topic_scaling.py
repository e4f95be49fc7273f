"""Topic-scaling bench (beyond the paper).

Sec. 3.1 presents lpbcast "with respect to a single topic, and do[es] not
discuss the effect of scaling up topics."  The pub/sub facade runs one
independent lpbcast instance per topic, so protocol traffic grows linearly
with the number of topics a peer subscribes to — this bench quantifies that
(the honest cost of the per-topic design) and verifies dissemination quality
is unaffected by topic count.
"""

import random

from repro.core import LpbcastConfig
from repro.metrics import format_table
from repro.metrics.bandwidth import BandwidthMeter
from repro.pubsub import build_pubsub_peers
from repro.sim import NetworkModel, RoundSimulation

N = 40
ROUNDS = 10


def run(topic_count: int, seed: int = 0):
    topics = {f"t{i}": list(range(N)) for i in range(topic_count)}
    cfg = LpbcastConfig(fanout=3, view_max=8)
    peers = build_pubsub_peers(N, topics, cfg, seed=seed)
    meter = BandwidthMeter()
    sim = RoundSimulation(
        NetworkModel(loss_rate=0.05, rng=random.Random(seed + 31)), seed=seed
    )
    sim.add_round_hook(meter.on_round)
    sim.add_nodes(peers)

    events = {
        name: peers[i % N].publish(name, i, now=0.0)
        for i, name in enumerate(topics)
    }
    sim.run(ROUNDS)

    coverage = []
    for name, event in events.items():
        covered = sum(
            1 for p in range(N)
            if peers[p].topic_node(name).has_delivered(event.event_id)
        )
        coverage.append(covered / N)
    return {
        "messages": meter.total_messages(),
        "coverage": min(coverage),
    }


def test_topic_scaling(benchmark):
    def compute():
        return {t: run(t) for t in (1, 2, 4, 8)}

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [
        [t, r["messages"], round(r["messages"] / (N * 3 * ROUNDS), 2),
         r["coverage"]]
        for t, r in results.items()
    ]
    print()
    print(format_table(
        ["topics", "messages", "x single-topic load", "worst topic coverage"],
        rows,
        title=f"Per-topic instances: traffic vs topic count (n={N}, "
              f"all peers subscribe to all topics)",
    ))

    # Linear growth in protocol messages (one instance per topic)...
    m1 = results[1]["messages"]
    for t in (2, 4, 8):
        ratio = results[t]["messages"] / m1
        assert t * 0.9 <= ratio <= t * 1.1
    # ...with undiminished per-topic dissemination quality.
    assert all(r["coverage"] == 1.0 for r in results.values())
