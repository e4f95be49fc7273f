"""Mergeable per-round node aggregates — the recorder's shard-safe feed.

:class:`RunRecorder` needs, after every round, a handful of *system-level*
sums: delivered/duplicate/drop counters, buffer occupancies and in-degree
statistics.  Reading those through full node snapshots is exact but forces
the sharded engine to pickle every node every round.  This module computes
the same numbers as a small, picklable :class:`NodeAggregates` value —
each shard aggregates its own alive nodes locally, and aggregates from
disjoint node sets merge by summation, so the coordinator-side merge equals
the serial engine's direct read exactly (all fields are integer sums, and
the derived float statistics are computed from the merged integers in
sorted order on every engine).

The in-degree statistics follow :func:`repro.metrics.views.in_degree_stats`
but merge across shards: the *knows-about* graph spans the aggregated
processes plus every view target they reference, edges are deduplicated per
(holder, target), and the degree population covers all graph nodes —
including crashed processes that alive views still reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

#: NodeStats fields summed into ``stat_sums`` (missing fields count 0, so
#: non-lpbcast protocol nodes aggregate as zeros instead of raising).
STAT_FIELDS = (
    "published", "delivered", "duplicates", "gossips_sent",
    "gossips_received", "events_dropped", "event_ids_evicted",
    "retransmit_requests_sent", "retransmits_delivered",
)

#: Buffer attributes whose ``len`` feeds the occupancy means.
OCCUPANCY_FIELDS = ("events", "event_ids", "subs")


@dataclass
class NodeAggregates:
    """Summed node state over one disjoint set of (alive) processes."""

    count: int = 0
    stat_sums: Dict[str, int] = field(default_factory=dict)
    occupancy_sums: Dict[str, int] = field(default_factory=dict)
    in_degree: Dict[int, int] = field(default_factory=dict)
    graph_nodes: Set[int] = field(default_factory=set)

    def merge(self, other: "NodeAggregates") -> "NodeAggregates":
        """Fold ``other`` (over a disjoint node set) into this aggregate."""
        self.count += other.count
        for name, value in other.stat_sums.items():
            self.stat_sums[name] = self.stat_sums.get(name, 0) + value
        for name, value in other.occupancy_sums.items():
            self.occupancy_sums[name] = \
                self.occupancy_sums.get(name, 0) + value
        for pid, degree in other.in_degree.items():
            self.in_degree[pid] = self.in_degree.get(pid, 0) + degree
        self.graph_nodes |= other.graph_nodes
        return self

    # -- derived quantities --------------------------------------------------
    def stat_total(self, name: str) -> int:
        return self.stat_sums.get(name, 0)

    def occupancy_mean(self, name: str) -> float:
        if self.count == 0:
            return 0.0
        return self.occupancy_sums.get(name, 0) / self.count

    def in_degree_stats(self) -> Optional[Tuple[float, float, int]]:
        """``(mean, std, min)`` over the knows-about graph, or ``None`` when
        no processes were aggregated."""
        if not self.graph_nodes:
            return None
        degrees = [self.in_degree.get(pid, 0)
                   for pid in sorted(self.graph_nodes)]
        mean = sum(degrees) / len(degrees)
        var = sum((d - mean) ** 2 for d in degrees) / len(degrees)
        return (mean, math.sqrt(var), min(degrees))


def aggregate_nodes(nodes: Iterable) -> NodeAggregates:
    """Aggregate real (in-process) node objects.

    Tolerates nodes without ``stats``/buffer attributes (they contribute
    zeros and no view edges), mirroring how the metrics layer treats
    non-lpbcast protocol nodes.
    """
    agg = NodeAggregates()
    for node in nodes:
        agg.count += 1
        stats = getattr(node, "stats", None)
        if stats is not None:
            for name in STAT_FIELDS:
                value = getattr(stats, name, 0)
                if value:
                    agg.stat_sums[name] = agg.stat_sums.get(name, 0) + value
        for name in OCCUPANCY_FIELDS:
            buf = getattr(node, name, None)
            if buf is not None:
                agg.occupancy_sums[name] = \
                    agg.occupancy_sums.get(name, 0) + len(buf)
        view = getattr(node, "view", None)
        if view is not None:
            try:
                targets = set(view)
            except TypeError:
                targets = set()
            agg.graph_nodes.add(node.pid)
            agg.graph_nodes.update(targets)
            for target in targets:
                agg.in_degree[target] = agg.in_degree.get(target, 0) + 1
    return agg


def merge_aggregates(parts: Sequence[NodeAggregates]) -> NodeAggregates:
    """Merge shard-local aggregates over disjoint node sets."""
    merged = NodeAggregates()
    for part in parts:
        merged.merge(part)
    return merged
