"""Round-by-round run recording.

A :class:`RunRecorder` snapshots system-level state after every round —
infection progress, buffer occupancies, view statistics, network counters —
into plain dictionaries that can be inspected in-process or exported as
JSON lines for offline analysis.  This is the observability layer a
production operator would want: the reliability loss of Fig. 6 shows up
here as ``events_dropped_total`` climbing; ``event_ids_occupancy`` is the
mean count of ids held *out of order* (what ``|eventIds|m`` bounds) and
``event_ids_evicted_total`` the never-delivered ids its folds wrote off.

Engines that expose ``node_aggregates()`` (all repro engines do) feed the
recorder through :mod:`repro.sim.aggregates`: shards sum their own alive
nodes locally and ship a few integers per round.  The previous
implementation called ``refresh_nodes()`` — a full node pickle of the
whole system — on every round of a sharded run; the aggregate path records
the same numbers without moving node state, and serial vs sharded runs of
the same seed produce identical records.
"""

from __future__ import annotations

import json
from typing import IO, Dict, List, Optional, Sequence


class RunRecorder:
    """Collects one record per round; register as a round observer."""

    def __init__(
        self,
        nodes: Sequence,
        sample_view_stats: bool = True,
        stream: Optional[IO[str]] = None,
    ) -> None:
        self.nodes = list(nodes)
        self.sample_view_stats = sample_view_stats
        self.stream = stream
        self.records: List[Dict] = []

    # -- wiring ---------------------------------------------------------------
    def on_round(self, round_number: int, sim) -> None:
        record = self.snapshot(sim, round_number)
        self.records.append(record)
        if self.stream is not None:
            self.stream.write(json.dumps(record, separators=(",", ":")) + "\n")

    def snapshot(self, sim, round_number: int) -> Dict:
        aggregates = getattr(sim, "node_aggregates", None)
        if aggregates is not None:
            agg = aggregates([n.pid for n in self.nodes])
        else:
            # Engine without the aggregate feed: read node state directly
            # (out-of-process engines need their replicas synced first).
            refresh = getattr(sim, "refresh_nodes", None)
            if refresh is not None:
                refresh()
            from .aggregates import aggregate_nodes

            agg = aggregate_nodes(
                sim.nodes.get(n.pid, n) for n in self.nodes
                if sim.alive(n.pid)
            )
        record: Dict = {
            "round": round_number,
            "alive": agg.count,
            "delivered_total": agg.stat_total("delivered"),
            "duplicates_total": agg.stat_total("duplicates"),
            "events_dropped_total": agg.stat_total("events_dropped"),
            "event_ids_evicted_total": agg.stat_total("event_ids_evicted"),
            "gossips_sent_total": agg.stat_total("gossips_sent"),
            "events_occupancy": agg.occupancy_mean("events"),
            "event_ids_occupancy": agg.occupancy_mean("event_ids"),
            "subs_occupancy": agg.occupancy_mean("subs"),
            "messages_offered": sim.network.messages_offered,
            "messages_dropped": sim.network.messages_dropped,
        }
        if self.sample_view_stats:
            stats = agg.in_degree_stats()
            if stats is not None:
                mean, std, minimum = stats
                record["in_degree_mean"] = mean
                record["in_degree_std"] = std
                record["in_degree_min"] = minimum
        return record

    # -- queries -----------------------------------------------------------------
    def series(self, field: str) -> List:
        """One field across all recorded rounds."""
        return [record.get(field) for record in self.records]

    def last(self) -> Dict:
        if not self.records:
            raise ValueError("nothing recorded yet")
        return self.records[-1]

    def to_json_lines(self) -> str:
        return "\n".join(
            json.dumps(record, separators=(",", ":")) for record in self.records
        )

    @staticmethod
    def from_json_lines(text: str) -> List[Dict]:
        return [json.loads(line) for line in text.splitlines() if line.strip()]

    def __len__(self) -> int:
        return len(self.records)
