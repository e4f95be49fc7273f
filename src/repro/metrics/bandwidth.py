"""Protocol-overhead accounting.

Sec. 3.3: "The network thus experiences little fluctuations in terms of
overall load due to gossip messages, as long as the number of processes
inside Π and also T remain unchanged" — every process sends exactly F
protocol messages per period, regardless of application traffic.  This
module measures that: per-round message counts, element-size estimates
(via each message's ``size_estimate``) and — when byte accounting is
enabled — exact encoded byte volumes, split by message kind, so benches
can compare lpbcast's single-phase overhead against pbcast's
digest+solicit+data traffic.

*Elements are not bytes.*  ``size_estimate`` counts carried elements
(event ids, subscriptions, …), a unit-less proxy that was historically the
only "bandwidth" number this repo reported.  Byte-accurate accounting sizes
every emission with the binary wire codec of :mod:`repro.wire` into
``sim.send_bytes``; it is opt-in (``meter.attach(sim, count_bytes=True)``
or setting ``telemetry.count_wire_bytes`` before the run) because the extra
counter series would otherwise shift pinned run fingerprints.

The meter is a *reader* over the engine-native telemetry layer
(:mod:`repro.telemetry`): every round engine counts its own emissions into
``sim.sends`` / ``sim.send_elements`` / ``sim.sends_by_sender``, so the
numbers are exact on the sharded engine too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.ids import ProcessId
from ..telemetry import Telemetry


@dataclass
class RoundTraffic:
    """Traffic observed in one round."""

    messages: int = 0
    elements: int = 0
    #: Messages without a callable ``size_estimate``.  They contribute 0 to
    #: ``elements`` — counting them as 1 element each (the old behaviour)
    #: inflated element volume with control messages that carry no payload
    #: elements at all.
    unsized: int = 0
    #: Exact encoded bytes (binary wire codec) — 0 unless byte accounting
    #: was enabled for the run; kept separate from ``elements``, which is a
    #: unit-less element count, not a byte figure.
    wire_bytes: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def record(self, message: object) -> None:
        self.messages += 1
        kind = type(message).__name__
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        size = getattr(message, "size_estimate", None)
        if callable(size):
            self.elements += size()
        else:
            self.unsized += 1
        from ..wire import wire_bytes_of
        encoded = wire_bytes_of(message)
        if encoded > 0:
            self.wire_bytes += encoded


class BandwidthMeter:
    """Measures per-round protocol traffic in a round simulation.

    Wire it by registering :meth:`on_round` as a round hook (as before);
    the first invocation binds the meter to the engine's telemetry
    registry.  :meth:`attach` binds explicitly for use without hooks
    (e.g. reading a finished run, or an async runtime).
    """

    def __init__(self) -> None:
        self._telemetry: Optional[Telemetry] = None

    # -- wiring ---------------------------------------------------------------
    def on_round(self, round_number: int, sim) -> None:
        """Round hook (kept for API compatibility): binds the engine's
        telemetry registry on first call."""
        if self._telemetry is None:
            self.attach(sim)

    def attach(self, sim_or_telemetry,
               count_bytes: bool = False) -> "BandwidthMeter":
        """Bind to an engine (anything with a ``telemetry`` attribute) or
        directly to a :class:`~repro.telemetry.Telemetry` registry.

        ``count_bytes=True`` switches the registry's byte-accurate
        accounting on (see module docstring) — do this *before* the run;
        emissions recorded while it was off are not retro-sized.
        """
        telemetry = getattr(sim_or_telemetry, "telemetry", sim_or_telemetry)
        if not isinstance(telemetry, Telemetry):
            raise TypeError(f"cannot attach to {sim_or_telemetry!r}: "
                            f"no telemetry registry found")
        self._telemetry = telemetry
        if count_bytes:
            telemetry.count_wire_bytes = True
        return self

    # -- queries -----------------------------------------------------------------
    def round_traffic(self, round_number: int) -> RoundTraffic:
        traffic = RoundTraffic()
        telemetry = self._telemetry
        if telemetry is None:
            return traffic
        for key, value in telemetry.counter_series("sim.sends").items():
            labels = dict(key)
            if labels.get("round") != round_number:
                continue
            traffic.messages += value
            kind = str(labels.get("kind", "?"))
            traffic.by_kind[kind] = traffic.by_kind.get(kind, 0) + value
        traffic.elements = telemetry.counter_value(
            "sim.send_elements", round=round_number
        )
        traffic.unsized = telemetry.counter_value(
            "sim.sends_unsized", round=round_number
        )
        traffic.wire_bytes = telemetry.counter_value(
            "sim.send_bytes", round=round_number
        )
        return traffic

    def rounds(self) -> List[int]:
        if self._telemetry is None:
            return []
        return self._telemetry.label_values("sim.sends", "round")

    def total_messages(self) -> int:
        if self._telemetry is None:
            return 0
        return self._telemetry.counter_total("sim.sends")

    def total_elements(self) -> int:
        if self._telemetry is None:
            return 0
        return self._telemetry.counter_total("sim.send_elements")

    def total_unsized(self) -> int:
        if self._telemetry is None:
            return 0
        return self._telemetry.counter_total("sim.sends_unsized")

    def total_wire_bytes(self) -> int:
        """Exact encoded bytes across the run — 0 unless byte accounting
        was enabled (``attach(..., count_bytes=True)``) before running."""
        if self._telemetry is None:
            return 0
        return self._telemetry.counter_total("sim.send_bytes")

    def messages_by_kind(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        if self._telemetry is None:
            return totals
        for key, value in self._telemetry.counter_series("sim.sends").items():
            kind = str(dict(key).get("kind", "?"))
            totals[kind] = totals.get(kind, 0) + value
        return totals

    def per_sender_totals(self) -> Dict[ProcessId, int]:
        totals: Dict[ProcessId, int] = {}
        if self._telemetry is None:
            return totals
        series = self._telemetry.counter_series("sim.sends_by_sender")
        for key, value in series.items():
            totals[dict(key)["src"]] = value
        return totals

    def load_stability(self) -> float:
        """Coefficient of variation of per-round message counts (ignoring
        the first and last rounds, which are edge-affected).  Small values
        back the Sec. 3.3 claim of a steady protocol load."""
        rounds = self.rounds()
        if len(rounds) < 4:
            raise ValueError("need at least 4 measured rounds")
        counts = [self.round_traffic(r).messages for r in rounds[1:-1]]
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 0.0
        var = sum((c - mean) ** 2 for c in counts) / len(counts)
        return (var ** 0.5) / mean
