"""Engine-side application of a :class:`~repro.faults.plan.FaultPlan`.

One :class:`FaultInjector` instance belongs to one run of one engine.  It
turns the plan's declarative windows into per-round actions and per-message
verdicts, drawing every probabilistic decision from a single dedicated
stream (``seeds.rng("faults")``), so a run is fully determined by
``(plan, root seed)``.

Serial/sharded bit-identity rests on a contract both round engines honor:

* ``round_start`` is called exactly once per round, before ticking;
* ``decide`` is called exactly once per queued message, in the shuffled
  queue order, for every delivery generation — *before* the engine's
  network-admission draw for that message.

Because the two engines build identical queues in identical order (see
:mod:`repro.sim.parallel_runner`), the injector consumes its stream
identically and the runs stay bit-for-bit equal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.ids import ProcessId
from .plan import FORGE_SEQ_BASE, CrashFault, FaultPlan


class FaultVerdict:
    """Outcome of one ``decide`` call.

    ``action`` is ``"deliver"``, ``"drop"`` or ``"delay"``; ``copies`` is the
    total delivery count (2+ when duplication struck); ``delay`` is the
    hold-back in rounds for ``"delay"``.  ``mutation`` is a Byzantine
    payload-mutation spec (applied by :func:`repro.faults.byzantine.mutate_message`
    at delivery time) or ``None``; ``replay`` > 0 schedules a stale copy of
    the message that many rounds later.
    """

    __slots__ = ("action", "copies", "delay", "mutation", "replay")

    def __init__(self, action: str, copies: int = 1, delay: int = 0,
                 mutation: Optional[tuple] = None, replay: int = 0) -> None:
        self.action = action
        self.copies = copies
        self.delay = delay
        self.mutation = mutation
        self.replay = replay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultVerdict({self.action!r}, copies={self.copies}, "
                f"delay={self.delay}, mutation={self.mutation}, "
                f"replay={self.replay})")


def trace_verdict(telemetry, at: float, verdict: FaultVerdict,
                  src: ProcessId, dst: ProcessId) -> None:
    """Trace a verdict that struck (nothing for plain delivery), for every
    engine and the UDP runtime; callers check ``telemetry.tracing`` first."""
    if verdict.action == "drop":
        telemetry.emit("fault.drop", at, pid=src, peer=dst)
    elif verdict.action == "delay":
        telemetry.emit("fault.delay", at, pid=src, peer=dst,
                       delay=verdict.delay)
    else:
        if verdict.copies > 1:
            telemetry.emit("fault.duplicate", at, pid=src, peer=dst,
                           copies=verdict.copies)
        if verdict.mutation is not None:
            telemetry.emit("fault.byzantine", at, pid=src, peer=dst,
                           mutation=verdict.mutation[0])
        if verdict.replay:
            telemetry.emit("fault.replay", at, pid=src, peer=dst,
                           lag=verdict.replay)


# Shared immutable verdicts for the two overwhelmingly common outcomes.
_DELIVER = FaultVerdict("deliver")
_DROP = FaultVerdict("drop")


@dataclass(frozen=True)
class RoundActions:
    """What the engine must apply at the start of a round."""

    crashes: Tuple[CrashFault, ...]
    recoveries: Tuple[CrashFault, ...]
    paused: frozenset


@dataclass
class InjectorStats:
    """Counters of faults actually struck (the engines fold them into
    telemetry as ``faults.*`` counters)."""

    decisions: int = 0
    dropped: int = 0
    partition_blocked: int = 0
    duplicated: int = 0
    delayed: int = 0
    crashes_applied: int = 0
    recoveries_applied: int = 0
    pause_rounds: int = 0
    equivocated: int = 0
    forged: int = 0
    replayed: int = 0
    poisoned: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class FaultInjector:
    """Applies one :class:`FaultPlan` deterministically from one stream."""

    plan: FaultPlan
    rng: random.Random
    stats: InjectorStats = field(default_factory=InjectorStats)
    _round: int = 0

    # -- per-round schedule --------------------------------------------------
    def round_start(self, round_no: int) -> RoundActions:
        """Advance to ``round_no``; returns the crashes, recoveries and the
        paused-pid set the engine must apply before ticking."""
        self._round = round_no
        crashes = tuple(c for c in self.plan.crashes if c.at == round_no)
        recoveries = tuple(c for c in self.plan.crashes
                           if c.recover_at == round_no)
        paused = frozenset(p.pid for p in self.plan.pauses
                           if p.at <= round_no < p.at + p.duration)
        self.stats.crashes_applied += len(crashes)
        self.stats.recoveries_applied += len(recoveries)
        self.stats.pause_rounds += len(paused)
        return RoundActions(crashes, recoveries, paused)

    def is_paused(self, pid: ProcessId, round_no: Optional[int] = None) -> bool:
        r = self._round if round_no is None else round_no
        return any(p.pid == pid and p.at <= r < p.at + p.duration
                   for p in self.plan.pauses)

    # -- per-message verdicts ------------------------------------------------
    def decide(self, src: ProcessId, dst: ProcessId,
               round_no: Optional[int] = None) -> FaultVerdict:
        """One verdict for one src→dst message; consumes the fault stream.

        Check order is fixed (partition, drop, delay, Byzantine —
        equivocate, forge, poison, replay — then duplicate) with
        short-circuit on a decisive outcome — the order is part of the
        determinism contract, never reorder it.
        """
        r = self._round if round_no is None else round_no
        self.stats.decisions += 1

        for p in self.plan.partitions:
            if p.start <= r < p.heal and p.blocks(src, dst):
                self.stats.partition_blocked += 1
                return _DROP

        for d in self.plan.drops:
            if (d.start <= r < d.stop and d.matches(src, dst)
                    and self.rng.random() < d.rate):
                self.stats.dropped += 1
                return _DROP

        for d in self.plan.delays:
            if d.start <= r < d.stop and self.rng.random() < d.rate:
                self.stats.delayed += 1
                return FaultVerdict("delay", delay=d.delay)

        # Byzantine behaviors of the *sender*: the verdict carries a
        # mutation spec the engine applies to the in-flight copy at delivery
        # time (coordinator-drawn here so both round engines see identical
        # stream consumption; the payload itself may live on a shard).
        # First strike wins per category.
        mutation: Optional[tuple] = None
        replay = 0
        for e in self.plan.equivocations:
            if (e.pid == src and e.start <= r < e.stop
                    and self.rng.random() < e.rate and mutation is None):
                self.stats.equivocated += 1
                mutation = ("equivocate", e.variants)
        for f in self.plan.forges:
            if (f.pid == src and f.start <= r < f.stop
                    and self.rng.random() < f.rate and mutation is None):
                self.stats.forged += 1
                mutation = ("forge", f.victim,
                            FORGE_SEQ_BASE + self.rng.randrange(1 << 16))
        for p in self.plan.poisons:
            if (p.pid == src and p.start <= r < p.stop
                    and self.rng.random() < p.rate and mutation is None):
                self.stats.poisoned += 1
                fabricated = p.fabricated
                mutation = ("poison",
                            fabricated[self.rng.randrange(len(fabricated))])
        for rp in self.plan.replays:
            if (rp.pid == src and rp.start <= r < rp.stop
                    and self.rng.random() < rp.rate and replay == 0):
                self.stats.replayed += 1
                replay = rp.lag

        copies = 1
        for d in self.plan.duplicates:
            if d.start <= r < d.stop and self.rng.random() < d.rate:
                copies += 1
        if copies > 1 or mutation is not None or replay:
            if copies > 1:
                self.stats.duplicated += copies - 1
            return FaultVerdict("deliver", copies=copies, mutation=mutation,
                                replay=replay)
        return _DELIVER

    # -- recovery support ----------------------------------------------------
    def pick_contact(
        self, candidates: Sequence[ProcessId]
    ) -> Optional[ProcessId]:
        """Draw the re-subscription contact for a recovering process from the
        fault stream (so recovery is replayable like every other fault).
        ``candidates`` must be in a deterministic order."""
        if not candidates:
            return None
        return candidates[self.rng.randrange(len(candidates))]

    # -- introspection -------------------------------------------------------
    def active_faults(self, round_no: Optional[int] = None) -> List[str]:
        """Names of fault windows open at ``round_no`` (for progress logs)."""
        r = self._round if round_no is None else round_no
        active: List[str] = []
        active += [f"drop@{d.rate:.0%}" for d in self.plan.drops
                   if d.start <= r < d.stop]
        active += [f"dup@{d.rate:.0%}" for d in self.plan.duplicates
                   if d.start <= r < d.stop]
        active += [f"delay+{d.delay}@{d.rate:.0%}" for d in self.plan.delays
                   if d.start <= r < d.stop]
        active += [f"partition({p.direction})" for p in self.plan.partitions
                   if p.start <= r < p.heal]
        active += [f"pause(p{p.pid})" for p in self.plan.pauses
                   if p.at <= r < p.at + p.duration]
        active += [f"equivocate(p{e.pid})" for e in self.plan.equivocations
                   if e.start <= r < e.stop]
        active += [f"forge(p{f.pid})" for f in self.plan.forges
                   if f.start <= r < f.stop]
        active += [f"replay(p{p.pid})" for p in self.plan.replays
                   if p.start <= r < p.stop]
        active += [f"poison(p{p.pid})" for p in self.plan.poisons
                   if p.start <= r < p.stop]
        return active
