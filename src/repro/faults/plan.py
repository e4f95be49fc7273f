"""Composable, deterministic fault schedules.

The paper's central claim (Sec. 5.2, Fig. 6) is that lpbcast stays reliable
under message loss, process crashes and membership churn while every buffer
stays bounded.  A :class:`FaultPlan` is the declarative description of one
such hostile episode: a set of fault *windows* (expressed in rounds — the
round engines use them directly, the async runtime maps one round to one
gossip period) that an engine-side
:class:`~repro.faults.injector.FaultInjector` applies deterministically from
a seeded stream, so the same plan + seed replays the same chaos bit-for-bit
on the serial and the sharded engine.

Fault vocabulary
----------------
* :class:`DropFault` — extra i.i.d. message loss on top of the network's ε,
  optionally scoped to a (src, dst) link.
* :class:`DuplicateFault` — a message is delivered twice (the duplicate
  immediately follows the original, exercising duplicate suppression).
* :class:`DelayFault` — a latency spike: the message is held back a fixed
  number of rounds and re-enters with the victim round's carryover
  (reordering it past everything sent in between).
* :class:`PartitionFault` — a scheduled cut between two process groups,
  optionally *asymmetric* (one direction only), healing at a given round.
* :class:`CrashFault` — fail-stop, optionally followed by recovery: the
  recovered process re-enters through the Sec. 3.3/3.4 membership path by
  re-subscribing via a contact.
* :class:`PauseFault` — a slow node: it stops gossiping (no ticks) for a
  window but keeps receiving, simulating a GC or CPU stall.

All round windows are half-open ``[start, stop)`` and compare against the
engine's 1-based round counter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..core.ids import ProcessId
from ..wire.varint import CodecError

#: Fabricated process ids injected by :class:`PoisonViewFault` start here —
#: far above any real pid the builders produce, so a poisoned id is
#: recognizable on sight and can never collide with a real process.
POISON_BASE = 1_000_000

#: Forged digest sequence numbers start here (far above any sequence a real
#: publisher reaches in a bounded run), so a forged event id never collides
#: with an id the victim actually published.
FORGE_SEQ_BASE = 1_000_000


class PlanCodecError(CodecError):
    """A serialized fault plan names a fault kind this build does not know
    (or is otherwise structurally unreadable)."""


def _check_window(start: int, stop: int) -> None:
    if start < 1:
        raise ValueError("fault windows start at round 1 or later")
    if stop <= start:
        raise ValueError("fault window must be non-empty (stop > start)")


def _check_rate(rate: float) -> None:
    if not 0.0 < rate <= 1.0:
        raise ValueError("fault rate must be in (0, 1]")


@dataclass(frozen=True)
class DropFault:
    """Extra Bernoulli loss with probability ``rate`` in ``[start, stop)``.

    ``src``/``dst`` of ``None`` match any process; set both to target one
    directed link.
    """

    rate: float
    start: int = 1
    stop: int = 2 ** 31
    src: Optional[ProcessId] = None
    dst: Optional[ProcessId] = None

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop)
        _check_rate(self.rate)

    def matches(self, src: ProcessId, dst: ProcessId) -> bool:
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))


@dataclass(frozen=True)
class DuplicateFault:
    """Deliver a message twice with probability ``rate`` in ``[start, stop)``."""

    rate: float
    start: int = 1
    stop: int = 2 ** 31

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop)
        _check_rate(self.rate)


@dataclass(frozen=True)
class DelayFault:
    """Hold a message back ``delay`` rounds with probability ``rate``."""

    rate: float
    delay: int = 1
    start: int = 1
    stop: int = 2 ** 31

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop)
        _check_rate(self.rate)
        if self.delay < 1:
            raise ValueError("delay must be at least one round")


@dataclass(frozen=True)
class PartitionFault:
    """Cut traffic between ``side_a`` and ``side_b`` in ``[start, heal)``.

    ``direction`` selects which crossings are cut: ``"both"`` (symmetric),
    ``"a-to-b"`` or ``"b-to-a"`` (asymmetric — one side still hears the
    other, the pathological case for view convergence).  Processes in
    neither side are unaffected.
    """

    side_a: Tuple[ProcessId, ...]
    side_b: Tuple[ProcessId, ...]
    start: int
    heal: int
    direction: str = "both"

    def __post_init__(self) -> None:
        _check_window(self.start, self.heal)
        if self.direction not in ("both", "a-to-b", "b-to-a"):
            raise ValueError("direction must be 'both', 'a-to-b' or 'b-to-a'")
        if set(self.side_a) & set(self.side_b):
            raise ValueError("partition sides must be disjoint")
        if not self.side_a or not self.side_b:
            raise ValueError("both partition sides must be non-empty")

    def blocks(self, src: ProcessId, dst: ProcessId) -> bool:
        """True when a src→dst message is cut while the partition is up."""
        src_a, src_b = src in self._a_set(), src in self._b_set()
        dst_a, dst_b = dst in self._a_set(), dst in self._b_set()
        a_to_b = src_a and dst_b
        b_to_a = src_b and dst_a
        if self.direction == "both":
            return a_to_b or b_to_a
        if self.direction == "a-to-b":
            return a_to_b
        return b_to_a

    # frozensets cached lazily (dataclass is frozen; use object.__setattr__).
    def _a_set(self) -> frozenset:
        cached = self.__dict__.get("_a")
        if cached is None:
            cached = frozenset(self.side_a)
            object.__setattr__(self, "_a", cached)
        return cached

    def _b_set(self) -> frozenset:
        cached = self.__dict__.get("_b")
        if cached is None:
            cached = frozenset(self.side_b)
            object.__setattr__(self, "_b", cached)
        return cached


@dataclass(frozen=True)
class CrashFault:
    """Fail-stop ``pid`` at round ``at``; optionally recover at
    ``recover_at``.

    Recovery models a process restart that kept its buffers (a warm
    restart): the engine removes the fail-stop and the process re-subscribes
    through ``contact`` via the Sec. 3.4 handshake — or through a contact the
    injector draws from the processes alive at recovery time when ``contact``
    is ``None``.
    """

    pid: ProcessId
    at: int
    recover_at: Optional[int] = None
    contact: Optional[ProcessId] = None

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ValueError("crash round must be >= 1")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ValueError("recover_at must come after the crash round")
        if self.contact is not None and self.contact == self.pid:
            raise ValueError("a process cannot re-join through itself")


@dataclass(frozen=True)
class PauseFault:
    """``pid`` emits no gossip for rounds ``[at, at + duration)``.

    The node keeps receiving and replying — only its periodic tick is
    suppressed, like a long GC or CPU stall.
    """

    pid: ProcessId
    at: int
    duration: int

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ValueError("pause round must be >= 1")
        if self.duration < 1:
            raise ValueError("pause duration must be >= 1 round")


@dataclass(frozen=True)
class EquivocateFault:
    """``pid`` lies: with probability ``rate`` it rewrites the payloads of
    its *own* events differently per destination (``variants`` distinct
    payload versions), in ``[start, stop)``.

    This is the canonical Byzantine broadcast attack — plain lpbcast
    delivers whichever variant arrives first at each process and violates
    *agreement*; the double-echo variant splits the liar's echo weight
    across digests and keeps agreement.
    """

    pid: ProcessId
    rate: float
    start: int = 1
    stop: int = 2 ** 31
    variants: int = 2

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop)
        _check_rate(self.rate)
        if self.variants < 2:
            raise ValueError("equivocation needs at least 2 payload variants")


@dataclass(frozen=True)
class ForgeDigestFault:
    """``pid`` advertises event ids ``victim`` never published: with
    probability ``rate`` an outgoing gossip gains a fabricated
    ``EventId(victim, FORGE_SEQ_BASE + k)`` digest entry in ``[start, stop)``.

    Under ``digest_implies_delivery`` the forged id becomes a ghost
    delivery attributed to the victim — a *validity* violation.
    """

    pid: ProcessId
    victim: ProcessId
    rate: float
    start: int = 1
    stop: int = 2 ** 31

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop)
        _check_rate(self.rate)
        if self.victim == self.pid:
            raise ValueError(
                "forge victim must differ from the forging process"
            )


@dataclass(frozen=True)
class ReplayStaleFault:
    """``pid`` replays its gossips: with probability ``rate`` a copy of an
    outgoing message re-enters the network ``lag`` rounds later, in
    ``[start, stop)``.  Duplicate suppression must absorb the stale copy."""

    pid: ProcessId
    rate: float
    lag: int = 2
    start: int = 1
    stop: int = 2 ** 31

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop)
        _check_rate(self.rate)
        if self.lag < 1:
            raise ValueError("replay lag must be at least one round")


@dataclass(frozen=True)
class PoisonViewFault:
    """``pid`` gossips subscriptions for ``count`` fabricated processes
    (ids ``POISON_BASE + pid*100 + k``) with probability ``rate`` in
    ``[start, stop)``.

    Plain lpbcast has no defense — fabricated pids circulate through
    views and subs indefinitely (the paper's crash-stop model trusts
    subscriptions); a failure-detecting node ages them out since they never
    gossip.  The view-hygiene invariant polices both scopes.
    """

    pid: ProcessId
    rate: float
    count: int = 1
    start: int = 1
    stop: int = 2 ** 31

    def __post_init__(self) -> None:
        _check_window(self.start, self.stop)
        _check_rate(self.rate)
        if not 1 <= self.count <= 100:
            raise ValueError("poison count must be in 1..100")

    @property
    def fabricated(self) -> Tuple[ProcessId, ...]:
        """The fabricated pids this fault is allowed to inject."""
        return tuple(POISON_BASE + self.pid * 100 + k
                     for k in range(self.count))


@dataclass
class FaultPlan:
    """A composable schedule of fault windows.

    Build one fluently::

        plan = (FaultPlan()
                .drop(rate=0.1, start=2, stop=20)
                .partition(side_a, side_b, start=5, heal=12,
                           direction="a-to-b")
                .crash(7, at=4, recover_at=14, contact=3)
                .pause(11, at=6, duration=3))

    and install it with ``sim.use_fault_plan(plan)`` (round engines),
    ``runtime.use_fault_plan(plan)`` (async runtime).  The plan itself is
    pure data — all randomness lives in the engine-side injector.
    """

    drops: List[DropFault] = field(default_factory=list)
    duplicates: List[DuplicateFault] = field(default_factory=list)
    delays: List[DelayFault] = field(default_factory=list)
    partitions: List[PartitionFault] = field(default_factory=list)
    crashes: List[CrashFault] = field(default_factory=list)
    pauses: List[PauseFault] = field(default_factory=list)
    equivocations: List[EquivocateFault] = field(default_factory=list)
    forges: List[ForgeDigestFault] = field(default_factory=list)
    replays: List[ReplayStaleFault] = field(default_factory=list)
    poisons: List[PoisonViewFault] = field(default_factory=list)

    # -- fluent construction -------------------------------------------------
    def drop(self, rate: float, start: int = 1, stop: int = 2 ** 31,
             src: Optional[ProcessId] = None,
             dst: Optional[ProcessId] = None) -> "FaultPlan":
        self.drops.append(DropFault(rate, start, stop, src, dst))
        return self

    def duplicate(self, rate: float, start: int = 1,
                  stop: int = 2 ** 31) -> "FaultPlan":
        self.duplicates.append(DuplicateFault(rate, start, stop))
        return self

    def delay(self, rate: float, delay: int = 1, start: int = 1,
              stop: int = 2 ** 31) -> "FaultPlan":
        self.delays.append(DelayFault(rate, delay, start, stop))
        return self

    def partition(self, side_a: Sequence[ProcessId],
                  side_b: Sequence[ProcessId], start: int, heal: int,
                  direction: str = "both") -> "FaultPlan":
        self.partitions.append(
            PartitionFault(tuple(side_a), tuple(side_b), start, heal,
                           direction)
        )
        return self

    def crash(self, pid: ProcessId, at: int,
              recover_at: Optional[int] = None,
              contact: Optional[ProcessId] = None) -> "FaultPlan":
        if any(c.pid == pid for c in self.crashes):
            raise ValueError(f"process {pid} already has a crash fault")
        self.crashes.append(CrashFault(pid, at, recover_at, contact))
        return self

    def pause(self, pid: ProcessId, at: int, duration: int) -> "FaultPlan":
        self.pauses.append(PauseFault(pid, at, duration))
        return self

    def equivocate(self, pid: ProcessId, rate: float = 1.0, start: int = 1,
                   stop: int = 2 ** 31, variants: int = 2) -> "FaultPlan":
        self.equivocations.append(
            EquivocateFault(pid, rate, start, stop, variants)
        )
        return self

    def forge_digest(self, pid: ProcessId, victim: ProcessId,
                     rate: float = 1.0, start: int = 1,
                     stop: int = 2 ** 31) -> "FaultPlan":
        self.forges.append(ForgeDigestFault(pid, victim, rate, start, stop))
        return self

    def replay_stale(self, pid: ProcessId, rate: float = 1.0, lag: int = 2,
                     start: int = 1, stop: int = 2 ** 31) -> "FaultPlan":
        self.replays.append(ReplayStaleFault(pid, rate, lag, start, stop))
        return self

    def poison_view(self, pid: ProcessId, rate: float = 1.0, count: int = 1,
                    start: int = 1, stop: int = 2 ** 31) -> "FaultPlan":
        self.poisons.append(PoisonViewFault(pid, rate, count, start, stop))
        return self

    # -- queries -------------------------------------------------------------
    def is_empty(self) -> bool:
        return not (self.drops or self.duplicates or self.delays
                    or self.partitions or self.crashes or self.pauses
                    or self.equivocations or self.forges or self.replays
                    or self.poisons)

    def fault_count(self) -> int:
        return (len(self.drops) + len(self.duplicates) + len(self.delays)
                + len(self.partitions) + len(self.crashes) + len(self.pauses)
                + len(self.equivocations) + len(self.forges)
                + len(self.replays) + len(self.poisons))

    def byzantine_pids(self) -> FrozenSet[ProcessId]:
        """Processes given any lying behavior by this plan.  The protocol
        invariants scope *agreement*/*validity* to processes outside this
        set — a liar's own deliveries prove nothing."""
        return frozenset(
            [f.pid for f in self.equivocations]
            + [f.pid for f in self.forges]
            + [f.pid for f in self.replays]
            + [f.pid for f in self.poisons]
        )

    def poisoned_pids(self) -> FrozenSet[ProcessId]:
        """Every fabricated pid this plan may inject into views."""
        out: set = set()
        for fault in self.poisons:
            out.update(fault.fabricated)
        return frozenset(out)

    def describe(self) -> str:
        """One-line human summary (chaos reports embed it)."""
        parts: List[str] = []
        for d in self.drops:
            scope = "" if d.src is None and d.dst is None else \
                f" on {d.src if d.src is not None else '*'}->" \
                f"{d.dst if d.dst is not None else '*'}"
            parts.append(f"drop {d.rate:.0%}{scope} @[{d.start},{_w(d.stop)})")
        for d in self.duplicates:
            parts.append(f"dup {d.rate:.0%} @[{d.start},{_w(d.stop)})")
        for d in self.delays:
            parts.append(f"delay+{d.delay} {d.rate:.0%} "
                         f"@[{d.start},{_w(d.stop)})")
        for p in self.partitions:
            parts.append(f"partition {len(p.side_a)}|{len(p.side_b)} "
                         f"({p.direction}) @[{p.start},{p.heal})")
        for c in self.crashes:
            rec = f"->recover@{c.recover_at}" if c.recover_at else ""
            parts.append(f"crash p{c.pid}@{c.at}{rec}")
        for p in self.pauses:
            parts.append(f"pause p{p.pid}@[{p.at},{p.at + p.duration})")
        for e in self.equivocations:
            parts.append(f"equivocate p{e.pid} {e.rate:.0%}x{e.variants} "
                         f"@[{e.start},{_w(e.stop)})")
        for f in self.forges:
            parts.append(f"forge p{f.pid}->v{f.victim} {f.rate:.0%} "
                         f"@[{f.start},{_w(f.stop)})")
        for r in self.replays:
            parts.append(f"replay p{r.pid}+{r.lag} {r.rate:.0%} "
                         f"@[{r.start},{_w(r.stop)})")
        for p in self.poisons:
            parts.append(f"poison p{p.pid}x{p.count} {p.rate:.0%} "
                         f"@[{p.start},{_w(p.stop)})")
        return "; ".join(parts) if parts else "no faults"

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON form of the plan (the DST repro artifacts embed it).

        Everything is lists/ints/floats/strings; :meth:`from_dict` is the
        exact inverse (re-running every constructor validation), so a plan
        survives a JSON round-trip bit-identically.
        """
        return {
            "drops": [[d.rate, d.start, d.stop, d.src, d.dst]
                      for d in self.drops],
            "duplicates": [[d.rate, d.start, d.stop]
                           for d in self.duplicates],
            "delays": [[d.rate, d.delay, d.start, d.stop]
                       for d in self.delays],
            "partitions": [[list(p.side_a), list(p.side_b), p.start, p.heal,
                            p.direction] for p in self.partitions],
            "crashes": [[c.pid, c.at, c.recover_at, c.contact]
                        for c in self.crashes],
            "pauses": [[p.pid, p.at, p.duration] for p in self.pauses],
            "equivocations": [[e.pid, e.rate, e.start, e.stop, e.variants]
                              for e in self.equivocations],
            "forges": [[f.pid, f.victim, f.rate, f.start, f.stop]
                       for f in self.forges],
            "replays": [[r.pid, r.rate, r.lag, r.start, r.stop]
                        for r in self.replays],
            "poisons": [[p.pid, p.rate, p.count, p.start, p.stop]
                        for p in self.poisons],
        }

    #: Every fault kind :meth:`from_dict` understands; anything else in a
    #: serialized plan is from a newer (or corrupted) build and must be
    #: rejected, not silently dropped — a replayed artifact that loses
    #: faults would "pass" for the wrong reason.
    _KNOWN_KINDS = frozenset((
        "drops", "duplicates", "delays", "partitions", "crashes", "pauses",
        "equivocations", "forges", "replays", "poisons",
    ))

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan serialized by :meth:`to_dict` (validating every
        window again, so hand-edited artifacts fail loudly).  Unknown fault
        kinds raise :class:`PlanCodecError` naming every offending kind;
        malformed entries raise :class:`PlanCodecError` naming the kind and
        the entry index, so a hand-edited Byzantine artifact points at the
        exact list element that broke."""
        if not isinstance(data, dict):
            raise PlanCodecError(f"fault plan must be a dict, got "
                                 f"{type(data).__name__}")
        unknown = set(data) - cls._KNOWN_KINDS
        if unknown:
            raise PlanCodecError(
                f"unknown fault kind(s) in serialized plan: "
                f"{', '.join(sorted(unknown))}"
            )
        plan = cls()
        decoders = {
            "drops": lambda rate, start, stop, src, dst: plan.drop(
                rate, start=start, stop=stop, src=src, dst=dst),
            "duplicates": lambda rate, start, stop: plan.duplicate(
                rate, start=start, stop=stop),
            "delays": lambda rate, delay, start, stop: plan.delay(
                rate, delay=delay, start=start, stop=stop),
            "partitions": lambda side_a, side_b, start, heal, direction:
                plan.partition(side_a, side_b, start=start, heal=heal,
                               direction=direction),
            "crashes": lambda pid, at, recover_at, contact: plan.crash(
                pid, at=at, recover_at=recover_at, contact=contact),
            "pauses": lambda pid, at, duration: plan.pause(
                pid, at=at, duration=duration),
            "equivocations": lambda pid, rate, start, stop, variants:
                plan.equivocate(pid, rate=rate, start=start, stop=stop,
                                variants=variants),
            "forges": lambda pid, victim, rate, start, stop:
                plan.forge_digest(pid, victim, rate=rate, start=start,
                                  stop=stop),
            "replays": lambda pid, rate, lag, start, stop: plan.replay_stale(
                pid, rate=rate, lag=lag, start=start, stop=stop),
            "poisons": lambda pid, rate, count, start, stop: plan.poison_view(
                pid, rate=rate, count=count, start=start, stop=stop),
        }
        for kind, decode in decoders.items():
            for index, entry in enumerate(data.get(kind, ())):
                try:
                    decode(*entry)
                except (TypeError, ValueError) as exc:
                    raise PlanCodecError(
                        f"bad {kind!r} entry #{index} in serialized plan: "
                        f"{exc}"
                    ) from exc
        return plan

    # -- randomized composition ----------------------------------------------
    @classmethod
    def random(cls, pids: Sequence[ProcessId], horizon: int,
               rng: random.Random,
               intensity: float = 1.0,
               byzantine_rate: float = 0.0,
               byzantine_nodes: int = 0) -> "FaultPlan":
        """Draw a random composed plan over ``pids`` for a ``horizon``-round
        run — the chaos soak's scenario generator.

        ``intensity`` scales fault probabilities/counts; 1.0 yields a plan
        with moderate loss, one partition-with-heal, one or two
        crash(-with-recovery) events and a pause.  Every draw comes from
        ``rng``, so (pids, horizon, rng seed) fully determine the plan.

        ``byzantine_nodes`` > 0 additionally turns that many processes into
        liars, each drawing one Byzantine behavior (equivocate / forge /
        replay / poison) firing with probability ``byzantine_rate``.  The
        Byzantine draws happen strictly after the crash-stop draws, so plans
        with the knobs off are bit-identical to pre-Byzantine builds.
        """
        if horizon < 8:
            raise ValueError("need a horizon of at least 8 rounds")
        if len(pids) < 4:
            raise ValueError("need at least 4 processes")
        pids = list(pids)
        plan = cls()
        mid = horizon // 2

        # Background extra loss for a window of the run.
        if rng.random() < min(1.0, 0.9 * intensity):
            start = rng.randrange(1, mid)
            stop = rng.randrange(start + 2, horizon + 1)
            plan.drop(rate=min(0.5, rng.uniform(0.02, 0.2) * intensity),
                      start=start, stop=stop)
        # Duplication and delay spikes.
        if rng.random() < min(1.0, 0.6 * intensity):
            plan.duplicate(rate=min(0.5, rng.uniform(0.02, 0.1) * intensity),
                           start=1, stop=horizon + 1)
        if rng.random() < min(1.0, 0.6 * intensity):
            plan.delay(rate=min(0.5, rng.uniform(0.02, 0.1) * intensity),
                       delay=rng.randrange(1, 3), start=1, stop=horizon + 1)
        # One partition with a scheduled heal, sometimes asymmetric.
        if rng.random() < min(1.0, 0.7 * intensity):
            cut_size = max(1, len(pids) // rng.choice((3, 4, 5)))
            side_a = rng.sample(pids, cut_size)
            side_b = [p for p in pids if p not in side_a]
            start = rng.randrange(2, mid + 1)
            heal = rng.randrange(start + 2, horizon)
            plan.partition(side_a, side_b, start=start, heal=heal,
                           direction=rng.choice(("both", "a-to-b", "b-to-a")))
        # Crashes, some with recovery (warm restart + re-subscribe).
        n_crashes = rng.randrange(1, max(2, int(2 * intensity) + 1) + 1)
        victims = rng.sample(pids, min(n_crashes, max(1, len(pids) // 4)))
        for pid in victims:
            at = rng.randrange(2, horizon - 2)
            recover_at = None
            if rng.random() < 0.5 and at + 2 < horizon:
                recover_at = rng.randrange(at + 2, horizon)
            plan.crash(pid, at=at, recover_at=recover_at)
        # A slow node.
        if rng.random() < min(1.0, 0.6 * intensity):
            candidates = [p for p in pids if p not in victims]
            if candidates:
                pid = rng.choice(candidates)
                at = rng.randrange(1, horizon - 2)
                plan.pause(pid, at=at,
                           duration=rng.randrange(1, max(2, horizon // 5) + 1))
        # Byzantine processes (liars) — drawn last, see docstring.
        if byzantine_nodes > 0:
            if not 0.0 < byzantine_rate <= 1.0:
                raise ValueError(
                    "byzantine_rate must be in (0, 1] when byzantine_nodes "
                    "is set"
                )
            honest = [p for p in pids if p not in victims]
            liars = rng.sample(honest, min(byzantine_nodes, len(honest)))
            for pid in liars:
                start = rng.randrange(1, mid + 1)
                stop = rng.randrange(start + 2, horizon + 2)
                kind = rng.choice(("equivocate", "forge", "replay", "poison"))
                if kind == "equivocate":
                    plan.equivocate(pid, rate=byzantine_rate, start=start,
                                    stop=stop)
                elif kind == "forge":
                    targets = [p for p in pids if p != pid]
                    plan.forge_digest(pid, victim=rng.choice(targets),
                                      rate=byzantine_rate, start=start,
                                      stop=stop)
                elif kind == "replay":
                    plan.replay_stale(pid, rate=byzantine_rate,
                                      lag=rng.randrange(1, 4), start=start,
                                      stop=stop)
                else:
                    plan.poison_view(pid, rate=byzantine_rate,
                                     count=rng.randrange(1, 4), start=start,
                                     stop=stop)
        return plan


def _w(stop: int) -> str:
    return "inf" if stop >= 2 ** 31 else str(stop)
