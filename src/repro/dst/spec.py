"""Scenario specifications: everything one DST run needs, as pure data.

A :class:`ScenarioSpec` fully determines a simulation run — protocol
configuration, system size, workload, fault plan and the root seed every
random stream derives from.  The spec is the fuzzer's unit of work: the
generator samples one from a single seed, the oracle executes it on several
engines, the shrinker transforms it, and the JSON repro artifact embeds it
so a failure replays bit-for-bit on a fresh process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..core.config import LpbcastConfig
from ..faults.plan import FaultPlan
from ..sim.rng import derive_rng

#: Bump when the spec's JSON shape changes; artifacts carry it.
SPEC_FORMAT = "repro-dst-spec/1"

#: The smallest system the harness runs (shrinking stops here: with fewer
#: than four processes a fanout-3 gossip mesh degenerates).
MIN_N = 4

#: The shortest run: one round to publish, one to gossip.
MIN_ROUNDS = 2


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-determined simulation scenario.

    ``seed`` roots every stream (node RNGs, network loss, fault injector,
    publisher choice), so two executions of the same spec — in the same or
    different processes — replay bit-for-bit on the round engines.
    """

    seed: int
    n: int
    rounds: int
    fanout: int = 3
    view_max: int = 10
    events_max: int = 30
    event_ids_max: int = 60
    subs_max: int = 15
    unsubs_max: int = 15
    retransmissions: bool = False
    loss_rate: float = 0.0
    publishes: int = 1
    #: Notifications per publishing round, from distinct processes (the
    #: long-stream family's way to many ids); causal specs publish two.
    burst: int = 1
    shards: int = 2
    #: Run the Byzantine-tolerant double-echo delivery variant (majority
    #: echo/ready thresholds derived from ``n``; implies the payload-only
    #: delivery mode and no retransmissions).
    double_echo: bool = False
    #: Run the causal-delivery variant (vector-interval dependency metadata
    #: plus a hold-back queue; implies payload-only delivery mode —
    #: ``digest_implies_delivery=False``).  Mutually exclusive with
    #: ``double_echo``.
    causal: bool = False
    #: Hold-back queue bound for the causal variant.
    causal_holdback_max: int = 64
    plan: FaultPlan = field(default_factory=FaultPlan)
    #: Name of a planted bug from :mod:`repro.dst.mutations` (self-test
    #: campaigns only); ``None`` runs the real code.
    mutation: Optional[str] = None

    # -- validation ----------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Raise ``ValueError`` on any inconsistency; returns ``self``.

        Config bounds are re-checked by building the config; the fault plan
        re-validated its windows when constructed.  What remains is the
        coupling between the parts: plan targets must exist, the workload
        must fit the horizon.
        """
        if self.n < MIN_N:
            raise ValueError(f"n must be >= {MIN_N}, got {self.n}")
        if self.rounds < MIN_ROUNDS:
            raise ValueError(
                f"rounds must be >= {MIN_ROUNDS}, got {self.rounds}")
        if not 0 <= self.publishes <= self.rounds:
            raise ValueError("publishes must be within [0, rounds]")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.double_echo and self.retransmissions:
            raise ValueError("double_echo is incompatible with "
                             "retransmissions (delivery is quorum-gated)")
        if self.causal and self.double_echo:
            raise ValueError("causal and double_echo are mutually exclusive "
                             "(each gates delivery its own way)")
        if self.causal_holdback_max < 1:
            raise ValueError("causal_holdback_max must be >= 1")
        self.config()  # LpbcastConfig.__post_init__ re-checks its bounds
        pids = set(range(self.n))
        for fault in self.plan.crashes:
            if fault.pid not in pids:
                raise ValueError(f"crash fault targets unknown pid {fault.pid}")
        for fault in self.plan.pauses:
            if fault.pid not in pids:
                raise ValueError(f"pause fault targets unknown pid {fault.pid}")
        for fault in self.plan.partitions:
            strays = (set(fault.side_a) | set(fault.side_b)) - pids
            if strays:
                raise ValueError(f"partition references unknown pids {strays}")
        for label, faults in (("equivocate", self.plan.equivocations),
                              ("replay", self.plan.replays),
                              ("poison", self.plan.poisons)):
            for fault in faults:
                if fault.pid not in pids:
                    raise ValueError(
                        f"{label} fault targets unknown pid {fault.pid}")
        for fault in self.plan.forges:
            if fault.pid not in pids:
                raise ValueError(f"forge fault targets unknown pid {fault.pid}")
            if fault.victim not in pids:
                raise ValueError(
                    f"forge fault names unknown victim {fault.victim}")
        return self

    # -- derived -------------------------------------------------------------
    def config(self) -> LpbcastConfig:
        """The protocol configuration this spec describes."""
        if self.double_echo:
            # Majority thresholds over n: each correct node echoes at most
            # once per event id, so no two digests can both muster
            # ``n // 2 + 1`` echo senders — agreement holds under
            # equivocation by counting, independent of sampling luck.
            return LpbcastConfig(
                fanout=self.fanout,
                view_max=self.view_max,
                events_max=self.events_max,
                event_ids_max=self.event_ids_max,
                subs_max=self.subs_max,
                unsubs_max=self.unsubs_max,
                retransmissions=False,
                digest_implies_delivery=False,
                double_echo=True,
                echo_fanout=max(1, self.view_max),
                echo_threshold=self.n // 2 + 1,
                ready_threshold=self.n // 2 + 1,
            )
        if self.causal:
            # Causal delivery needs real payload transfer: a digest-implied
            # delivery carries no dependency metadata to order by.
            return LpbcastConfig(
                fanout=self.fanout,
                view_max=self.view_max,
                events_max=self.events_max,
                event_ids_max=self.event_ids_max,
                subs_max=self.subs_max,
                unsubs_max=self.unsubs_max,
                retransmissions=self.retransmissions,
                digest_implies_delivery=False,
                causal_delivery=True,
                causal_holdback_max=self.causal_holdback_max,
            )
        return LpbcastConfig(
            fanout=self.fanout,
            view_max=self.view_max,
            events_max=self.events_max,
            event_ids_max=self.event_ids_max,
            subs_max=self.subs_max,
            unsubs_max=self.unsubs_max,
            retransmissions=self.retransmissions,
            digest_implies_delivery=not self.retransmissions,
        )

    def describe(self) -> str:
        """One-line summary for reports and progress lines."""
        return (f"seed={self.seed} n={self.n} rounds={self.rounds} "
                f"F={self.fanout} l={self.view_max} loss={self.loss_rate} "
                f"publishes={self.publishes}x{self.burst} shards={self.shards} "
                f"plan=[{self.plan.describe()}]"
                + (" double-echo" if self.double_echo else "")
                + (f" causal(holdback={self.causal_holdback_max})"
                   if self.causal else "")
                + (f" mutation={self.mutation}" if self.mutation else ""))

    def size(self) -> int:
        """Rough scenario magnitude — the shrinker's progress metric."""
        return (self.n + self.rounds + self.publishes + self.burst - 1
                + self.plan.fault_count()
                + (1 if self.loss_rate > 0 else 0)
                + (1 if self.retransmissions else 0))

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": SPEC_FORMAT,
            "seed": self.seed,
            "n": self.n,
            "rounds": self.rounds,
            "fanout": self.fanout,
            "view_max": self.view_max,
            "events_max": self.events_max,
            "event_ids_max": self.event_ids_max,
            "subs_max": self.subs_max,
            "unsubs_max": self.unsubs_max,
            "retransmissions": self.retransmissions,
            "loss_rate": self.loss_rate,
            "publishes": self.publishes,
            "burst": self.burst,
            "shards": self.shards,
            "double_echo": self.double_echo,
            "causal": self.causal,
            "causal_holdback_max": self.causal_holdback_max,
            "plan": self.plan.to_dict(),
            "mutation": self.mutation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        fmt = data.get("format", SPEC_FORMAT)
        if fmt != SPEC_FORMAT:
            raise ValueError(f"unsupported spec format {fmt!r} "
                             f"(this build reads {SPEC_FORMAT})")
        spec = cls(
            seed=data["seed"],
            n=data["n"],
            rounds=data["rounds"],
            fanout=data["fanout"],
            view_max=data["view_max"],
            events_max=data["events_max"],
            event_ids_max=data["event_ids_max"],
            subs_max=data["subs_max"],
            unsubs_max=data["unsubs_max"],
            retransmissions=data["retransmissions"],
            loss_rate=data["loss_rate"],
            publishes=data["publishes"],
            burst=data.get("burst", 1),
            shards=data["shards"],
            double_echo=data.get("double_echo", False),
            causal=data.get("causal", False),
            causal_holdback_max=data.get("causal_holdback_max", 64),
            plan=FaultPlan.from_dict(data.get("plan", {})),
            mutation=data.get("mutation"),
        )
        return spec.validate()

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # -- transformation ------------------------------------------------------
    def with_overrides(self, **changes) -> "ScenarioSpec":
        """Copy with fields replaced — the shrinker's edit primitive.

        Shrinking ``n`` silently drops plan entries that now target removed
        processes (a crash of pid 50 is meaningless at n=10); everything
        else must stay valid, enforced by :meth:`validate`.
        """
        spec = replace(self, **changes)
        if spec.n < self.n:
            spec = replace(spec, plan=restrict_plan(spec.plan, spec.n))
        return spec.validate()


def restrict_plan(plan: FaultPlan, n: int) -> FaultPlan:
    """A copy of ``plan`` valid for a system of ``n`` processes.

    Crash/pause faults aimed at pids >= ``n`` are dropped; partition sides
    are intersected with the surviving pids and the partition is dropped
    when either side empties.  Rate faults (drop/duplicate/delay) are kept
    unless they were scoped to a removed endpoint.
    """
    pids = set(range(n))
    restricted = FaultPlan()
    for d in plan.drops:
        if d.src is not None and d.src not in pids:
            continue
        if d.dst is not None and d.dst not in pids:
            continue
        restricted.drops.append(d)
    restricted.duplicates.extend(plan.duplicates)
    restricted.delays.extend(plan.delays)
    for p in plan.partitions:
        side_a = tuple(pid for pid in p.side_a if pid in pids)
        side_b = tuple(pid for pid in p.side_b if pid in pids)
        if side_a and side_b:
            restricted.partition(side_a, side_b, start=p.start, heal=p.heal,
                                 direction=p.direction)
    for c in plan.crashes:
        if c.pid in pids:
            contact = c.contact if c.contact in pids else None
            restricted.crash(c.pid, at=c.at, recover_at=c.recover_at,
                             contact=contact)
    for p in plan.pauses:
        if p.pid in pids:
            restricted.pause(p.pid, at=p.at, duration=p.duration)
    for e in plan.equivocations:
        if e.pid in pids:
            restricted.equivocate(e.pid, rate=e.rate, start=e.start,
                                  stop=e.stop, variants=e.variants)
    for f in plan.forges:
        if f.pid in pids and f.victim in pids:
            restricted.forge_digest(f.pid, victim=f.victim, rate=f.rate,
                                    start=f.start, stop=f.stop)
    for r in plan.replays:
        if r.pid in pids:
            restricted.replay_stale(r.pid, rate=r.rate, lag=r.lag,
                                    start=r.start, stop=r.stop)
    for p in plan.poisons:
        if p.pid in pids:
            restricted.poison_view(p.pid, rate=p.rate, count=p.count,
                                   start=p.start, stop=p.stop)
    return restricted


def generate_spec(
    seed: int,
    max_n: int = 60,
    max_rounds: int = 40,
    mutation: Optional[str] = None,
    byzantine: bool = False,
    causal: bool = False,
) -> ScenarioSpec:
    """Sample one scenario from a single seed — the fuzzer's generator.

    Every choice (sizes, protocol parameters, workload, whether and which
    faults) draws from one stream derived from ``seed``, so the same seed
    always yields the same spec, independent of interpreter hash seeds or
    platform.  Ranges stay modest on purpose: DST wants many small hostile
    scenarios, not few big ones.  One plain scenario in five (decided on
    its own stream, so the others keep their specs) is a *long stream*:
    default-sized buffers and over twice ``event_ids_max`` published ids,
    the regime in which a FIFO ``eventIds`` re-delivered for ever.

    ``byzantine=True`` samples from the adversarial family instead (its own
    derivation stream, so the plain family's seeds are untouched): small
    double-echo systems with liars in the fault plan.  The family pairs
    active liars with the double-echo variant on purpose — the campaign
    asserts the *defended* protocol holds its invariants; the undefended
    plain-vs-double-echo separation is pinned by a dedicated regression
    test, not fuzzed.

    ``causal=True`` samples from the ordering family (again its own
    streams): causal-delivery systems biased toward the conditions that
    reorder traffic — loss, delay-heavy fault plans, several concurrent
    publishers, and small hold-back bounds that put the eviction path and
    the ``holdback-bound`` invariant in play.
    """
    if max_n < 8:
        raise ValueError("max_n must be >= 8")
    if max_rounds < 10:
        raise ValueError("max_rounds must be >= 10")
    if byzantine and causal:
        raise ValueError("byzantine and causal select disjoint scenario "
                         "families; pick one")
    if byzantine:
        return _generate_byzantine_spec(seed, max_n, max_rounds, mutation)
    if causal:
        return _generate_causal_spec(seed, max_n, max_rounds, mutation)
    rng = derive_rng(seed, "dst-spec")
    n = rng.randrange(8, max_n + 1)
    rounds = rng.randrange(10, max_rounds + 1)
    fanout = rng.randrange(1, 5)
    view_max = rng.randrange(max(fanout, 3), 16)
    events_max = rng.randrange(5, 41)
    event_ids_max = rng.randrange(10, 81)
    subs_max = rng.randrange(3, 21)
    unsubs_max = rng.randrange(3, 21)
    retransmissions = rng.random() < 0.25
    loss_rate = round(rng.uniform(0.01, 0.3), 3) if rng.random() < 0.7 else 0.0
    publishes = rng.randrange(1, min(rounds, 8) + 1)
    shards = rng.choice((2, 3))
    if rng.random() < 0.85:
        plan = FaultPlan.random(
            list(range(n)), horizon=rounds,
            rng=derive_rng(seed, "dst-plan"),
            intensity=round(rng.uniform(0.3, 1.5), 3),
        )
    else:
        plan = FaultPlan()
    burst = 1
    if derive_rng(seed, "dst-long-stream").random() < 0.2:
        events_max = LpbcastConfig().events_max
        event_ids_max = LpbcastConfig().event_ids_max
        publishes = max(publishes, rounds // 2)
        burst = 2 * event_ids_max // publishes + 1
    return ScenarioSpec(
        seed=seed, n=n, rounds=rounds, fanout=fanout, view_max=view_max,
        events_max=events_max, event_ids_max=event_ids_max,
        subs_max=subs_max, unsubs_max=unsubs_max,
        retransmissions=retransmissions, loss_rate=loss_rate,
        publishes=publishes, burst=burst, shards=shards, plan=plan,
        mutation=mutation,
    ).validate()


def _generate_byzantine_spec(
    seed: int,
    max_n: int,
    max_rounds: int,
    mutation: Optional[str],
) -> ScenarioSpec:
    """The adversarial scenario family: small double-echo systems, wide
    views (echo quorums need to form), and one or two liars layered on top
    of the usual crash-stop chaos."""
    rng = derive_rng(seed, "dst-byz-spec")
    n = rng.randrange(8, min(max_n, 16) + 1)
    rounds = rng.randrange(12, min(max_rounds, 24) + 1)
    fanout = rng.randrange(3, 5)
    view_max = n - 1  # everyone can know everyone: quorum counting is exact
    events_max = rng.randrange(15, 41)
    event_ids_max = rng.randrange(30, 81)
    subs_max = rng.randrange(5, 21)
    unsubs_max = rng.randrange(5, 21)
    loss_rate = round(rng.uniform(0.01, 0.1), 3) if rng.random() < 0.5 else 0.0
    publishes = rng.randrange(1, 5)
    shards = rng.choice((2, 3))
    plan = FaultPlan.random(
        list(range(n)), horizon=rounds,
        rng=derive_rng(seed, "dst-byz-plan"),
        intensity=round(rng.uniform(0.2, 0.8), 3),
        byzantine_rate=round(rng.uniform(0.3, 0.9), 3),
        byzantine_nodes=rng.randrange(1, 3),
    )
    return ScenarioSpec(
        seed=seed, n=n, rounds=rounds, fanout=fanout, view_max=view_max,
        events_max=events_max, event_ids_max=event_ids_max,
        subs_max=subs_max, unsubs_max=unsubs_max,
        retransmissions=False, loss_rate=loss_rate,
        publishes=publishes, shards=shards, double_echo=True,
        plan=plan, mutation=mutation,
    ).validate()


def _generate_causal_spec(
    seed: int,
    max_n: int,
    max_rounds: int,
    mutation: Optional[str],
) -> ScenarioSpec:
    """The ordering scenario family: causal-delivery systems under the
    conditions that actually reorder traffic.  Loss is the norm, plans are
    sampled at full intensity (delays shuffle arrival order across rounds),
    several processes publish concurrently, and the hold-back bound is
    often small enough for the eviction path to fire."""
    rng = derive_rng(seed, "dst-causal-spec")
    n = rng.randrange(8, min(max_n, 24) + 1)
    rounds = rng.randrange(12, min(max_rounds, 30) + 1)
    fanout = rng.randrange(2, 5)
    view_max = rng.randrange(max(fanout, 4), 16)
    events_max = rng.randrange(10, 41)
    event_ids_max = rng.randrange(20, 81)
    subs_max = rng.randrange(3, 21)
    unsubs_max = rng.randrange(3, 21)
    # Retransmissions are the dependency-recovery path; keep them on for
    # most of the family but leave a no-recovery slice where held events
    # must wait for the epidemic to re-deliver their dependencies.
    retransmissions = rng.random() < 0.75
    loss_rate = round(rng.uniform(0.02, 0.35), 3) if rng.random() < 0.8 else 0.0
    publishes = rng.randrange(2, min(rounds, 8) + 1)
    shards = rng.choice((2, 3))
    causal_holdback_max = rng.choice((4, 8, 16, 32, 64))
    if rng.random() < 0.85:
        plan = FaultPlan.random(
            list(range(n)), horizon=rounds,
            rng=derive_rng(seed, "dst-causal-plan"),
            intensity=round(rng.uniform(0.5, 1.5), 3),
        )
    else:
        plan = FaultPlan()
    return ScenarioSpec(
        seed=seed, n=n, rounds=rounds, fanout=fanout, view_max=view_max,
        events_max=events_max, event_ids_max=event_ids_max,
        subs_max=subs_max, unsubs_max=unsubs_max,
        retransmissions=retransmissions, loss_rate=loss_rate,
        publishes=publishes, shards=shards, causal=True,
        causal_holdback_max=causal_holdback_max,
        plan=plan, mutation=mutation,
    ).validate()


def spec_seeds(root_seed: int, count: int) -> List[int]:
    """The derived per-case seeds of a ``count``-scenario campaign."""
    from ..sim.rng import derive_seed

    return [derive_seed(root_seed, "dst-case", i) for i in range(count)]
