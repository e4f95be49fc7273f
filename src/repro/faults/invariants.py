"""Live monitoring of the paper's safety properties.

The reliability numbers of Sec. 5.2 are only meaningful if the protocol's
*safety* side holds while they are measured.  :class:`InvariantMonitor`
attaches to a running round simulation and checks, as the run progresses:

``no-duplicate-delivery``
    No process LPB-DELIVERs the same event id twice, ever: ``eventIds``
    keeps a frontier per sender (Sec. 3.2), so a delivered id is never
    forgotten and no distance between two deliveries excuses the second.
``buffer-bounds``
    ``|view| ≤ l``, ``|subs| ≤ |subs|_m``, ``|unSubs| ≤ |unSubs|_m``,
    ``|events| ≤ |events|_m`` and (ids held out of order)
    ``|eventIds| ≤ |eventIds|_m`` after every round.
``view-excludes-owner``
    A process never holds itself in its own view (Sec. 3.2's views are over
    *other* processes).
``unsub-expiry``
    No buffered unsubscription older than the unsubscription TTL survives a
    node's purge (Sec. 3.4: timestamps "limit the subsistence of obsolete
    unsubscriptions").
``crashed-silence``
    A fail-stopped process emits no gossip and delivers nothing (Sec. 4.1's
    crash model).

Under a Byzantine :class:`~repro.faults.plan.FaultPlan` three *protocol*
invariants join the sweep.  They are scoped to **correct** processes — pids
outside ``plan.byzantine_pids()`` — because a liar's own deliveries prove
nothing:

``agreement``
    No two correct processes deliver *different* payloads for the same
    event id.  Plain lpbcast violates this under equivocation (it trusts
    the first payload it hears); the double-echo variant
    (``LpbcastConfig(double_echo=True)``) restores it.  Synthetic
    digest-shortcut deliveries (payload ``None``) carry no payload claim
    and are exempt.
``validity``
    A correct process only delivers payloads its (correct, watched) origin
    actually published, and never delivers an event id such an origin never
    issued — forged digests must not materialize ghost events.
``view-hygiene``
    A fabricated pid (``>= POISON_BASE``) outside the plan's
    ``poisoned_pids()`` scope never appears in any correct view or subs
    buffer (that would be an injector bug, flagged immediately).  Planned
    ghosts are tolerated: the paper's crash-stop model trusts
    subscriptions.

Under causal-delivery mode (``LpbcastConfig(causal_delivery=True)``) two
ordering invariants join, scoped like the protocol invariants to correct
processes:

``causality``
    No correct process LPB-DELIVERs a notification before every dependency
    named in its vector-interval metadata (``Notification.deps``) has been
    delivered at that process.  A correct
    :class:`~repro.core.delivery.CausalDeliveryGate` can never violate this
    — it evicts rather than releases on overflow — so any firing is an
    ordering bug, exactly what the DST fuzzer's planted dropped-dependency
    mutation produces.
``holdback-bound``
    The causal hold-back queue never exceeds its configured bound
    (``causal_holdback_max``) after any round.

Violations carry the run's root seed and round, so every report is
replayable: rebuild the same scenario with the same seed and the violation
reappears at the same round.

Engine notes: delivery-level checks (``no-duplicate-delivery``,
crashed-delivery) ride the delivery-listener path and work on every engine,
including the sharded one.  Node-state checks read node buffers each round;
on the sharded engine those reads see the last synced replica, so they are
only exercised when the caller refreshes replicas (serial runs check every
round for free).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.ids import EventId, ProcessId
from .plan import POISON_BASE


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    invariant: str
    pid: Optional[ProcessId]
    round: int
    seed: Optional[int]
    detail: str

    def replay_hint(self) -> str:
        seed = "?" if self.seed is None else self.seed
        return f"replay with seed={seed}, violated at round {self.round}"

    def __str__(self) -> str:
        who = "" if self.pid is None else f" process {self.pid}"
        return (f"[{self.invariant}]{who} at round {self.round}: "
                f"{self.detail} ({self.replay_hint()})")


class InvariantViolation(AssertionError):
    """Raised in ``mode="raise"`` the moment an invariant breaks."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


@dataclass
class InvariantMonitor:
    """Attachable safety-property checker for round simulations.

    >>> sim, nodes, log = ...  # any wired system
    >>> monitor = InvariantMonitor(mode="collect").attach(sim)
    >>> sim.run(200)
    >>> assert not monitor.violations, monitor.report()

    ``mode="raise"`` (default) raises :class:`InvariantViolation` at the
    first breach; ``mode="collect"`` accumulates into ``violations``.
    """

    mode: str = "raise"
    seed: Optional[int] = None
    violations: List[Violation] = field(default_factory=list)
    checks_run: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("raise", "collect"):
            raise ValueError("mode must be 'raise' or 'collect'")
        self._sim = None
        self._delivered: set = set()  # every (pid, event id) so far
        # pid -> gossips_sent observed when the crash was first seen.
        self._gossip_baseline: Dict[ProcessId, int] = {}
        # -- protocol-invariant state (agreement / validity / hygiene) -----
        self._watched: set = set()
        # event id -> (first correct deliverer, its non-None payload).
        self._payload_of: Dict[EventId, Tuple[ProcessId, object]] = {}
        # event id -> payload its origin actually published (recorded from
        # the publisher's own delivery, which always precedes any remote
        # delivery of the same event).
        self._published: Dict[EventId, object] = {}
        self._poison_scope: Optional[frozenset] = None
        # -- causal-ordering state ----------------------------------------
        # pids running causal-delivery mode (recorded at watch time).
        self._causal_pids: set = set()
        # (pid, origin) -> highest seq this pid has delivered from origin.
        self._delivered_frontier: Dict[Tuple[ProcessId, ProcessId], int] = {}

    # -- wiring --------------------------------------------------------------
    def attach(self, sim) -> "InvariantMonitor":
        """Register on every current node and on the round loop of ``sim``
        (a :class:`~repro.sim.round_runner.RoundSimulation` or subclass).

        Engines without a round loop (``AsyncGossipRuntime`` exposes no
        ``add_observer``) get the delivery-path checks only — duplicate
        delivery and crashed-silence still fire on every LPB-DELIVER, while
        the per-round node-state sweep needs a caller-driven
        :meth:`check_now`."""
        self._sim = sim
        if self.seed is None:
            seeds = getattr(sim, "seeds", None)
            self.seed = getattr(seeds, "root_seed", None)
        for pid, node in sim.nodes.items():
            self.watch_node(pid, node)
        add_observer = getattr(sim, "add_observer", None)
        if add_observer is not None:
            add_observer(self._on_round)
        return self

    def check_now(self, round_no: Optional[int] = None) -> None:
        """Run the per-round node-state sweep on demand — the entry point
        for engines that drive no round observers (the async runtime, where
        the caller maps time to a round number)."""
        if self._sim is None:
            raise RuntimeError("attach() the monitor before check_now()")
        if round_no is None:
            round_no = int(getattr(self._sim, "round",
                                   getattr(self._sim, "now", 0)))
        self._on_round(round_no, self._sim)

    def watch_node(self, pid: ProcessId, node) -> None:
        """Hook one node's delivery stream (call for nodes added later)."""
        if hasattr(node, "add_delivery_listener"):
            node.add_delivery_listener(self._on_delivery)
        self._watched.add(pid)
        cfg = getattr(node, "config", None)
        if getattr(cfg, "causal_delivery", False):
            self._causal_pids.add(pid)

    # -- plan scope ----------------------------------------------------------
    def _plan(self):
        injector = getattr(self._sim, "_fault_injector", None)
        return None if injector is None else injector.plan

    def _byzantine(self) -> frozenset:
        plan = self._plan()
        return frozenset() if plan is None else plan.byzantine_pids()

    def _planned_ghosts(self) -> frozenset:
        """The plan's fabricated pids, cached — plans are immutable once
        installed."""
        if self._poison_scope is None:
            plan = self._plan()
            self._poison_scope = (frozenset() if plan is None
                                  else plan.poisoned_pids())
        return self._poison_scope

    # -- delivery-path checks ------------------------------------------------
    def _on_delivery(self, pid: ProcessId, notification, now: float) -> None:
        sim = self._sim

        if sim is not None and pid in sim.crashed:
            # A fail-stopped process delivers nothing (Sec. 4.1).
            self._flag("crashed-silence", pid,
                       f"crashed process delivered {notification!r}")

        key = (pid, notification.event_id)
        if key in self._delivered:
            self._flag("no-duplicate-delivery", pid,
                       f"event {notification.event_id} delivered again")
        self._delivered.add(key)
        if pid in self._causal_pids:
            self._check_causality(pid, notification)
        self._check_protocol_delivery(pid, notification)

    def _check_causality(self, pid: ProcessId, notification) -> None:
        """No delivery before its dependencies (correct causal nodes only).

        The per-(process, origin) delivered frontier is maintained from the
        delivery stream itself, so the check is engine-independent: it rides
        the same listener path on serial, sharded and async runs.  Dependency
        metadata is the publisher's frontier, so under causal delivery every
        named ``(o, s)`` means "all of origin *o* up to *s*" — the frontier
        comparison covers the whole interval.
        """
        event_id = notification.event_id
        if pid not in self._byzantine():
            for dep in getattr(notification, "deps", ()):
                seen = self._delivered_frontier.get((pid, dep.origin), 0)
                if seen < dep.seq:
                    self._flag(
                        "causality", pid,
                        f"delivered {event_id} before its dependency "
                        f"{dep} (delivered frontier of origin "
                        f"{dep.origin} is {seen})",
                    )
        key = (pid, event_id.origin)
        if event_id.seq > self._delivered_frontier.get(key, 0):
            self._delivered_frontier[key] = event_id.seq

    def _check_protocol_delivery(self, pid: ProcessId, notification) -> None:
        """Agreement and validity (scoped to correct processes)."""
        event_id = notification.event_id
        # Test doubles sometimes deliver payload-less notification stubs;
        # treat those like synthetic digest deliveries (payload None).
        payload = getattr(notification, "payload", None)
        byzantine = self._byzantine()

        # Record what the origin actually published: lpb_cast always
        # self-delivers before gossiping, so the publisher's own delivery is
        # the ground truth every later remote delivery is held against.
        if pid == event_id.origin and payload is not None:
            self._published.setdefault(event_id, payload)

        if pid in byzantine:
            return  # a liar's deliveries prove nothing

        if payload is not None:
            first = self._payload_of.get(event_id)
            if first is None:
                self._payload_of[event_id] = (pid, payload)
            elif payload != first[1]:
                self._flag(
                    "agreement", pid,
                    f"delivered {payload!r} for {event_id} but correct "
                    f"process {first[0]} delivered {first[1]!r}",
                )

        origin = event_id.origin
        if (origin != pid and origin in self._watched
                and origin not in byzantine):
            published = self._published.get(event_id)
            if published is None:
                self._flag(
                    "validity", pid,
                    f"delivered {event_id}, which its correct origin "
                    f"{origin} never published (ghost event)",
                )
            elif payload is not None and payload != published:
                self._flag(
                    "validity", pid,
                    f"delivered {payload!r} for {event_id} but its origin "
                    f"{origin} published {published!r}",
                )

    # -- round-path checks ---------------------------------------------------
    def _on_round(self, round_no: int, sim) -> None:
        self.checks_run += 1
        paused = getattr(sim, "_fault_paused", frozenset())
        byzantine = self._byzantine()
        for pid, node in sim.nodes.items():
            if pid in sim.crashed:
                self._check_crashed_silent(pid, node)
                continue
            self._gossip_baseline.pop(pid, None)  # recovered: re-arm later
            try:
                self._check_node_state(pid, node, round_no,
                                       skip_purge_checks=pid in paused)
                if pid not in byzantine:
                    self._check_view_hygiene(pid, node)
            except AttributeError:
                # Sharded proxy without a fresh replica (or a non-lpbcast
                # node type): state is unreadable here, not wrong.
                continue

    def _check_crashed_silent(self, pid: ProcessId, node) -> None:
        try:
            sent = node.stats.gossips_sent
        except AttributeError:
            return
        baseline = self._gossip_baseline.get(pid)
        if baseline is None:
            self._gossip_baseline[pid] = sent
        elif sent > baseline:
            self._flag("crashed-silence", pid,
                       f"gossips_sent advanced {baseline} -> {sent} after "
                       f"the fail-stop")

    def _check_node_state(self, pid: ProcessId, node, round_no: int,
                          skip_purge_checks: bool) -> None:
        cfg = node.config
        for label, buf, bound in (
            ("view", node.view, cfg.view_max),
            ("subs", node.subs, cfg.subs_max),
            ("unsubs", node.unsubs, cfg.unsubs_max),
            ("events", node.events, cfg.events_max),
            ("event_ids", node.event_ids, cfg.event_ids_max),
        ):
            if len(buf) > bound:
                self._flag("buffer-bounds", pid,
                           f"|{label}| = {len(buf)} exceeds its bound {bound}")

        if pid in node.view:
            self._flag("view-excludes-owner", pid,
                       "the process holds itself in its own view")

        gate = getattr(node, "causal", None)
        if gate is not None:
            held = len(gate.held)
            if held > gate.max_holdback:
                self._flag(
                    "holdback-bound", pid,
                    f"causal hold-back queue holds {held} notifications, "
                    f"exceeding its bound {gate.max_holdback}",
                )

        if not skip_purge_checks:
            # The node ticked (and purged) at now == round_no, and Phase I
            # refuses already-obsolete entries, so nothing obsolete at
            # round_no may remain buffered.  Paused nodes skipped the purge.
            ttl = cfg.unsub_ttl
            for unsub in node.unsubs.snapshot():
                if unsub.is_obsolete(float(round_no), ttl):
                    self._flag(
                        "unsub-expiry", pid,
                        f"unsubscription of {unsub.pid} (t={unsub.timestamp})"
                        f" outlived its TTL {ttl} at round {round_no}",
                    )

    def _check_view_hygiene(self, pid: ProcessId, node) -> None:
        """Fabricated (poison) pids in membership state, scoped to plan."""
        planned = self._planned_ghosts()
        membership: List[ProcessId] = []
        try:
            membership.extend(node.view)
            membership.extend(node.subs)
        except TypeError:
            return
        ghosts = {p for p in membership
                  if isinstance(p, int) and p >= POISON_BASE}
        for ghost in sorted(ghosts - planned):
            self._flag(
                "view-hygiene", pid,
                f"fabricated pid {ghost} resides in view/subs but is "
                f"outside the plan's poison scope",
            )

    # -- reporting -----------------------------------------------------------
    def _flag(self, invariant: str, pid: Optional[ProcessId],
              detail: str) -> None:
        round_no = getattr(self._sim, "round", None) if self._sim else 0
        if round_no is None:
            # Round-less engine (async runtime): bucket by simulated time.
            round_no = int(getattr(self._sim, "now", 0))
        violation = Violation(invariant, pid, round_no, self.seed, detail)
        self.violations.append(violation)
        telemetry = getattr(self._sim, "telemetry", None)
        if telemetry is not None:
            # Violations are rare and critical: count them and force the
            # trace event through even when per-message tracing is off.
            telemetry.inc("invariants.violations", 1, invariant=invariant)
            telemetry.emit("invariant.violation", float(round_no), pid=pid,
                           force=True, invariant=invariant, detail=detail)
        if self.mode == "raise":
            raise InvariantViolation(violation)

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> str:
        """Human-readable summary, one line per violation."""
        if not self.violations:
            return (f"all invariants held "
                    f"({self.checks_run} round checks, seed={self.seed})")
        lines = [f"{len(self.violations)} invariant violation(s), "
                 f"seed={self.seed}:"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)
