"""Synchronous-round simulation (paper Sec. 5.1).

"In a first attempt we have simulated the entire system in a single process.
More precisely, we have simulated synchronous gossip rounds in which each
process gossips once."

The runner is protocol-agnostic: any object exposing ``pid``,
``on_tick(now) -> [Outgoing]`` and ``handle_message(sender, message, now) ->
[Outgoing]`` can participate, which lets the same harness drive lpbcast,
pbcast with a total view, and pbcast with the partial-view membership — the
exact comparison of Fig. 7(a).

Round semantics
---------------
At round ``r`` (``now = r``):

1. the fault plan's round-start actions apply (crashes, recoveries,
   pauses, held-back messages coming due);
2. round hooks fire (workloads publish, churn scripts join/leave processes);
3. every alive node ticks once; the produced gossips are shuffled and
   delivered subject to the network model;
4. *reply* messages produced during delivery (retransmission solicitations
   and answers, subscription handshakes) are delivered within the same round
   up to ``max_reply_generations`` generations — mirroring the paper's
   assumption that network latency is below the gossip period — and carried
   over to the next round beyond that;
5. observers run.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from ..core.ids import ProcessId
from ..core.message import Outgoing
from ..telemetry import Telemetry
from .aggregates import NodeAggregates, aggregate_nodes
from .network import NetworkModel
from .rng import SeedSequence


class GossipProcess(Protocol):
    """Structural interface every simulated protocol node satisfies."""

    pid: ProcessId

    def on_tick(self, now: float) -> List[Outgoing]: ...

    def handle_message(
        self, sender: ProcessId, message: object, now: float
    ) -> List[Outgoing]: ...


RoundHook = Callable[[int, "RoundSimulation"], None]
"""Invoked at the start of a round: ``hook(round_number, sim)``."""

RoundObserver = Callable[[int, "RoundSimulation"], None]
"""Invoked at the end of a round: ``observer(round_number, sim)``."""


class EngineCore:
    """What every object-per-node engine keeps and accounts the same way.

    :class:`RoundSimulation` (and through it the sharded engine) and
    :class:`~repro.sim.async_runner.AsyncGossipRuntime` are schedulers over
    this core: they differ in *when* a node ticks and a message arrives,
    not in how processes are kept, crashed and revived, how a fault plan is
    installed, how a struck verdict is traced, or how the accounting reaches
    the telemetry registry.  A subclass supplies its clock (:meth:`_clock`)
    and its own ``add_node``.
    """

    def __init__(self, network: Optional[NetworkModel], seed: int) -> None:
        self.seeds = SeedSequence(seed)
        self.network = network if network is not None else NetworkModel(
            loss_rate=0.0, rng=self.seeds.rng("network")
        )
        #: Engine-native observability (see repro.telemetry): the engine
        #: counts every emitted message itself, so instruments never wrap
        #: node methods and sharded workers count exactly like serial runs.
        self.telemetry = Telemetry()
        self._tele_baseline: Dict[str, int] = {}
        self.nodes: Dict[ProcessId, GossipProcess] = {}
        #: Fail-stopped pids, a subset of ``nodes``.  A plain set: hooks and
        #: tests may mutate it directly, every reader derives from it.
        self.crashed: set = set()
        self.messages_delivered = 0
        #: Messages addressed to a process that fail-stopped (Sec. 4.1).
        self.messages_to_crashed = 0
        #: Messages addressed to a process this simulation never knew about
        #: (e.g. a stale view entry for a process that was never added) —
        #: distinct from crashes, which are fail-stops of known processes.
        #: The async runtime discards both kinds unseen: there the two
        #: counters stay 0.
        self.messages_to_unknown = 0
        #: The attached :class:`~repro.faults.injector.FaultInjector` and the
        #: Byzantine mutation applier, both set by :meth:`use_fault_plan`.
        self._fault_injector = None
        self._mutate_message = None

    def _clock(self) -> float:
        """The engine's time coordinate: what trace events are stamped
        with and what every node method is handed as ``now``."""
        raise NotImplementedError

    def add_nodes(self, nodes: Sequence[GossipProcess]) -> None:
        for node in nodes:
            self.add_node(node)

    def use_fault_plan(self, plan) -> "object":
        """Attach a :class:`~repro.faults.plan.FaultPlan`; its faults draw
        from the dedicated ``"faults"`` stream, so runs with the same root
        seed and plan replay bit-for-bit (and serial equals sharded).
        Returns the installed :class:`~repro.faults.injector.FaultInjector`
        (its ``stats`` count the faults that actually struck).  One plan per
        engine: a second install raises ``ValueError`` (compose the windows
        into one plan instead)."""
        from ..faults.byzantine import mutate_message
        from ..faults.injector import FaultInjector

        if self._fault_injector is not None:
            raise ValueError("a fault plan is already installed")
        self._fault_injector = FaultInjector(plan, self.seeds.rng("faults"))
        self._mutate_message = mutate_message
        return self._fault_injector

    # -- liveness ----------------------------------------------------------
    def crash(self, pid: ProcessId) -> None:
        """Fail-stop ``pid`` immediately (no recovery, Sec. 4.1)."""
        if pid in self.nodes and pid not in self.crashed:
            self.crashed.add(pid)
            self.telemetry.emit("crash", self._clock(), pid=pid)

    def recover(self, pid: ProcessId) -> bool:
        """Un-crash ``pid``; returns whether a revival happened.

        The symmetric counterpart of :meth:`crash` — revival keeps the
        node's retained state but performs no membership re-join (the fault
        injector's recovery path layers the Sec. 3.4 re-subscription on
        top).  Safe to call from round hooks: the revived node ticks in the
        same round.
        """
        if pid not in self.crashed or pid not in self.nodes:
            return False
        self.crashed.discard(pid)
        return True

    def alive(self, pid: ProcessId) -> bool:
        return pid in self.nodes and pid not in self.crashed

    def alive_count(self) -> int:
        """Number of alive processes — O(1), ``crashed`` ⊆ ``nodes``."""
        return len(self.nodes) - len(self.crashed)

    def alive_nodes(self) -> List[GossipProcess]:
        """The alive nodes, in node-insertion order (a fresh list)."""
        crashed = self.crashed
        if not crashed:
            return list(self.nodes.values())
        return [n for pid, n in self.nodes.items() if pid not in crashed]

    def _rejoin(self, fault) -> Optional[List[Outgoing]]:
        """The Sec. 3.4 re-subscription of the just-revived ``fault.pid``:
        its join request through the planned contact (a fault-stream draw
        over the alive processes when that one is down or unnamed), or
        ``None`` when nobody is left alive to rejoin through."""
        pid = fault.pid
        contact = fault.contact
        if contact is None or not self.alive(contact):
            candidates = [p for p in self.nodes
                          if p != pid and p not in self.crashed]
            contact = self._fault_injector.pick_contact(candidates)
        if contact is None:
            return None
        now = self._clock()
        self.telemetry.emit("recovery", now, pid=pid, peer=contact)
        return self.nodes[pid].start_join(contact, now)

    # -- telemetry ---------------------------------------------------------
    def _sync_engine_counters(self, bucket: int) -> None:
        """Fold the engine's plain accounting attributes (and the fault
        injector's strike counters) into the telemetry registry as deltas
        labelled ``round=bucket``.  Consumes no randomness — bit-identity
        of the run is unaffected."""
        updates = {
            "sim.delivered": self.messages_delivered,
            "sim.to_crashed": self.messages_to_crashed,
            "sim.to_unknown": self.messages_to_unknown,
            "net.offered": self.network.messages_offered,
            "net.dropped": self.network.messages_dropped,
        }
        if self._fault_injector is not None:
            for name, value in self._fault_injector.stats.as_dict().items():
                updates[f"faults.{name}"] = value
        for name, value in updates.items():
            last = self._tele_baseline.get(name, 0)
            if value != last:
                self.telemetry.inc(name, value - last, round=bucket)
                self._tele_baseline[name] = value
        self.telemetry.set_gauge("sim.alive", float(self.alive_count()))

    def node_aggregates(self, pids: Optional[Sequence[ProcessId]] = None
                        ) -> NodeAggregates:
        """Summed stats/occupancy/in-degree over the alive nodes (optionally
        restricted to ``pids``) — the :class:`~repro.sim.recorder.RunRecorder`
        feed.  The sharded engine overrides this with a shard-local
        aggregation, so for the same seed both engines return equal values
        without shipping node state."""
        if pids is None:
            targets = self.alive_nodes()
        else:
            targets = [self.nodes[p] for p in pids if self.alive(p)]
        return aggregate_nodes(targets)


class RoundSimulation(EngineCore):
    """Drives a set of gossip processes through synchronous rounds."""

    def __init__(
        self,
        network: Optional[NetworkModel] = None,
        seed: int = 0,
        max_reply_generations: int = 4,
        on_node_error: str = "raise",
    ) -> None:
        if on_node_error not in ("raise", "crash"):
            raise ValueError("on_node_error must be 'raise' or 'crash'")
        super().__init__(network, seed)
        self.max_reply_generations = max_reply_generations
        #: "raise" propagates a node's exception (deterministic test runs);
        #: "crash" converts it into a fail-stop of that node — what a real
        #: deployment's process supervisor would observe.
        self.on_node_error = on_node_error
        self.node_errors: List[tuple] = []
        self._shuffle_rng: random.Random = self.seeds.rng("delivery-order")
        self.round = 0
        #: Queue entries waiting for the next round.  What an entry *is* is
        #: the engine's business — ``(src, Outgoing)`` here, payload
        #: references on the sharded engine; the round body and the verdict
        #: interpreter touch one only through the entry hooks below.
        self._carryover: List = []
        self._hooks: List[RoundHook] = []
        self._observers: List[RoundObserver] = []
        #: Fault-injection state (see repro.faults): the pids whose ticks
        #: are suppressed this round, and entries held back by delay and
        #: replay verdicts as (due_round, entry) pairs.
        self._fault_paused: frozenset = frozenset()
        self._delayed_faults: List[tuple] = []

    def _clock(self) -> float:
        return float(self.round)

    # -- construction ------------------------------------------------------
    def add_node(self, node: GossipProcess) -> None:
        if node.pid in self.nodes:
            raise ValueError(f"duplicate process id {node.pid}")
        self.nodes[node.pid] = node

    def add_round_hook(self, hook: RoundHook) -> None:
        self._hooks.append(hook)

    def add_observer(self, observer: RoundObserver) -> None:
        self._observers.append(observer)

    def inject(self, src: ProcessId, outgoings: Sequence[Outgoing]) -> None:
        """Queue externally produced messages (e.g. a join request from a
        process created mid-run) for delivery in the next round."""
        self._carryover.extend((src, out) for out in outgoings)

    # -- the round loop ----------------------------------------------------
    def run_round(self) -> None:
        with self.telemetry.time("time.round"):
            self._run_round_body()

    def _run_round_body(self) -> None:
        """The one round body.  An engine is the three phases it calls —
        :meth:`_tick_phase`, :meth:`_delivery_phase`, :meth:`_round_end` —
        plus the entry hooks :meth:`_fault_expand` reads a queue through;
        order, shuffle and verdict handling are shared."""
        self.round += 1
        now = float(self.round)
        telemetry = self.telemetry
        # Checked-once telemetry fast path: with tracing off, per-message
        # ``emit`` calls are skipped at the call site (one attribute test
        # per round instead of a function call per message); counters are
        # always recorded — they are part of the bit-identity contract.
        if telemetry.tracing:
            telemetry.emit("round.start", now, alive=self.alive_count())

        if self._fault_injector is not None:
            self._fault_round_start()

        for hook in self._hooks:
            hook(self.round, self)

        with telemetry.time("time.tick"):
            queue = self._tick_phase(now)

        generation = 0
        with telemetry.time("time.delivery"):
            shuffle = self._shuffle_rng.shuffle
            while queue and generation <= self.max_reply_generations:
                shuffle(queue)
                if self._fault_injector is not None:
                    queue = self._fault_expand(queue)
                queue = self._delivery_phase(now, generation, queue)
                generation += 1
        # Anything still queued (deep reply chains) is delayed one round.
        self._carryover.extend(queue)

        self._round_end()
        if telemetry.tracing:
            telemetry.emit("round.end", now, alive=self.alive_count(),
                           delivered=self.messages_delivered)
        with telemetry.time("time.observers"):
            for observer in self._observers:
                observer(self.round, self)

    def _tick_phase(self, now: float) -> List:
        """The round's first queue: the carryover, then every alive,
        unpaused node's tick output in node-insertion order."""
        queue = self._carryover
        self._carryover = []
        telemetry = self.telemetry
        round_no = self.round
        paused = self._fault_paused
        append = queue.append
        for node in self.alive_nodes():
            pid = node.pid
            if pid in paused:
                continue  # slow-node fault: no tick, still receives
            try:
                ticked = node.on_tick(now)
            except Exception as exc:
                self._handle_node_error(pid, "on_tick", exc)
                continue
            if ticked:
                telemetry.record_sends(round_no, pid, ticked)
                for out in ticked:
                    append((pid, out))
        return queue

    def _delivery_phase(self, now: float, generation: int,
                        queue: List) -> List:
        """Deliver one shuffled, verdict-expanded generation; returns the
        replies it produced (the next generation's queue)."""
        # One shared replies list per generation; _deliver appends into it
        # instead of allocating a fresh list per message.
        replies: List[Tuple[ProcessId, Outgoing]] = []
        deliver = self._deliver
        for src, out in queue:
            deliver(src, out, now, replies)
        return replies

    def _round_end(self) -> None:
        """Close the round's accounting — before ``round.end`` and the
        observers, so observers always read current totals."""
        self._sync_engine_counters(self.round)
        self.telemetry.inc("sim.rounds", 1)

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.run_round()

    def run_until(self, predicate: Callable[["RoundSimulation"], bool],
                  max_rounds: int = 1000) -> int:
        """Run rounds until ``predicate(sim)`` holds; returns the round count.

        Raises ``RuntimeError`` if the predicate is still false after
        ``max_rounds`` — simulations must not hang silently.
        """
        remaining = max_rounds
        while True:
            if predicate(self):
                return self.round
            if remaining <= 0:
                raise RuntimeError(
                    f"predicate not satisfied within {max_rounds} rounds")
            self.run_round()
            remaining -= 1

    # -- fault injection ---------------------------------------------------
    def _fault_round_start(self) -> None:
        """Apply the plan's round-start actions: crashes, recoveries (with
        the Sec. 3.4 re-subscription), the paused-pid set, and the release
        of held-back entries that come due this round.

        The ordering (recovery joins before released entries, both ahead of
        tick output) is part of the serial/sharded determinism contract.
        """
        actions = self._fault_injector.round_start(self.round)
        for fault in actions.crashes:
            self.crash(fault.pid)
        for fault in actions.recoveries:
            # Crash-with-recovery exercises the Sec. 3.3/3.4 membership path.
            if self.recover(fault.pid):
                self.inject(fault.pid, self._rejoin(fault) or ())
        self._fault_paused = actions.paused
        later: List[tuple] = []
        for held in self._delayed_faults:
            if held[0] <= self.round:
                self._carryover.append(held[1])
            else:
                later.append(held)
        self._delayed_faults = later

    def _fault_expand(self, queue: List) -> List:
        """The one verdict interpreter: one injector verdict per queued
        entry, in shuffled order — drops vanish, delays move to the
        hold-back list, duplicates appear immediately after their original,
        Byzantine mutations rewrite the delivered copy, and replays schedule
        an extra stale, unmutated copy that re-enters with the carryover
        ``replay`` rounds later and receives its own verdict then."""
        expanded: List = []
        decide = self._fault_injector.decide
        held = self._delayed_faults
        telemetry = self.telemetry
        for entry in queue:
            src, dst = self._endpoints(entry)
            verdict = decide(src, dst)
            if telemetry.tracing:
                # Not at the top: repro.faults imports repro.sim.
                from ..faults.injector import trace_verdict
                trace_verdict(telemetry, self._clock(), verdict, src, dst)
            if verdict.action == "drop":
                self._discard(entry)
                continue
            if verdict.action == "delay":
                held.append((self.round + verdict.delay, entry))
                continue
            if verdict.replay:
                held.append((self.round + verdict.replay,
                             self._copy_of(entry)))
            if verdict.mutation is not None:
                entry = self._mutated(entry, verdict.mutation)
            expanded.append(entry)
            for _ in range(verdict.copies - 1):
                expanded.append(self._copy_of(entry))
        return expanded

    # -- queue-entry hooks (what the sharded engine overrides) --------------
    def _endpoints(self, entry) -> Tuple[ProcessId, ProcessId]:
        """``(src, dst)`` of a queue entry."""
        return entry[0], entry[1].destination

    def _copy_of(self, entry):
        """A second delivery of ``entry`` (duplicate or stale replay)."""
        return entry  # immutable here: the same pair may be queued twice

    def _mutated(self, entry, mutation: tuple):
        """``entry`` with a Byzantine ``mutation`` applied to its payload."""
        src, out = entry
        mutated = self._mutate_message(out.message, mutation,
                                       out.destination)
        if mutated is out.message:
            return entry
        return src, Outgoing(out.destination, mutated)

    def _discard(self, entry) -> None:
        """``entry`` was dropped by a verdict; nothing is held for it."""

    # -- delivery ----------------------------------------------------------
    def _admit(self, src: ProcessId, dst: ProcessId) -> bool:
        """Decide whether one message survives to delivery, updating the
        accounting counters and consuming the network stream.

        The sender check comes first: a message from a process that crashed
        earlier in the round was never sent, so it must not count against
        the destination (or consume a network-loss draw).  Unknown and
        crashed destinations are counted separately — conflating them hides
        stale-view traffic behind the crash counter.  A network loss is
        traced as ``net.drop`` (the ``fault.*`` verdicts trace the rest).
        """
        if src in self.crashed:
            return False  # the sender crashed earlier this round
        if dst not in self.nodes:
            self.messages_to_unknown += 1
            return False
        if dst in self.crashed:
            self.messages_to_crashed += 1
            return False
        if not self.network.deliverable(src, dst):
            if self.telemetry.tracing:
                self.telemetry.emit("net.drop", self._clock(), pid=src,
                                    peer=dst)
            return False
        self.messages_delivered += 1
        return True

    def _deliver(self, src: ProcessId, out: Outgoing, now: float,
                 replies: List[Tuple[ProcessId, Outgoing]]) -> None:
        """Deliver one admitted message, appending any protocol replies to
        the caller's shared ``replies`` list (one list per generation — the
        per-message list allocation used to dominate the delivery loop)."""
        dst = out.destination
        if not self._admit(src, dst):
            return
        telemetry = self.telemetry
        if telemetry.tracing:
            telemetry.emit("receive", now, pid=dst, peer=src,
                           message=type(out.message).__name__)
        try:
            produced = self.nodes[dst].handle_message(src, out.message, now)
        except Exception as exc:
            self._handle_node_error(dst, "handle_message", exc)
            return
        if produced:
            telemetry.record_sends(self.round, dst, produced)
            for reply in produced:
                replies.append((dst, reply))

    def _handle_node_error(self, pid: ProcessId, where: str,
                           exc: Exception) -> None:
        if self.on_node_error == "raise":
            raise exc
        self.node_errors.append((pid, where, exc))
        self.crash(pid)
