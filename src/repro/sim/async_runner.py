"""Asynchronous gossip runtime — the testbed substitute for Sec. 5.2.

The paper's measurements ran 125 processes on two LANs with *non-synchronized*
periodic gossips.  This runtime reproduces those conditions on the
discrete-event kernel:

* each process owns a timer with period ``T`` (its config's
  ``gossip_period``), started at a uniformly random phase so ticks are not
  synchronized across processes;
* every message experiences a latency drawn from the network model (the
  paper assumes an upper bound on latency smaller than ``T``);
* messages are dropped i.i.d. with probability ε and crashed processes are
  silenced fail-stop.

Substitution note (DESIGN.md §4): the measured quantities — delivery
reliability as a function of the view bound ``l`` and the digest bound
``|eventIds|m`` — depend only on protocol and buffer dynamics under these
timing assumptions, not on the 2001 Solaris/Fast-Ethernet hardware.

The runtime is a *scheduler* over :class:`~repro.sim.round_runner.EngineCore`
— the process table, crash/revive, fault-plan install and counter
accounting are the round engines' own code, and verdicts are traced by the
one :func:`~repro.faults.injector.trace_verdict`.  What it keeps to
itself is time: ``send`` turns a fault verdict into latencies on the event
kernel (a delay is extra latency, a replay a late second copy) where the
round engines move queue entries between rounds.

It is also the one event-driven runtime of the repository.  ``send`` hands
every message that survives its verdict to :meth:`AsyncGossipRuntime._carry`,
the transport seam: by default a delivery after a drawn latency, and on
:class:`~repro.runtime.udp.LocalDeployment` — this runtime on the wall
clock — binary frames on a loopback socket.  Nodes are handed
:meth:`~repro.sim.round_runner.EngineCore._clock`, the agenda's time here
and ``time.monotonic()`` there.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from ..core.ids import ProcessId
from ..core.message import Outgoing
from .engine import Simulator
from .network import NetworkModel
from .round_runner import EngineCore, GossipProcess


class AsyncGossipRuntime(EngineCore):
    """Runs gossip processes with independent periodic timers."""

    def __init__(
        self,
        network: Optional[NetworkModel] = None,
        seed: int = 0,
        default_period: float = 1.0,
    ) -> None:
        super().__init__(network, seed)
        self.sim = Simulator()
        self.default_period = default_period
        self._tick_listeners: List[Callable[[ProcessId, float], None]] = []
        self._tick_time = self.telemetry.histogram("time.tick")
        self._delivery_time = self.telemetry.histogram("time.delivery")
        self._fault_round_duration = default_period
        #: pid -> its gossip timer's epoch (0 unless revived): a revival
        #: starts a new timer, and a tick of an older epoch still pending
        #: on the agenda returns instead of running beside it.
        self._timer_epochs: Dict[ProcessId, int] = {}

    def _clock(self) -> float:
        return self.sim.now

    # -- construction ------------------------------------------------------
    def add_node(self, node: GossipProcess, period: Optional[float] = None) -> None:
        """Register ``node`` and start its gossip timer at a random phase."""
        if node.pid in self.nodes:
            raise ValueError(f"duplicate process id {node.pid}")
        self.nodes[node.pid] = node
        node_period = period if period is not None else self._period_of(node)
        phase = self.seeds.rng("phase", node.pid).uniform(0.0, node_period)
        self.sim.schedule(phase, self._tick, node.pid, node_period, 0)

    def _period_of(self, node: GossipProcess) -> float:
        config = getattr(node, "config", None)
        period = getattr(config, "gossip_period", None)
        return period if period is not None else self.default_period

    def on_tick_complete(self, listener: Callable[[ProcessId, float], None]) -> None:
        """Register a callback fired after every node tick (workloads use
        this to publish at the node's own cadence)."""
        self._tick_listeners.append(listener)

    # -- runtime control ---------------------------------------------------
    def call_at(self, at: float, action: Callable[[], None]) -> None:
        """Schedule an arbitrary action (publish, a crash through
        ``partial(runtime.crash, pid)``...)."""
        self.sim.schedule_at(at, action)

    def join_at(self, node: GossipProcess, contact: ProcessId, at: float) -> None:
        """Add ``node`` to the running system at time ``at`` and start its
        Sec. 3.4 subscription handshake through ``contact``.  The node's
        gossip timer starts with a random phase after the join, and retries
        are driven by its own ``on_tick`` as usual."""
        self.sim.schedule_at(at, self._join, node, contact)

    def _join(self, node: GossipProcess, contact: ProcessId) -> None:
        self.add_node(node)
        self.send(node.pid, node.start_join(contact, self._clock()))

    def leave_at(self, pid: ProcessId, at: float) -> None:
        """Schedule a voluntary unsubscription (retrying on Sec. 3.4
        refusal at the next gossip period)."""
        self.sim.schedule_at(at, self._try_leave, pid)

    def _try_leave(self, pid: ProcessId) -> None:
        node = self.nodes.get(pid)
        if node is None or pid in self.crashed:
            return
        if not node.try_unsubscribe(self._clock()):
            self.sim.schedule(self._period_of(node), self._try_leave, pid)

    def use_fault_plan(self, plan, round_duration: Optional[float] = None):
        """Attach a :class:`~repro.faults.plan.FaultPlan`.

        Plans express windows in *rounds*; here one round spans
        ``round_duration`` of simulated time (default: the runtime's default
        gossip period), so round ``r`` covers ``[(r-1)*T, r*T)``.  Crashes
        and recoveries are scheduled on the event kernel; per-message faults
        apply at each send; paused processes skip gossips but keep their
        timers.  Returns the installed injector.
        """
        if round_duration is not None and round_duration <= 0:
            raise ValueError("round_duration must be positive")
        injector = super().use_fault_plan(plan)
        if round_duration is not None:
            self._fault_round_duration = round_duration
        period = self._fault_round_duration
        for fault in plan.crashes:
            self.sim.schedule_at((fault.at - 1) * period,
                                 self._fault_crash, fault.pid)
            if fault.recover_at is not None:
                self.sim.schedule_at((fault.recover_at - 1) * period,
                                     self._fault_revive, fault)
        return injector

    def _fault_crash(self, pid: ProcessId) -> None:
        if self.alive(pid):
            self.crash(pid)
            self._fault_injector.stats.crashes_applied += 1

    def _fault_round(self, at: float) -> int:
        return int(at / self._fault_round_duration) + 1

    def _fault_revive(self, fault) -> None:
        """Crash-with-recovery: un-silence the process and re-subscribe it
        through a contact (Sec. 3.4) when one is alive, restarting its
        gossip timer at a fresh random phase either way (the round engines
        tick a revived process too), in a new epoch: a tick the crash left
        pending dies."""
        pid = fault.pid
        if not self.recover(pid):
            return
        self._fault_injector.stats.recoveries_applied += 1
        joins = self._rejoin(fault)
        if joins is not None:
            self.send(pid, joins)
        period = self._period_of(self.nodes[pid])
        phase = self.seeds.rng("fault-revive-phase", pid,
                               fault.recover_at).uniform(0.0, period)
        epoch = self._timer_epochs[pid] = self._timer_epochs.get(pid, 0) + 1
        self.sim.schedule(phase, self._tick, pid, period, epoch)

    def send(self, src: ProcessId, outgoings: Sequence[Outgoing]) -> None:
        """Take one fault verdict and one network draw per message, in
        order, and hand each survivor to :meth:`_carry`."""
        injector = self._fault_injector
        if injector is not None:
            now = self._clock()
            round_no = self._fault_round(now)
        for out in outgoings:
            copies, extra_delay, replay_delay = 1, 0.0, None
            delivery = out
            if injector is not None:
                verdict = injector.decide(src, out.destination, round_no)
                if self.telemetry.tracing:
                    # Not at the top: repro.faults imports repro.sim.
                    from ..faults.injector import trace_verdict
                    trace_verdict(self.telemetry, now, verdict,
                                  src, out.destination)
                if verdict.action == "drop":
                    continue
                if verdict.action == "delay":
                    extra_delay = verdict.delay * self._fault_round_duration
                copies = verdict.copies
                if verdict.mutation is not None:
                    delivery = Outgoing(
                        out.destination,
                        self._mutate_message(out.message, verdict.mutation,
                                             out.destination),
                    )
                if verdict.replay:
                    replay_delay = verdict.replay * self._fault_round_duration
            if not self.network.deliverable(src, out.destination):
                if self.telemetry.tracing:
                    self.telemetry.emit("net.drop", self._clock(), pid=src,
                                        peer=out.destination)
                continue
            self._carry(src, delivery, copies, extra_delay)
            if replay_delay is not None:
                # replay_stale: one extra, *unmutated* copy arrives lag
                # rounds later — the async analogue of the round engines'
                # delayed-fault replay.
                self._carry(src, out, 1, replay_delay)

    def _carry(self, src: ProcessId, out: Outgoing, copies: int,
               delay: float) -> None:
        """The transport: ``copies`` of one surviving message, each
        delivered a drawn latency plus ``delay`` from now."""
        for _ in range(copies):
            self.sim.schedule(self.network.draw_latency() + delay,
                              self._deliver, src, out.destination,
                              out.message)

    def run_until(self, deadline: float) -> None:
        with self.telemetry.time("time.round"):
            self.sim.run_until(deadline)
        # The ``round`` label on this runtime is the integer part of
        # simulated time, i.e. one bucket per default gossip period.
        self._sync_engine_counters(int(self.sim.now))

    def run_rounds(self, rounds: int,
                   round_duration: Optional[float] = None) -> None:
        """Advance simulated time by ``rounds`` gossip periods.

        The uniform scenario-application entry point shared with the round
        engines: one "round" spans ``round_duration`` of simulated time
        (default: the fault layer's round duration, i.e. the default gossip
        period), so driving every engine by a round count runs comparable
        workloads.  Resumable — each call continues from ``self.now``.
        """
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        period = (round_duration if round_duration is not None
                  else self._fault_round_duration)
        if period <= 0:
            raise ValueError("round_duration must be positive")
        self.run_until(self.sim.now + rounds * period)

    @property
    def now(self) -> float:
        return self.sim.now

    # -- internals ---------------------------------------------------------
    def _tick(self, pid: ProcessId, period: float, epoch: int) -> None:
        if pid in self.crashed or epoch != self._timer_epochs.get(pid, 0):
            return  # fail-stop, or a timer a revival superseded: it dies
        now = self._clock()
        if (self._fault_injector is not None
                and self._fault_injector.is_paused(pid,
                                                   self._fault_round(now))):
            # Slow-node fault (GC/CPU stall): the process emits nothing and
            # runs no application work, but its timer survives the pause.
            self.sim.schedule(period, self._tick, pid, period, epoch)
            return
        started = perf_counter()
        ticked = self.nodes[pid].on_tick(now)
        self._tick_time.observe(perf_counter() - started)
        self._record_sends(pid, ticked)
        self.send(pid, ticked)
        for listener in self._tick_listeners:
            listener(pid, now)
        self.sim.schedule(period, self._tick, pid, period, epoch)

    def _record_sends(self, pid: ProcessId, outgoings: List[Outgoing]) -> None:
        """Account what one tick or handler emitted (``sim.sends``)."""
        self.telemetry.record_sends(int(self.sim.now), pid, outgoings)

    def _deliver(self, src: ProcessId, dst: ProcessId, message) -> None:
        if dst in self.crashed or dst not in self.nodes:
            return
        self.messages_delivered += 1
        now = self._clock()
        telemetry = self.telemetry
        if telemetry.tracing:
            telemetry.emit("receive", now, pid=dst, peer=src,
                           message=type(message).__name__)
        started = perf_counter()
        replies = self.nodes[dst].handle_message(src, message, now)
        self._delivery_time.observe(perf_counter() - started)
        if replies:
            self._record_sends(dst, replies)
            self.send(dst, replies)
