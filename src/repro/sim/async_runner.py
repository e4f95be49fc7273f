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
— the process table, crash/revive, fault-plan install, verdict tracing and
counter accounting are the round engines' own code.  What it keeps to
itself is time: ``send`` turns a fault verdict into latencies on the event
kernel (a delay is extra latency, a replay a late second copy) where the
round engines move queue entries between rounds.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

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
        self._fault_round_duration = default_period

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
        self.sim.schedule(phase, lambda: self._tick(node.pid, node_period))

    def _period_of(self, node: GossipProcess) -> float:
        config = getattr(node, "config", None)
        period = getattr(config, "gossip_period", None)
        return period if period is not None else self.default_period

    def on_tick_complete(self, listener: Callable[[ProcessId, float], None]) -> None:
        """Register a callback fired after every node tick (workloads use
        this to publish at the node's own cadence)."""
        self._tick_listeners.append(listener)

    # -- runtime control ---------------------------------------------------
    def crash_at(self, pid: ProcessId, at: float) -> None:
        self.sim.schedule_at(at, lambda: self.crash(pid))

    def call_at(self, at: float, action: Callable[[], None]) -> None:
        """Schedule an arbitrary action (publish, join, partition heal...)."""
        self.sim.schedule_at(at, action)

    def join_at(self, node: GossipProcess, contact: ProcessId, at: float) -> None:
        """Add ``node`` to the running system at time ``at`` and start its
        Sec. 3.4 subscription handshake through ``contact``.  The node's
        gossip timer starts with a random phase after the join, and retries
        are driven by its own ``on_tick`` as usual."""

        def do_join() -> None:
            self.add_node(node)
            self.send(node.pid, node.start_join(contact, self.sim.now))

        self.sim.schedule_at(at, do_join)

    def leave_at(self, pid: ProcessId, at: float) -> None:
        """Schedule a voluntary unsubscription (retrying on Sec. 3.4
        refusal at the next gossip period)."""

        def try_leave() -> None:
            node = self.nodes.get(pid)
            if node is None or pid in self.crashed:
                return
            if not node.try_unsubscribe(self.sim.now):
                self.sim.schedule(self._period_of(node), try_leave)

        self.sim.schedule_at(at, try_leave)

    def use_fault_plan(self, plan, round_duration: Optional[float] = None):
        """Attach a :class:`~repro.faults.plan.FaultPlan`.

        Plans express windows in *rounds*; here one round spans
        ``round_duration`` of simulated time (default: the runtime's default
        gossip period), so round ``r`` covers ``[(r-1)*T, r*T)``.  Crashes
        and recoveries are scheduled on the event kernel; per-message faults
        apply at each send; paused processes skip gossips but keep their
        timers.  Returns the installed injector.
        """
        if round_duration is not None:
            if round_duration <= 0:
                raise ValueError("round_duration must be positive")
            self._fault_round_duration = round_duration
        injector = super().use_fault_plan(plan)
        period = self._fault_round_duration
        for fault in plan.crashes:
            self.sim.schedule_at((fault.at - 1) * period,
                                 lambda p=fault.pid: self._fault_crash(p))
            if fault.recover_at is not None:
                self.sim.schedule_at((fault.recover_at - 1) * period,
                                     lambda f=fault: self._fault_revive(f))
        return injector

    def _fault_crash(self, pid: ProcessId) -> None:
        if self.alive(pid):
            self.crash(pid)
            self._fault_injector.stats.crashes_applied += 1

    def _fault_round(self, at: float) -> int:
        return int(at / self._fault_round_duration) + 1

    def _fault_revive(self, fault) -> None:
        """Crash-with-recovery: un-silence the process and re-subscribe it
        through a contact (Sec. 3.4), restarting its gossip timer at a fresh
        random phase."""
        pid = fault.pid
        if not self.recover(pid):
            return
        self._fault_injector.stats.recoveries_applied += 1
        joins = self._rejoin(fault)
        if joins is None:
            return
        self.send(pid, joins)
        period = self._period_of(self.nodes[pid])
        phase = self.seeds.rng("fault-revive-phase", pid,
                               fault.recover_at).uniform(0.0, period)
        self.sim.schedule(phase, lambda: self._tick(pid, period))

    def send(self, src: ProcessId, outgoings: Sequence[Outgoing]) -> None:
        """Put messages on the wire with loss and latency applied."""
        for out in outgoings:
            copies, extra_delay, replay_delay = 1, 0.0, None
            delivery = out
            if self._fault_injector is not None:
                verdict = self._fault_injector.decide(
                    src, out.destination, self._fault_round(self.sim.now)
                )
                self._trace_verdict(verdict, src, out.destination)
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
                continue
            for _ in range(copies):
                latency = self.network.draw_latency() + extra_delay
                self.sim.schedule(
                    latency,
                    lambda s=src, o=delivery: self._deliver(s, o),
                )
            if replay_delay is not None:
                # replay_stale: one extra, *unmutated* copy arrives lag
                # rounds later — the async analogue of the round engines'
                # delayed-fault replay.
                latency = self.network.draw_latency() + replay_delay
                self.sim.schedule(
                    latency,
                    lambda s=src, o=out: self._deliver(s, o),
                )

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
    def _tick(self, pid: ProcessId, period: float) -> None:
        if pid in self.crashed:
            return  # fail-stop: the timer dies with the process
        if (self._fault_injector is not None
                and self._fault_injector.is_paused(
                    pid, self._fault_round(self.sim.now))):
            # Slow-node fault (GC/CPU stall): the process emits nothing and
            # runs no application work, but its timer survives the pause.
            self.sim.schedule(period, lambda: self._tick(pid, period))
            return
        node = self.nodes[pid]
        with self.telemetry.time("time.tick"):
            ticked = node.on_tick(self.sim.now)
        self.telemetry.record_sends(int(self.sim.now), pid, ticked)
        self.send(pid, ticked)
        for listener in self._tick_listeners:
            listener(pid, self.sim.now)
        self.sim.schedule(period, lambda: self._tick(pid, period))

    def _deliver(self, src: ProcessId, out: Outgoing) -> None:
        dst = out.destination
        if dst in self.crashed or dst not in self.nodes:
            return
        self.messages_delivered += 1
        if self.telemetry.tracing:
            self.telemetry.emit("receive", self.sim.now, pid=dst, peer=src,
                                message=type(out.message).__name__)
        with self.telemetry.time("time.delivery"):
            replies = self.nodes[dst].handle_message(src, out.message,
                                                     self.sim.now)
        self.telemetry.record_sends(int(self.sim.now), dst, replies)
        if replies:
            self.send(dst, replies)
