"""The six ledger workloads.

Each workload generates every input from ``(seed, seconds)``, builds the
program through its public API only, and hands back raw measurements of one
*measured window*: the stretch from the first measured publish to the end
of the drain.  ``--seconds`` sets the length of the stream a window
publishes.  ``worker.py`` runs a deterministic workload on :data:`REPLAYS`
fresh instances — exact replays, which must reproduce each other's outputs
— and a real-time one on two deployments, whose operations it pools; every
timed step then counts at its fastest instance.  What the numbers mean is
in README.md; this file is how they are taken.
"""

from __future__ import annotations

import gc
import os
import resource
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import sim as rsim
from repro.core import EventId, LpbcastConfig, LpbcastNode, Notification
from repro.faults.plan import FaultPlan
from repro.runtime.udp import LocalDeployment
from repro.sim.columnar_runner import ColumnarRoundSimulation
from repro.sim.rng import derive_rng, derive_seed
from repro.telemetry import counter_fingerprint

from ledger import gauge, quantile

#: Fresh instances an untraced run measures a deterministic workload on.
#: Fixed, so the estimator is the same whatever ``--seconds`` is.
REPLAYS = 3
WARMUP_ROUNDS = 3
#: Gossip periods a real-time or event-driven workload warms up for, and
#: drains for at least and at most (see :func:`drain_goes_on`).
WARMUP_PERIODS = 5
DRAIN_PERIODS = 20
DRAIN_MAX_PERIODS = 100
#: Rounds a round-engine workload drains for at most.
DRAIN_MAX_ROUNDS = 40

#: ``delivered_fraction`` floor: every workload drains until its broadcast
#: is complete, so every entry of history.jsonl reads 1.0; the floor is
#: that minus 0.02.
FRACTION_FLOOR = 0.98


def drain_goes_on(drained: float, scheduled: float, limit: float, missing: int) -> bool:
    """Whether a window that has drained for ``drained`` rounds (periods)
    drains on: for its scheduled length, then for as long as an operation
    is outstanding, ``limit`` at most.  Gossip completes with probability
    one but in no fixed time, so only a drain that waits for it gives a
    workload on which no operation fails whatever the seed; what the wait
    costs shows in the window's length and in ``latency_p99_periods``."""
    return drained < scheduled or (missing > 0 and drained < limit)


def shm_entries() -> frozenset:
    """Names under /dev/shm (empty where the platform has none)."""
    try:
        return frozenset(os.listdir("/dev/shm"))
    except OSError:
        return frozenset()


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class DeliveryRecorder:
    """The harness's delivery listener: O(1) per LPB-DELIVER.

    Event ids are registered *before* the publish (a fresh node numbers
    its events 1, 2, ... so the id is known in advance), with the time the
    publish was due.  A delivery is then one dict lookup, one byte test in
    the event's per-process flag array and one list append — no scan of
    earlier records.  Every mutable slot is either per process (and so
    guarded by that process's host lock on the UDP runtime) or a list
    append, which is atomic.
    """

    def __init__(self, slots: int, correct: Optional[Sequence[int]] = None) -> None:
        self.slots = slots
        #: 1 for processes whose deliveries count as operations.
        self.correct = bytearray([1]) * slots
        if correct is not None:
            self.correct = bytearray(slots)
            for pid in correct:
                self.correct[pid] = 1
        self.due: Dict[EventId, Optional[float]] = {}
        self._seen: Dict[EventId, bytearray] = {}
        self._published: Dict[int, int] = {}
        #: Latency of each first delivery of a measured event at a correct
        #: process other than its publisher, in the workload's clock.
        self.latencies: List[float] = []
        #: First deliveries of any registered event, per process.
        self.new_by_pid = [0] * slots
        #: LPB-DELIVERs of an event the process had already delivered.
        self.redeliveries_by_pid = [0] * slots
        #: Delivered ids nobody registered: a correctness failure.
        self.unknown: List[EventId] = []

    def expect(self, publisher: int, due: Optional[float]) -> EventId:
        """Register the publisher's next event; ``due=None`` marks a
        warm-up event whose deliveries are not operations."""
        seq = self._published.get(publisher, 0) + 1
        self._published[publisher] = seq
        event_id = EventId(publisher, seq)
        self._seen[event_id] = bytearray(self.slots)
        self.due[event_id] = due
        return event_id

    def __call__(self, pid: int, notification: Notification, now: float) -> None:
        event_id = notification.event_id
        if event_id[0] == pid:
            return                      # the publisher's own delivery
        seen = self._seen.get(event_id)
        if seen is None:
            self.unknown.append(event_id)
            return
        if seen[pid]:
            self.redeliveries_by_pid[pid] += 1
            return
        seen[pid] = 1
        self.new_by_pid[pid] += 1
        due = self.due[event_id]
        if due is not None and self.correct[pid]:
            self.latencies.append(now - due)

    def measured_events(self) -> int:
        return sum(1 for due in self.due.values() if due is not None)


def publish(recorder: DeliveryRecorder, node, payload, now: float,
            due: Optional[float]) -> None:
    """Register, publish, and insist the id was the one registered."""
    expected = recorder.expect(node.pid, due)
    notification = node.lpb_cast(payload, now)
    if notification.event_id != expected:
        raise RuntimeError(
            f"publish produced {notification.event_id}, expected {expected}")


class Window:
    """Raw measurements of one measured window.

    The window is timed step by step — a round, half a second of a stream —
    and every instance of a workload cuts its window into the same steps,
    so that ``worker.py`` can charge each step what its fastest instance
    took (README, "Windows, instances and steps")."""

    def __init__(self) -> None:
        #: (wall seconds, CPU seconds) of each timed step, in order.
        self.steps: List[Tuple[float, float]] = []
        #: Samples of the host's speed taken between the steps.
        self.gauge: List[float] = []
        #: Windows pooled into this one (itself included).
        self.pooled = 1
        self.node_periods = 0.0     # periods advanced, summed over processes
        self.period_s = 1.0         # clock units per period
        self.latencies: List[float] = []    # in clock units
        self.latency_histogram: Optional[Dict[int, int]] = None  # whole periods
        self.deliveries = 0
        self.expected = 0
        self.messages = 0
        #: Bytes put on the wire; only the UDP workloads send any.
        self.bytes: Optional[int] = None
        #: Conditions under which the window measures the program and not
        #: the harness's host.  Breaking one fails no check: the window is
        #: reported as taken, and flagged.
        self.validity: Dict[str, bool] = {}
        self.info: Dict[str, object] = {}
        self.layer: Dict[str, float] = {}   # counter-derived per-layer metrics
        self.fingerprint: Optional[str] = None

    @contextmanager
    def step(self):
        """Time the body as the window's next step, then sample the
        host's speed (outside the step)."""
        cpu = cpu_seconds()
        start = time.perf_counter()
        yield
        self.steps.append((time.perf_counter() - start, cpu_seconds() - cpu))
        self.gauge.append(gauge())

    def state_at_reference_speed(self, speed: float, wall_too: bool) -> None:
        """Divide the steps' CPU time (and wall time, where the window's
        length is interpreter time and not a schedule) by ``speed``."""
        self.steps = [(wall / speed if wall_too else wall, cpu / speed)
                      for wall, cpu in self.steps]
        self.info["host_speed"] = speed

    @property
    def wall_s(self) -> float:
        return sum(step[0] for step in self.steps)

    @property
    def cpu_s(self) -> float:
        return sum(step[1] for step in self.steps)

    def outputs(self) -> tuple:
        """Everything a deterministic workload must reproduce exactly."""
        return (self.deliveries, self.expected, self.messages,
                self.latency_histogram, self.latencies, self.fingerprint)

    def pool(self, other: "Window") -> None:
        """Add the operations of another instance's window: a real-time
        workload never replays exactly, so its instances' windows are so
        many independent samples of the same stream."""
        self.pooled += other.pooled
        self.node_periods += other.node_periods
        self.latencies.extend(other.latencies)
        self.deliveries += other.deliveries
        self.expected += other.expected
        self.messages += other.messages
        self.bytes += other.bytes
        for name, kept in other.validity.items():
            self.validity[name] = self.validity[name] and kept
        for name in ("generator_late_p99_ms", "cpu_util", "host_speed",
                     "drained"):                                    # the worse
            self.info[name] = max(self.info[name], other.info[name])


class Workload:
    """One named workload; subclasses fill in the three hooks."""

    name = ""
    why = ""
    #: Fresh instances an untraced full-size run measures.
    replays = REPLAYS
    #: Whether the instances are exact replays, which must reproduce each
    #: other's outputs; the windows of a real-time workload are pooled.
    deterministic = True
    #: Set-ups made and torn down unmeasured before the first instance, so
    #: that ``setup_s`` is a median of three whatever ``replays`` is.
    spare_setups = 0
    #: Whether set-up and window last as long as the interpreter takes
    #: (and so scale with the host's speed) or as long as a schedule says.
    wall_is_host_time = True

    def __init__(self, seed: int, seconds: float, smoke: bool, tracer=None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.tracer = tracer
        self.rng = derive_rng(seed, "ledger", self.name)
        self.sizes: Dict[str, object] = {}
        if smoke:       # the two it takes to compare outputs
            self.replays = min(self.replays, 2)
            self.spare_setups = 0

    # hooks ----------------------------------------------------------------
    def setup(self):
        """Build the program and warm it up; returns the instance."""
        raise NotImplementedError

    def measure(self, instance, window: Window) -> None:
        """Run the measured window on ``instance`` and fill ``window``."""
        raise NotImplementedError

    def teardown(self, instance, window: Window) -> Dict[str, bool]:
        """Release the instance, add its end-of-run counters to the
        window's ``layer``, and return named checks."""
        return {}

    # shared helpers ---------------------------------------------------------
    def listener(self, recorder: DeliveryRecorder) -> Callable:
        """The recorder, wrapped in a span when the run is traced."""
        if self.tracer is None:
            return recorder
        self.tracer.recorder = recorder
        return self.tracer.wrap(recorder, "bench.listener", lambda args: args[0])

    def set_round(self, value: int) -> None:
        if self.tracer is not None:
            self.tracer.round = value


# ---------------------------------------------------------------------------
# Round engines
# ---------------------------------------------------------------------------

class RoundInstance:
    def __init__(self, sim, recorder: DeliveryRecorder, nodes) -> None:
        self.sim = sim
        self.recorder = recorder
        self.nodes = nodes
        self.injector = None


class RoundWorkload(Workload):
    """Shared loop of the object-per-node round engine workloads: four
    publishers cast one measured event each per round for
    ``publish_rounds`` rounds, then the drain runs: ``drain_rounds`` rounds
    and on until every operation is delivered (:func:`drain_goes_on`)."""

    payload = None
    #: Scheduled drains are as long as nine seeds in ten need to deliver
    #: their last operation, so that the window has the same number of
    #: rounds, and the count metrics the same base, on nearly every seed.
    drain_rounds = 16
    #: Publishing rounds per ``--seconds`` second (the three replays of a
    #: ten-second run then fill a little over ten seconds on this box).
    rounds_per_second = 2.5

    def __init__(self, seed, seconds, smoke, tracer=None) -> None:
        super().__init__(seed, seconds, smoke, tracer)
        self.publish_rounds = (
            8 if smoke else max(2, round(self.rounds_per_second * seconds)))
        #: |eventIds|m holds every id of the stream (and the warm-up's).  At
        #: the default of 60 a longer stream wraps the digest: evicted ids
        #: are re-advertised by peers that still hold them, re-delivered as
        #: new and never die, rounds cost four times as much and pairs go
        #: missing (README, "No operation fails").
        self.event_ids_max = 4 * self.publish_rounds + 4

    def publishers(self) -> List[int]:
        raise NotImplementedError

    def measure(self, instance: RoundInstance, window: Window) -> None:
        sim, recorder = instance.sim, instance.recorder
        telemetry = sim.telemetry
        expected = (len(self.publishers()) * self.publish_rounds
                    * (self.correct_count() - 1))
        sends_before = telemetry.counter_total("sim.sends")
        rounds = 0
        while drain_goes_on(rounds - self.publish_rounds, self.drain_rounds,
                            DRAIN_MAX_ROUNDS, expected - len(recorder.latencies)):
            with window.step():
                if rounds < self.publish_rounds:
                    now = float(sim.round)
                    for pid in self.publishers():
                        publish(recorder, sim.nodes[pid], self.payload, now, now)
                self.set_round(sim.round + 1)
                sim.run_round()
            rounds += 1
        window.messages = telemetry.counter_total("sim.sends") - sends_before
        window.node_periods = self.sizes["n"] * rounds
        window.info["drained"] = rounds - self.publish_rounds
        window.latency_histogram = dict(Counter(
            int(latency) for latency in recorder.latencies))
        window.deliveries = len(recorder.latencies)
        window.expected = expected
        window.fingerprint = counter_fingerprint(telemetry)
        self.fill_layer(window, instance)

    def correct_count(self) -> int:
        return self.sizes["n"]

    def fill_layer(self, window: Window, instance: RoundInstance) -> None:
        sim = instance.sim
        for phase in ("round", "tick", "delivery", "observers"):
            stats = sim.telemetry.histogram_stats(f"time.{phase}")
            window.layer[f"sim.round_runner.time_{phase}_s"] = stats[1] if stats else 0.0
        sums = sim.node_aggregates().stat_sums
        for key in ("retransmit_requests_sent", "retransmits_delivered"):
            window.layer[f"core.retransmit.{key}"] = sums.get(key, 0)
        if instance.injector is not None:
            stats = instance.injector.stats
            window.layer["faults.injector.dropped"] = stats.dropped
            window.layer["faults.injector.duplicated"] = stats.duplicated
            window.layer["faults.injector.delayed"] = stats.delayed

    def teardown(self, instance: RoundInstance, window) -> Dict[str, bool]:
        return {"delivered_ids_were_published": not instance.recorder.unknown}


class SerialStream(RoundWorkload):
    name = "serial_stream"
    why = ("Sec. 5.1 setting on the engine every figure bench uses: "
           "core.node receive/tick and sim.round_runner do the work; wire, "
           "runtime, faults and the columnar engine do none")

    def __init__(self, seed, seconds, smoke, tracer=None) -> None:
        super().__init__(seed, seconds, smoke, tracer)
        n = 150 if smoke else 1000
        self.sizes = {"n": n, "fanout": 3, "view_max": 25, "loss_rate": 0.05,
                      "publishers": 4, "publish_rounds": self.publish_rounds,
                      "drain_rounds": self.drain_rounds,
                      "drain_max_rounds": DRAIN_MAX_ROUNDS,
                      "event_ids_max": self.event_ids_max}
        self._publishers = sorted(self.rng.sample(range(n), 4))

    def publishers(self) -> List[int]:
        return self._publishers

    def build_engine(self, engine: str = "serial", **engine_kwargs):
        """The workload's nodes on ``engine`` (the sharded-engine probe
        replays the same inputs); returns ``(sim, nodes)``."""
        sizes = self.sizes
        config = LpbcastConfig(fanout=sizes["fanout"], view_max=sizes["view_max"],
                               event_ids_max=sizes["event_ids_max"])
        nodes = rsim.build_lpbcast_nodes(sizes["n"], config, seed=self.seed)
        network = rsim.NetworkModel(loss_rate=sizes["loss_rate"],
                                    rng=derive_rng(self.seed, "ledger-network"))
        sim = rsim.create_simulation(engine, network=network, seed=self.seed,
                                     **engine_kwargs)
        sim.add_nodes(nodes)
        return sim, nodes

    def setup(self) -> RoundInstance:
        sim, nodes = self.build_engine()
        recorder = DeliveryRecorder(self.sizes["n"])
        listener = self.listener(recorder)
        for node in nodes:
            node.add_delivery_listener(listener)
        publish(recorder, nodes[self._publishers[0]], None, 0.0, None)
        sim.run(WARMUP_ROUNDS)
        return RoundInstance(sim, recorder, nodes)


class SerialChurnPull(RoundWorkload):
    name = "serial_churn_pull"
    why = ("same core layer used differently: membership writes, gossip-pull "
           "beside push and one FaultInjector.decide per message; a push-path "
           "gain that costs membership or retransmit shows here")
    payload = "p"
    #: Fewer than ``serial_stream``: under churn, faults and pull the last
    #: operation is delivered some twenty rounds after the last publish.
    rounds_per_second = 2.0
    drain_rounds = 25

    def __init__(self, seed, seconds, smoke, tracer=None) -> None:
        super().__init__(seed, seconds, smoke, tracer)
        n = 120 if smoke else 600
        publish_rounds = self.publish_rounds
        churn = 1 if smoke else 3
        crashes = 3 if smoke else 10
        self.sizes = {"n": n, "fanout": 3, "view_max": 25, "publishers": 4,
                      "publish_rounds": publish_rounds,
                      "drain_rounds": self.drain_rounds,
                      "drain_max_rounds": DRAIN_MAX_ROUNDS,
                      "event_ids_max": self.event_ids_max,
                      "joins_per_round": churn, "leaves_per_round": churn,
                      "crash_recoveries": crashes, "drop": 0.10,
                      "duplicate": 0.02, "delay": 0.05, "delay_rounds": 2}
        pids = list(range(n))
        self.rng.shuffle(pids)
        self._publishers = sorted(pids[:4])
        self._crash_victims = pids[4:4 + crashes]
        leavers = pids[4 + crashes:4 + crashes + churn * publish_rounds]
        self._stayers = sorted(set(pids) - set(self._crash_victims) - set(leavers))
        self._leavers = leavers
        self.config = LpbcastConfig(fanout=3, view_max=25, retransmissions=True,
                                    digest_implies_delivery=False,
                                    event_ids_max=self.event_ids_max)

    def publishers(self) -> List[int]:
        return self._publishers

    def correct_count(self) -> int:
        return len(self._stayers)

    def setup(self) -> RoundInstance:
        sizes, seed = self.sizes, self.seed
        n, churn = sizes["n"], sizes["joins_per_round"]
        publish_rounds = sizes["publish_rounds"]
        nodes = rsim.build_lpbcast_nodes(n, self.config, seed=seed)
        sim = rsim.create_simulation("serial", seed=seed)
        sim.add_nodes(nodes)

        plan = (FaultPlan().drop(sizes["drop"]).duplicate(sizes["duplicate"])
                .delay(sizes["delay"], delay=sizes["delay_rounds"]))
        spread = max(1, publish_rounds - 6)
        for index, victim in enumerate(self._crash_victims):
            at = WARMUP_ROUNDS + 2 + index * spread // len(self._crash_victims)
            plan.crash(victim, at=at, recover_at=at + 5)

        recorder = DeliveryRecorder(n + churn * publish_rounds, self._stayers)
        listener = self.listener(recorder)

        def joiner(pid: int) -> LpbcastNode:
            node = LpbcastNode(pid, self.config, derive_rng(seed, "ledger-joiner", pid))
            node.add_delivery_listener(listener)
            return node

        script = rsim.ChurnScript(joiner)
        for step in range(publish_rounds):
            at = WARMUP_ROUNDS + 1 + step
            for slot in range(churn):
                index = churn * step + slot
                script.join(at, n + index, self._publishers[slot % 4])
                script.leave(at, self._leavers[index])
        sim.add_round_hook(script.on_round)
        for node in nodes:
            node.add_delivery_listener(listener)

        instance = RoundInstance(sim, recorder, nodes)
        instance.injector = sim.use_fault_plan(plan)
        publish(recorder, nodes[self._publishers[0]], self.payload, 0.0, None)
        sim.run(WARMUP_ROUNDS)
        return instance


# ---------------------------------------------------------------------------
# The stream inputs shared by async_stream and udp_stream
# ---------------------------------------------------------------------------

def stream_sizes(smoke: bool, publish_s: float) -> Dict[str, object]:
    """``udp_stream``'s inputs, which ``async_stream`` shares: the default
    config (the paper's Sec. 5.2 digest convention) but for |eventIds|m,
    which covers the stream.  At the default of 60 ids re-delivered zombie
    notifications overflow ``events`` and now and then a fresh one is
    purged before its first gossip: a whole event, fifteen operations, is
    lost, more often the busier the host (README, "No operation fails")."""
    rate = 16.0 if smoke else 8.0
    if smoke:
        publish_s = 1.0
    events = round(rate * publish_s)
    return {"n": 8 if smoke else 16, "fanout": 3, "view_max": 15,
            "period_s": 0.04, "events_per_s": rate, "drop": 0.05,
            "events": events, "event_ids_max": events + 16,
            "drain_periods": 10 if smoke else DRAIN_PERIODS,
            "drain_max_periods": DRAIN_MAX_PERIODS}


def stream_config(sizes) -> LpbcastConfig:
    return LpbcastConfig(fanout=sizes["fanout"], view_max=sizes["view_max"],
                         gossip_period=sizes["period_s"],
                         event_ids_max=sizes["event_ids_max"])


class AsyncInstance:
    def __init__(self, runtime, recorder, nodes) -> None:
        self.runtime = runtime
        self.recorder = recorder
        self.nodes = nodes


class AsyncStream(Workload):
    name = "async_stream"
    why = ("udp_stream's inputs on the discrete-event engine, so sim and real "
           "share one table; the only workload where sim.engine's event heap "
           "dominates")
    #: Simulated seconds of publishing per ``--seconds`` second: five times
    #: ``udp_stream``'s horizon, so the window lasts long enough to time.
    horizon_factor = 5
    chunk_s = 0.5       # simulated seconds scheduled at a time

    def __init__(self, seed, seconds, smoke, tracer=None) -> None:
        super().__init__(seed, seconds, smoke, tracer)
        self.sizes = stream_sizes(smoke, self.horizon_factor * seconds)
        self.sizes["latency_max_periods"] = 0.25

    def setup(self) -> AsyncInstance:
        sizes, seed = self.sizes, self.seed
        period = sizes["period_s"]
        nodes = rsim.build_lpbcast_nodes(sizes["n"], stream_config(sizes), seed=seed)
        network = rsim.NetworkModel(
            loss_rate=sizes["drop"], rng=derive_rng(seed, "ledger-network"),
            latency=rsim.uniform_latency(0.0, sizes["latency_max_periods"] * period))
        runtime = rsim.AsyncGossipRuntime(network=network, seed=seed,
                                          default_period=period)
        runtime.add_nodes(nodes)
        recorder = DeliveryRecorder(sizes["n"])
        listener = self.listener(recorder)
        for node in nodes:
            node.add_delivery_listener(listener)
        publish(recorder, nodes[0], None, 0.0, None)
        runtime.run_until(WARMUP_PERIODS * period)
        return AsyncInstance(runtime, recorder, nodes)

    def _chunk(self, instance: AsyncInstance, first: int, count: int,
               length: float) -> None:
        """Schedule publishes ``first .. first+count-1`` at their due
        times and run ``length`` simulated seconds on."""
        sizes, runtime, recorder = self.sizes, instance.runtime, instance.recorder
        nodes, n, period = instance.nodes, sizes["n"], sizes["period_s"]
        rate = sizes["events_per_s"]
        for number in range(first, first + count):
            at = WARMUP_PERIODS * period + number / rate

            def cast(number=number, at=at) -> None:
                publish(recorder, nodes[number % n], None, runtime.now, at)

            runtime.call_at(at, cast)
        self.set_round(int(runtime.now / period))
        runtime.run_until(runtime.now + length)

    def measure(self, instance: AsyncInstance, window: Window) -> None:
        sizes, runtime, recorder = self.sizes, instance.runtime, instance.recorder
        telemetry = runtime.telemetry
        period, events = sizes["period_s"], sizes["events"]
        per_chunk = max(1, round(sizes["events_per_s"] * self.chunk_s))
        window.period_s = period

        events_before = runtime.sim.events_executed
        sends_before = telemetry.counter_total("sim.sends")
        began = runtime.now
        for first in range(0, events, per_chunk):
            count = min(per_chunk, events - first)
            with window.step():
                self._chunk(instance, first, count, count / sizes["events_per_s"])
        expected = events * (sizes["n"] - 1)
        drained = 0
        while drain_goes_on(drained, sizes["drain_periods"], sizes["drain_max_periods"],
                            expected - len(recorder.latencies)):
            with window.step():
                self._chunk(instance, events, 0, sizes["drain_periods"] * period)
            drained += sizes["drain_periods"]
        window.messages = telemetry.counter_total("sim.sends") - sends_before
        window.node_periods = sizes["n"] * (runtime.now - began) / period
        window.info["drained"] = drained
        window.latencies = recorder.latencies
        window.deliveries = len(recorder.latencies)
        window.expected = expected
        window.fingerprint = counter_fingerprint(telemetry)
        window.layer["sim.engine.events"] = (
            runtime.sim.events_executed - events_before)

    def teardown(self, instance: AsyncInstance, window) -> Dict[str, bool]:
        return {"delivered_ids_were_published": not instance.recorder.unknown}


# ---------------------------------------------------------------------------
# Columnar engine
# ---------------------------------------------------------------------------

class ColumnarInstance:
    recorder = None      # no per-delivery listener at this scale

    def __init__(self, sim) -> None:
        self.sim = sim
        #: Processes known to have delivered each event row (publisher included).
        self.reached: List[int] = []
        self.published_round: List[Optional[int]] = []


class ColumnarMega(Workload):
    name = "columnar_mega"
    why = ("the mega-scale engine: core.node is bypassed entirely, set-up "
           "(build) and peak RSS are first-class, and the two fattest lines "
           "of the old snapshot live here")

    def __init__(self, seed, seconds, smoke, tracer=None) -> None:
        super().__init__(seed, seconds, smoke, tracer)
        n = 20_000 if smoke else 500_000
        #: Half a million processes take fourteen to eighteen rounds to
        #: reach to the last one, so the time cap leaves few publishing rounds.
        self.sizes = {"n": n, "fanout": 3, "view_max": 25, "backend": "numpy",
                      "workers": 1,
                      "publish_rounds": 2 if smoke else max(2, round(0.2 * seconds)),
                      "drain_rounds": 17, "drain_max_rounds": DRAIN_MAX_ROUNDS}
        self.config = LpbcastConfig(fanout=3, view_max=25)
        rounds = self.sizes["publish_rounds"] + 1
        self._publishers = [self.rng.randrange(n) for _ in range(rounds)]

    def setup(self) -> ColumnarInstance:
        sizes = self.sizes
        sim = ColumnarRoundSimulation.build(
            sizes["n"], self.config, seed=self.seed, backend=sizes["backend"],
            workers=sizes["workers"])
        instance = ColumnarInstance(sim)
        self._publish(instance, self._publishers[-1], measured=False)
        sim.run(WARMUP_ROUNDS)
        return instance

    def _publish(self, instance: ColumnarInstance, pid: int, measured: bool) -> None:
        sim = instance.sim
        sim.nodes[pid].lpb_cast(None, float(sim.round))
        instance.reached.append(1)
        instance.published_round.append(sim.round if measured else None)

    def _read_deliveries(self, instance: ColumnarInstance,
                         histogram: Dict[int, int]) -> None:
        """Latency histogram from per-round ``delivery_ratio`` deltas."""
        sim, n = instance.sim, self.sizes["n"]
        for event, published in enumerate(instance.published_round):
            if published is None or instance.reached[event] >= n:
                continue
            reached = round(sim.delivery_ratio(event) * n)
            gained = reached - instance.reached[event]
            if gained:
                latency = sim.round - published
                histogram[latency] = histogram.get(latency, 0) + gained
                instance.reached[event] = reached

    def measure(self, instance: ColumnarInstance, window: Window) -> None:
        sim, sizes = instance.sim, self.sizes
        telemetry = sim.telemetry
        histogram: Dict[int, int] = {}
        sends_before = telemetry.counter_total("sim.sends")
        expected = sizes["publish_rounds"] * (sizes["n"] - 1)
        rounds = 0
        while drain_goes_on(rounds - sizes["publish_rounds"], sizes["drain_rounds"],
                            sizes["drain_max_rounds"], expected - sum(histogram.values())):
            with window.step():
                if rounds < sizes["publish_rounds"]:
                    self._publish(instance, self._publishers[rounds], measured=True)
                self.set_round(sim.round + 1)
                sim.run_round()
            self._read_deliveries(instance, histogram)     # the harness's own cost
            rounds += 1
        window.messages = telemetry.counter_total("sim.sends") - sends_before
        window.node_periods = sizes["n"] * rounds
        window.info["drained"] = rounds - sizes["publish_rounds"]
        window.latency_histogram = histogram
        window.deliveries = sum(histogram.values())
        window.expected = expected
        window.fingerprint = counter_fingerprint(telemetry)
        memory = sim.memory_bytes()
        window.layer["sim.columnar_runner.memory_bytes"] = memory
        window.layer["sim.columnar_runner.bytes_per_node"] = memory / sizes["n"]

    def teardown(self, instance: ColumnarInstance, window) -> Dict[str, bool]:
        instance.sim.close()
        instance.sim = None
        gc.collect()
        return {}


# ---------------------------------------------------------------------------
# The real path: UDP runtime
# ---------------------------------------------------------------------------

class UdpInstance:
    def __init__(self, deployment, recorder, nodes, baseline_threads) -> None:
        self.deployment = deployment
        self.recorder = recorder
        self.nodes = nodes
        self.baseline_threads = baseline_threads


class UdpWorkload(Workload):
    """Open loop on :class:`LocalDeployment`: one generator thread (the
    caller's) publishes round-robin on a fixed schedule, whatever the
    deployment does; latency is timed from the instant each publish was
    *due*, so a stalled generator counts against the events it delayed.

    Two deployments per run, each publishing the whole stream: nothing
    real-time replays exactly, so their operations are pooled, and each
    half-second step of the schedule counts at the cheaper of its two."""

    payload = None
    replays = 2
    deterministic = False
    spare_setups = 1
    wall_is_host_time = False
    step_s = 0.5        # scheduled seconds per timed step
    #: The generator thread, idle between publishes, samples the host's
    #: speed this often.
    gauge_every_s = 0.25

    #: The window is invalid when the generator ran later than this share
    #: of a period at its 99th percentile or the process used more than
    #: this share of one core: past either, latency measures the harness's
    #: host, not the program.
    max_late_periods = 0.25
    max_cpu_util = 0.5
    _deployments = 0

    def config(self) -> LpbcastConfig:
        raise NotImplementedError

    def setup(self) -> UdpInstance:
        # Each deployment of a run draws its own views and timer phases.
        self._deployments += 1
        sizes = self.sizes
        seed = derive_seed(self.seed, "ledger-deployment", self._deployments)
        period = sizes["period_s"]
        baseline = threading.active_count()
        nodes = rsim.build_lpbcast_nodes(sizes["n"], self.config(), seed=seed)
        recorder = DeliveryRecorder(sizes["n"])
        listener = self.listener(recorder)
        for node in nodes:
            node.add_delivery_listener(listener)
        deployment = LocalDeployment(
            nodes, gossip_period=period, seed=seed,
            fault_plan=FaultPlan().drop(sizes["drop"]), wire_format="binary")
        deployment.start()
        recorder.expect(nodes[0].pid, None)
        deployment.host(nodes[0].pid).publish(self.payload)
        time.sleep(WARMUP_PERIODS * period)
        return UdpInstance(deployment, recorder, nodes, baseline)

    def measure(self, instance: UdpInstance, window: Window) -> None:
        sizes, recorder = self.sizes, instance.recorder
        deployment, nodes = instance.deployment, instance.nodes
        telemetry = deployment.telemetry
        n, period, rate = sizes["n"], sizes["period_s"], sizes["events_per_s"]
        count = sizes["events"]
        hosts = [deployment.host(node.pid) for node in nodes]
        payload = self.payload
        late: List[float] = []
        window.period_s = period

        threads = threading.active_count()
        ticks_before = sum(node.stats.gossips_sent for node in nodes)
        sent_before = telemetry.counter_total("udp.datagrams_sent")
        bytes_before = telemetry.counter_total("udp.bytes_sent")
        per_step = max(1, round(rate * self.step_s))
        per_gauge = max(1, round(rate * self.gauge_every_s))
        gauged = [0]                    # gauge samples already charged to a step
        mark = [time.perf_counter(), cpu_seconds()]

        def close_step() -> None:
            wall, cpu = time.perf_counter(), cpu_seconds()
            own = sum(window.gauge[gauged[0]:])     # the gauge is not the program
            gauged[0] = len(window.gauge)
            window.steps.append((wall - mark[0], cpu - mark[1] - own))
            mark[:] = wall, cpu

        start = time.monotonic()
        for number in range(count):
            if number and number % per_step == 0:
                close_step()
            due = start + number / rate
            now = time.monotonic()
            if due > now:
                time.sleep(due - now)
                now = time.monotonic()
            late.append(now - due)
            self.set_round(int((now - start) / period))
            host = hosts[number % n]
            recorder.expect(host.node.pid, due)
            host.publish(payload)
            if number % per_gauge == 0:
                window.gauge.append(gauge())
        close_step()
        expected = count * (n - 1)
        drain_start = start + count / rate
        time.sleep(max(0.0, drain_start + sizes["drain_periods"] * period
                       - time.monotonic()))
        while drain_goes_on((time.monotonic() - drain_start) / period,
                            sizes["drain_periods"], sizes["drain_max_periods"],
                            expected - len(recorder.latencies)):
            time.sleep(period)
        window.info["drained"] = (time.monotonic() - drain_start) / period
        close_step()                    # the drain
        window.messages = telemetry.counter_total("udp.datagrams_sent") - sent_before
        window.bytes = telemetry.counter_total("udp.bytes_sent") - bytes_before
        window.node_periods = (sum(node.stats.gossips_sent for node in nodes)
                               - ticks_before)
        window.latencies = list(recorder.latencies)
        window.deliveries = len(window.latencies)
        window.expected = expected

        late.sort()
        late_p99 = quantile(late, 0.99)
        cpu_util = window.cpu_s / window.wall_s
        window.layer["bench.generator.late_p99_ms"] = late_p99 * 1e3
        window.layer["runtime.udp.cpu_util"] = cpu_util
        window.layer["runtime.udp.threads"] = threads - instance.baseline_threads
        window.info["generator_late_p99_ms"] = late_p99 * 1e3
        window.info["generator_late_limit_ms"] = self.max_late_periods * period * 1e3
        window.info["cpu_util"] = cpu_util
        window.info["cpu_util_limit"] = self.max_cpu_util
        if not self.smoke:      # sixteen publishes have no 99th percentile
            window.validity["open_loop_on_schedule"] = (
                late_p99 <= self.max_late_periods * period)
            window.validity["cpu_below_half_core"] = cpu_util <= self.max_cpu_util

    def teardown(self, instance: UdpInstance, window) -> Dict[str, bool]:
        deployment = instance.deployment
        deployment.stop()
        counters = deployment.datagram_counters()
        layer = window.layer
        for key in ("sent", "received", "bytes_sent", "lost_injected",
                    "send_errors", "decode_errors", "truncated"):
            layer[f"runtime.udp.{key}"] = counters[key]
        layer["wire.frame.splits"] = counters["split"]
        layer["wire.frame.oversize"] = counters["oversize"]
        for key in ("retransmit_requests_sent", "retransmits_delivered"):
            layer[f"core.retransmit.{key}"] = sum(
                getattr(node.stats, key) for node in instance.nodes)
        return {
            "delivered_ids_were_published": not instance.recorder.unknown,
            "udp_error_counters_zero": not any(
                counters[key] for key in ("decode_errors", "send_errors",
                                          "truncated", "oversize")),
            "threads_back_at_baseline":
                threading.active_count() == instance.baseline_threads,
        }


class UdpStream(UdpWorkload):
    name = "udp_stream"
    why = ("the real path: sockets, 2n threads, binary frames, injector, "
           "thread-safe telemetry; timer-bound by design, so latency must not "
           "move with CPU optimisations while CPU and bytes per delivery must")

    def __init__(self, seed, seconds, smoke, tracer=None) -> None:
        super().__init__(seed, seconds, smoke, tracer)
        self.sizes = stream_sizes(smoke, seconds)

    def config(self) -> LpbcastConfig:
        return stream_config(self.sizes)


class UdpPull(UdpWorkload):
    name = "udp_pull"
    why = ("same runtime and wire layers used differently: payload-bearing "
           "notifications and retransmit request/response records instead of "
           "digest-only gossip")
    payload = "x" * 256

    def __init__(self, seed, seconds, smoke, tracer=None) -> None:
        super().__init__(seed, seconds, smoke, tracer)
        rate = 16.0 if smoke else 8.0
        events = 16 if smoke else round(rate * seconds)
        #: |eventIds|m covers the stream, as on the serial workloads: at the
        #: default of 60 the eighty-event stream loses whole events
        #: (delivered_fraction 0.975-1.0 by seed) to a retransmission storm.
        self.sizes = {"n": 6 if smoke else 10, "fanout": 3, "view_max": 15,
                      "period_s": 0.08, "events_per_s": rate, "drop": 0.05,
                      "events": events, "event_ids_max": events + 16,
                      "payload_bytes": len(self.payload),
                      "drain_periods": 10 if smoke else DRAIN_PERIODS,
                      "drain_max_periods": DRAIN_MAX_PERIODS}

    def config(self) -> LpbcastConfig:
        sizes = self.sizes
        return LpbcastConfig(fanout=sizes["fanout"], view_max=sizes["view_max"],
                             gossip_period=sizes["period_s"], retransmissions=True,
                             digest_implies_delivery=False,
                             event_ids_max=sizes["event_ids_max"])


WORKLOADS = {cls.name: cls for cls in (
    SerialStream, SerialChurnPull, AsyncStream, ColumnarMega, UdpStream, UdpPull)}
