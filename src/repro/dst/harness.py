"""Uniform scenario execution across the four engines.

:func:`apply_scenario` turns a :class:`~repro.dst.spec.ScenarioSpec` into a
fully wired run on any engine (``serial``, ``sharded``, ``async``,
``columnar``) and returns the deterministic evidence the oracle judges: the
canonical counter fingerprint, the counter records, and every invariant
violation the monitor observed.  The wiring is identical for the two
object round engines — same node construction, same network stream, same
seeded publish draws — which is what makes the differential comparison
meaningful: any divergence is an engine bug, not harness noise.  Joins and
leaves run as the scenario builders run them, in round 2; the async
runtime runs the same joiners, contacts and leavers at that round's start.

The columnar engine gets the same node construction and publish draws but
is judged only on its honoured counter subset (see
:mod:`repro.sim.columnar_runner`): its fingerprint is the honoured-subset
fingerprint, which is worker-count-independent, and no invariant monitor is
attached (the monitor reads per-node object state the columnar engine does
not materialise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..faults.invariants import InvariantMonitor, Violation
from ..metrics.delivery import DeliveryLog
from ..metrics.reliability import measure_reliability
from ..sim import NetworkModel, build_lpbcast_nodes, create_simulation
from ..sim.rng import derive_rng
from ..sim.scenarios import CHURN_ROUND, churn_script
from ..telemetry import counter_fingerprint, counter_records
from .mutations import get_mutation
from .spec import ScenarioSpec


@dataclass
class RunOutcome:
    """Everything one engine run yields for judging."""

    engine: str
    spec: ScenarioSpec
    fingerprint: str
    records: list
    violations: List[Violation] = field(default_factory=list)
    #: Ground-truth first deliveries (the experiment log, not node memory).
    deliveries: int = 0
    alive: int = 0
    #: Delivered share of (published id, surviving non-leaver) pairs.
    reliability: Optional[float] = None


def _publish_hook(spec: ScenarioSpec, pids, published: list):
    """The seeded workload: ``spec.burst`` publishes (one, outside the
    long-stream family) per round for the first ``spec.publishes`` rounds,
    from *distinct* publishers — two on causal specs, where concurrent
    publications are what give the hold-back queue dependencies to order
    — appending each published id to ``published``.

    The publisher draw depends only on coordinator-maintained state (the
    alive set and the paused set) and on spec data (the scheduled leavers,
    from their leave round on), which both round engines evolve
    identically for the same seed — node-replica reads here would make the
    sharded run diverge spuriously.
    """
    pub_rng = derive_rng(spec.seed, "dst-publish")

    def hook(round_no: int, sim) -> None:
        if round_no > spec.publishes:
            return
        paused = getattr(sim, "_fault_paused", frozenset())
        departed = spec.leaves if round_no >= CHURN_ROUND else 0
        ready = [p for p in pids
                 if p >= departed and sim.alive(p) and p not in paused]
        for k in range(min(2 if spec.causal else spec.burst, len(ready))):
            pid = ready.pop(pub_rng.randrange(len(ready)))
            event = sim.nodes[pid].lpb_cast(f"dst-{round_no}-{k}",
                                            float(round_no))
            published.append(event.event_id)

    return hook


def _run_round_engine(spec: ScenarioSpec, engine: str) -> RunOutcome:
    cfg = spec.config()
    nodes = build_lpbcast_nodes(spec.n, cfg, seed=spec.seed)
    network = NetworkModel(loss_rate=spec.loss_rate,
                           rng=derive_rng(spec.seed, "dst-network"))
    # Cross-shard payloads travel in the compact wire codec, so
    # serial-vs-sharded bit-identity also certifies the codec round trip
    # under fuzzing.
    extra = {"shards": spec.shards} if engine == "sharded" else {}
    sim = create_simulation(engine, network=network, seed=spec.seed, **extra)
    sim.add_nodes(nodes)
    log = DeliveryLog().attach(sim.nodes.values())
    monitor = InvariantMonitor(mode="collect", seed=spec.seed).attach(sim)
    if not spec.plan.is_empty():
        sim.use_fault_plan(spec.plan)
    if spec.joins or spec.leaves:
        def watch(node) -> None:
            log.attach([node])
            monitor.watch_node(node.pid, node)

        sim.add_round_hook(churn_script(
            spec.n, spec.seed, cfg, spec.joins, spec.leaves,
            on_join=watch).on_round)
    pids = [node.pid for node in nodes]
    published: list = []
    sim.add_round_hook(_publish_hook(spec, pids, published))
    mutation = get_mutation(spec.mutation)
    if mutation is not None:
        mutation.apply_post_build(sim, spec, engine)
    try:
        sim.run(spec.rounds)
        if mutation is not None:
            mutation.apply_post_run(sim, spec, engine)
        survivors = [p for p in pids if p >= spec.leaves and sim.alive(p)]
        reliability = (
            measure_reliability(log, published, survivors).reliability
            if published and survivors else None)
        return RunOutcome(
            engine=engine,
            spec=spec,
            fingerprint=counter_fingerprint(sim.telemetry),
            records=counter_records(sim.telemetry),
            violations=list(monitor.violations),
            deliveries=log.total_deliveries,
            alive=sim.alive_count(),
            reliability=reliability,
        )
    finally:
        close = getattr(sim, "close", None)
        if close is not None:
            close()


def _run_columnar_engine(spec: ScenarioSpec, workers: int = 1) -> RunOutcome:
    """The columnar run: same nodes, same publish draws, honoured-subset
    fingerprint (the full columnar counter set legitimately diverges — see
    the declared-divergence contract in :mod:`repro.sim.columnar_runner`).

    ``workers > 1`` exercises the shared-memory multi-core path — the
    honoured fingerprint is worker-count-independent, so the oracle's
    ``parity:columnar`` verdicts cover every worker count with the same
    expected value.
    """
    from ..sim.columnar_runner import honoured_fingerprint

    cfg = spec.config()
    nodes = build_lpbcast_nodes(spec.n, cfg, seed=spec.seed)
    network = NetworkModel(loss_rate=spec.loss_rate,
                           rng=derive_rng(spec.seed, "dst-network"))
    sim = create_simulation("columnar", network=network, seed=spec.seed,
                            workers=workers)
    try:
        sim.add_nodes(nodes)
        log = DeliveryLog().attach(sim.nodes.values())
        if not spec.plan.is_empty():
            sim.use_fault_plan(spec.plan)
        sim.add_round_hook(_publish_hook(spec, [n.pid for n in nodes], []))
        mutation = get_mutation(spec.mutation)
        if mutation is not None:
            mutation.apply_post_build(sim, spec, "columnar")
        sim.run(spec.rounds)
        if mutation is not None:
            mutation.apply_post_run(sim, spec, "columnar")
        records = counter_records(sim.telemetry)
        return RunOutcome(
            engine="columnar",
            spec=spec,
            fingerprint=honoured_fingerprint(records),
            records=records,
            violations=[],
            deliveries=log.total_deliveries,
            alive=sim.alive_count(),
        )
    finally:
        sim.close()


def _run_async_engine(spec: ScenarioSpec) -> RunOutcome:
    """The async runtime run: same spec vocabulary, different clock.

    Async runs are *not* bit-comparable with the round engines (independent
    timer phases consume different randomness), so the oracle uses them for
    invariant checking only; publishes are scheduled mid-period so every
    node has ticked at least once by the last publish round.
    """
    cfg = spec.config()
    period = cfg.gossip_period
    nodes = build_lpbcast_nodes(spec.n, cfg, seed=spec.seed)
    network = NetworkModel(loss_rate=spec.loss_rate,
                           rng=derive_rng(spec.seed, "dst-network"))
    runtime = create_simulation("async", network=network, seed=spec.seed)
    runtime.add_nodes(nodes)
    log = DeliveryLog().attach(nodes)
    monitor = InvariantMonitor(mode="collect", seed=spec.seed).attach(runtime)
    if not spec.plan.is_empty():
        runtime.use_fault_plan(spec.plan)
    if spec.joins or spec.leaves:
        def watch(node) -> None:
            log.attach([node])
            monitor.watch_node(node.pid, node)

        script = churn_script(spec.n, spec.seed, cfg, spec.joins,
                              spec.leaves, on_join=watch)
        churn_at = (CHURN_ROUND - 1) * period
        for join in script.joins:
            runtime.join_at(script.node_factory(join.pid), join.contact,
                            churn_at)
        for leave in script.leaves:
            runtime.leave_at(leave.pid, churn_at)
    pub_rng = derive_rng(spec.seed, "dst-publish")
    pids = [node.pid for node in nodes]

    def publish(round_no: int):
        def fire() -> None:
            injector = runtime._fault_injector
            departed = spec.leaves if round_no >= CHURN_ROUND else 0
            ready = [
                p for p in pids
                if p >= departed and runtime.alive(p)
                and not (injector is not None
                         and injector.is_paused(p, round_no))
            ]
            for _ in range(min(spec.burst, len(ready))):
                pid = ready.pop(pub_rng.randrange(len(ready)))
                runtime.nodes[pid].lpb_cast(f"dst-{round_no}", runtime.now)

        return fire

    for round_no in range(1, spec.publishes + 1):
        runtime.call_at((round_no - 0.5) * period, publish(round_no))
    mutation = get_mutation(spec.mutation)
    if mutation is not None:
        mutation.apply_post_build(runtime, spec, "async")
    runtime.run_rounds(spec.rounds, round_duration=period)
    if mutation is not None:
        mutation.apply_post_run(runtime, spec, "async")
    return RunOutcome(
        engine="async",
        spec=spec,
        fingerprint=counter_fingerprint(runtime.telemetry),
        records=counter_records(runtime.telemetry),
        violations=list(monitor.violations),
        deliveries=log.total_deliveries,
        alive=runtime.alive_count(),
    )


def apply_scenario(spec: ScenarioSpec, engine: str = "serial",
                   workers: int = 1) -> RunOutcome:
    """Execute ``spec`` on ``engine`` and return the run's evidence.

    The single entry point every DST layer goes through — oracle, shrinker,
    replay and self-test — so there is exactly one way a spec maps to a
    run.  ``workers`` selects the columnar engine's multi-core mode
    (explicitly: it is never inferred from the host's core count) and is
    rejected for every other engine, matching the ``create_simulation``
    kwargs contract.
    """
    spec.validate()
    if (spec.joins or spec.leaves) and engine == "columnar":
        # Columnar membership freezes at the first round.
        raise ValueError(f"the {engine} engine runs no joins or leaves "
                         f"(flash_crowd, mass_departure)")
    if workers != 1 and engine != "columnar":
        raise ValueError(
            f"workers={workers} applies to the 'columnar' engine only "
            f"(got engine {engine!r}); the object engines take no "
            f"worker-count knob — use shards= for 'sharded'")
    if engine in ("serial", "sharded"):
        return _run_round_engine(spec, engine)
    if engine == "columnar":
        return _run_columnar_engine(spec, workers=workers)
    if engine == "async":
        return _run_async_engine(spec)
    raise ValueError(f"unknown engine {engine!r}")
