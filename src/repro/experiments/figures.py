"""Experiment library regenerating every figure of the paper.

Each ``figN_*`` function computes exactly the series the paper's figure
plots; the bench files print them with
:func:`repro.metrics.format_series` and assert the qualitative shape
documented in DESIGN.md §3.

Scaling note (EXPERIMENTS.md): the paper's measurement runs published
40 events per process per round on 125 workstations.  Re-running that load
at full scale inside a single-process test suite is possible but slow, so
the reliability benches use a *scaled* load with the same buffer-pressure
ratio — the quantity that drives the Fig. 6 curves — and sweep the same
parameter ranges (l = 15..35, |eventIds|m = 0..120).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from ..core import LpbcastConfig
from ..metrics import (
    DeliveryLog,
    InfectionObserver,
    mean_curves,
    measure_reliability,
)
from ..pbcast import FIRST_PHASE_NONE, PbcastConfig, build_pbcast_nodes
from ..sim import (
    AsyncGossipRuntime,
    BroadcastWorkload,
    NetworkModel,
    RoundSimulation,
    ShardedRoundSimulation,
    build_lpbcast_nodes,
    create_simulation,
    uniform_latency,
)

EPSILON = 0.05  # message-loss assumption (Sec. 4.1)
TAU = 0.01      # crash assumption (Sec. 4.1)


# ---------------------------------------------------------------------------
# Simulation primitives
# ---------------------------------------------------------------------------

def lpbcast_infection_curve(
    n: int,
    l: int,
    fanout: int = 3,
    seed: int = 0,
    rounds: int = 10,
    loss_rate: float = EPSILON,
    config_overrides: Dict = None,
    engine: str = "serial",
    shards: int = None,
) -> List[int]:
    """One dissemination run; returns the per-round infected counts.

    ``engine`` selects the round engine (``"serial"`` or ``"sharded"``,
    see :func:`repro.sim.create_simulation`); the curve is identical for
    either — sharding only changes the wall clock at large ``n``.
    """
    overrides = dict(fanout=fanout, view_max=l)
    if config_overrides:
        overrides.update(config_overrides)
    cfg = LpbcastConfig(**overrides)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    sim = create_simulation(
        engine,
        network=NetworkModel(loss_rate=loss_rate,
                             rng=random.Random(seed + 7919)),
        seed=seed,
        shards=shards,
    )
    try:
        sim.add_nodes(nodes)
        log = DeliveryLog().attach(nodes)
        event = nodes[0].lpb_cast("bench", now=0.0)
        observer = InfectionObserver(log, event.event_id)
        sim.add_observer(observer.on_round)
        sim.run(rounds)
    finally:
        if isinstance(sim, ShardedRoundSimulation):
            sim.close()
    return observer.curve(rounds)


def lpbcast_mean_curve(
    n: int, l: int, seeds: Sequence[int], fanout: int = 3, rounds: int = 10,
    config_overrides: Dict = None,
) -> List[float]:
    return mean_curves([
        lpbcast_infection_curve(n, l, fanout=fanout, seed=seed, rounds=rounds,
                                config_overrides=config_overrides)
        for seed in seeds
    ])


def pbcast_infection_curve(
    n: int,
    membership: str,
    l: int = 15,
    fanout: int = 5,
    seed: int = 0,
    rounds: int = 8,
    first_phase: str = FIRST_PHASE_NONE,
) -> List[int]:
    cfg = PbcastConfig(fanout=fanout, view_max=l, first_phase=first_phase)
    nodes = build_pbcast_nodes(n, cfg, seed=seed, membership=membership)
    sim = RoundSimulation(
        NetworkModel(loss_rate=EPSILON, rng=random.Random(seed + 7919)),
        seed=seed,
    )
    sim.add_nodes(nodes)
    log = DeliveryLog().attach(nodes)
    event, first = nodes[0].publish("bench", now=0.0)
    sim.inject(nodes[0].pid, first)
    observer = InfectionObserver(log, event.event_id)
    sim.add_observer(observer.on_round)
    sim.run(rounds)
    return observer.curve(rounds)


def pbcast_mean_curve(
    n: int, membership: str, seeds: Sequence[int], l: int = 15,
    fanout: int = 5, rounds: int = 8,
) -> List[float]:
    return mean_curves([
        pbcast_infection_curve(n, membership, l=l, fanout=fanout,
                               seed=seed, rounds=rounds)
        for seed in seeds
    ])


def measurement_reliability(
    n: int = 125,
    l: int = 15,
    fanout: int = 3,
    event_ids_max: int = 60,
    events_max: int = 60,
    publishers: int = 25,
    rate: int = 1,
    publish_window: Tuple[float, float] = (2.0, 10.0),
    horizon: float = 30.0,
    seed: int = 0,
) -> float:
    """One reliability measurement on the asynchronous runtime (the
    Sec. 5.2 testbed substitute); returns the 1-β estimate."""
    cfg = LpbcastConfig(
        fanout=fanout,
        view_max=l,
        event_ids_max=event_ids_max,
        events_max=events_max,
    )
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    net = NetworkModel(
        loss_rate=EPSILON,
        rng=random.Random(seed + 104729),
        latency=uniform_latency(0.05, 0.5),
    )
    runtime = AsyncGossipRuntime(network=net, seed=seed)
    runtime.add_nodes(nodes)
    log = DeliveryLog().attach(nodes)
    workload = BroadcastWorkload(
        nodes[:publishers], events_per_round=rate,
        start=publish_window[0], stop=publish_window[1],
    )
    runtime.on_tick_complete(workload.on_tick)
    runtime.run_until(horizon)
    report = measure_reliability(
        log, workload.published_ids(), [node.pid for node in nodes]
    )
    return report.reliability


def pbcast_measurement_reliability(
    n: int = 125,
    l: int = 15,
    fanout: int = 5,
    event_ids_max: int = 60,
    publishers: int = 25,
    rate: int = 1,
    rounds: int = 30,
    publish_window: Tuple[int, int] = (2, 10),
    seed: int = 0,
) -> float:
    """pbcast reliability under the same buffer pressure (Fig. 7(b))."""
    cfg = PbcastConfig(
        fanout=fanout, view_max=l, event_ids_max=event_ids_max,
        first_phase=FIRST_PHASE_NONE,
    )
    nodes = build_pbcast_nodes(n, cfg, seed=seed, membership="partial")
    sim = RoundSimulation(
        NetworkModel(loss_rate=EPSILON, rng=random.Random(seed + 104729)),
        seed=seed,
    )
    sim.add_nodes(nodes)
    log = DeliveryLog().attach(nodes)

    def publish(node, now):
        notification, first = node.publish(None, now)
        sim.inject(node.pid, first)
        return notification

    workload = BroadcastWorkload(
        nodes[:publishers], events_per_round=rate,
        start=publish_window[0], stop=publish_window[1],
        publish_fn=publish,
    )
    sim.add_round_hook(workload.on_round)
    sim.run(rounds)
    report = measure_reliability(
        log, workload.published_ids(), [node.pid for node in nodes]
    )
    return report.reliability


# ---------------------------------------------------------------------------
# Figure series
# ---------------------------------------------------------------------------

def fig2_series(rounds: int = 10) -> Dict[str, List[float]]:
    """Fig. 2: analytical infected-per-round for F = 3..6, n = 125."""
    from ..analysis import InfectionMarkovChain

    return {
        f"F={F}": InfectionMarkovChain(125, F, EPSILON, TAU).expected_curve(rounds)
        for F in (3, 4, 5, 6)
    }


def fig3a_series(rounds: int = 10) -> Dict[str, List[float]]:
    """Fig. 3(a): analytical infected-per-round for n = 125..1000, F = 3."""
    from ..analysis import InfectionMarkovChain

    return {
        f"n={n}": InfectionMarkovChain(n, 3, EPSILON, TAU).expected_curve(rounds)
        for n in range(125, 1001, 125)
    }


def fig3b_series() -> Tuple[List[int], List[float]]:
    """Fig. 3(b): expected rounds to infect 99% vs n (logarithmic growth)."""
    from ..analysis import expected_rounds_to_fraction

    sizes = list(range(100, 1001, 100))
    rounds = [expected_rounds_to_fraction(n, 3, EPSILON, TAU) for n in sizes]
    return sizes, rounds


def fig4_series() -> Dict[str, List[Tuple[int, float]]]:
    """Fig. 4: partition probability Ψ(i, n, 3) for n = 50, 75, 125."""
    from ..analysis import psi_curve

    sizes = list(range(4, 26))
    return {
        f"n={n}": psi_curve(n, 3, sizes=[i for i in sizes if i <= n // 2])
        for n in (50, 75, 125)
    }


def fig5a_series(seeds: Sequence[int] = range(5), rounds: int = 10):
    """Fig. 5(a): analysis vs simulation for n = 125, 250, 500."""
    from ..analysis import InfectionMarkovChain

    series: Dict[str, List[float]] = {}
    for n in (125, 250, 500):
        chain = InfectionMarkovChain(n, 3, EPSILON, TAU)
        series[f"n={n} theory"] = chain.expected_curve(rounds)
        series[f"n={n} sim"] = lpbcast_mean_curve(n, l=25, seeds=seeds,
                                                  rounds=rounds)
    return series


def fig5b_series(seeds: Sequence[int] = range(5), rounds: int = 8):
    """Fig. 5(b): simulated infection for l = 10, 15, 20 at n = 125."""
    return {
        f"l={l}": lpbcast_mean_curve(125, l=l, seeds=seeds, rounds=rounds)
        for l in (10, 15, 20)
    }


def fig6a_series(seeds: Sequence[int] = range(3)):
    """Fig. 6(a): reliability vs view size l (|eventIds|m = 60)."""
    l_values = [15, 20, 25, 30, 35]
    reliabilities = []
    for l in l_values:
        runs = [
            measurement_reliability(l=l, event_ids_max=60, rate=2, seed=seed)
            for seed in seeds
        ]
        reliabilities.append(sum(runs) / len(runs))
    return l_values, reliabilities


def fig6b_series(seeds: Sequence[int] = range(3)):
    """Fig. 6(b): reliability vs |eventIds|m (l = 15)."""
    sizes = [5, 10, 20, 40, 60, 80, 120]
    reliabilities = []
    for size in sizes:
        runs = [
            measurement_reliability(
                l=15, event_ids_max=size, events_max=max(size, 10),
                rate=2, seed=seed,
            )
            for seed in seeds
        ]
        reliabilities.append(sum(runs) / len(runs))
    return sizes, reliabilities


def fig7a_series(seeds: Sequence[int] = range(5), rounds: int = 7):
    """Fig. 7(a): lpbcast vs pbcast-partial vs pbcast-total (n=125, l=15, F=5)."""
    return {
        "lpbcast l=15 F=5": lpbcast_mean_curve(125, l=15, seeds=seeds,
                                               fanout=5, rounds=rounds),
        "pbcast partial view": pbcast_mean_curve(125, "partial", seeds,
                                                 rounds=rounds),
        "pbcast total view": pbcast_mean_curve(125, "total", seeds,
                                               rounds=rounds),
    }


def fig7b_series(seeds: Sequence[int] = range(3)):
    """Fig. 7(b): pbcast-with-partial-view reliability vs l (F = 5)."""
    l_values = [15, 20, 25, 30, 35]
    reliabilities = []
    for l in l_values:
        runs = [
            pbcast_measurement_reliability(l=l, rate=2, seed=seed)
            for seed in seeds
        ]
        reliabilities.append(sum(runs) / len(runs))
    return l_values, reliabilities
