"""Canned experiment scenarios.

Ready-made system builders for the situations the paper motivates — a flash
crowd of subscribers, mass departures, correlated crashes, a flaky WAN —
each returning a fully wired :class:`Scenario` (simulation, nodes, delivery
log, and any scenario-specific handles).  Tests and examples use these
instead of re-assembling the same plumbing.

Each preset is defined once, as plain data: :func:`preset_shape` computes
its :class:`PresetShape` from ``(n, seed, params)``.  The builders wire
that shape into a round simulation; :func:`repro.dst.spec.generate_spec`
folds it into a fuzzable :class:`~repro.dst.spec.ScenarioSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.config import LpbcastConfig
from ..core.ids import ProcessId
from ..core.node import LpbcastNode
from ..metrics.delivery import DeliveryLog
from .churn import ChurnScript
from .network import NetworkModel
from .round_runner import RoundSimulation
from .rng import SeedSequence
from .topology import build_lpbcast_nodes

#: The round a preset's joiners join and its leavers unsubscribe in.
CHURN_ROUND = 2


@dataclass(frozen=True)
class PresetShape:
    """A preset for ``n`` processes as plain data: loss rate, ``(round,
    pid)`` fail-stops in crash order, and the counts of joiners (pids
    ``n ..``) and leavers (pids ``0 ..``) in round :data:`CHURN_ROUND`."""

    loss_rate: float
    crashes: Tuple[Tuple[int, ProcessId], ...] = ()
    joiners: int = 0
    leavers: int = 0


def _steady_state(n, seed, loss_rate=0.05) -> PresetShape:
    return PresetShape(loss_rate)


def _flash_crowd(n, seed, joiners=None, loss_rate=0.05) -> PresetShape:
    return PresetShape(loss_rate, joiners=n // 3 if joiners is None
                       else joiners)


def _mass_departure(n, seed, leavers=None, loss_rate=0.05) -> PresetShape:
    leavers = n // 3 if leavers is None else leavers
    if leavers >= n:
        raise ValueError("leavers must be fewer than n")
    return PresetShape(loss_rate, leavers=leavers)


def _correlated_crashes(n, seed, crash_fraction=0.2, crash_round=3,
                        loss_rate=0.05) -> PresetShape:
    if not 0.0 < crash_fraction < 1.0:
        raise ValueError("crash_fraction must be in (0, 1)")
    victims = SeedSequence(seed).rng("victims").sample(
        list(range(n)), int(crash_fraction * n))
    return PresetShape(loss_rate, tuple((crash_round, pid) for pid in victims))


def _flaky_wan(n, seed, loss_rate=0.3, crash_rate=0.05,
               horizon=15.0) -> PresetShape:
    if not 0.0 <= crash_rate < 1.0:
        raise ValueError("crash_rate (tau) must be in [0, 1)")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = SeedSequence(seed).rng("crash-plan")
    victims = rng.sample(list(range(n)), round(crash_rate * n))
    times = [rng.uniform(0.0, horizon) for _ in victims]
    return PresetShape(loss_rate, tuple(
        (max(1, math.ceil(at)), pid)
        for at, pid in sorted(zip(times, victims))))


_SHAPES: Dict[str, Callable[..., PresetShape]] = {
    shape.__name__[1:]: shape for shape in (
        _steady_state, _flash_crowd, _mass_departure, _correlated_crashes,
        _flaky_wan)}

#: The presets, in the order a preset campaign cycles through them.
PRESET_NAMES = tuple(_SHAPES)


def preset_shape(name: str, n: int, seed: int) -> PresetShape:
    """Preset ``name`` for ``n`` processes and root ``seed``, with the
    builder defaults (joiner and leaver counts ``n // 3``)."""
    if name not in _SHAPES:
        raise ValueError(f"unknown preset {name!r}; "
                         f"expected one of {PRESET_NAMES}")
    return _SHAPES[name](n, seed)


def churn_script(n: int, seed: int, config: LpbcastConfig, joiners: int,
                 leavers: int, on_join: Callable[[LpbcastNode], None]
                 ) -> ChurnScript:
    """A shape's joins and leaves: joiner ``n + i`` contacts a member drawn
    from the ``"joiners"`` / ``"contacts"`` stream, runs on its own
    ``"joiners"`` / ``"node"`` stream and is shown to ``on_join`` first."""
    seeds = SeedSequence(seed).spawn("joiners")

    def factory(pid: ProcessId) -> LpbcastNode:
        node = LpbcastNode(pid, config, seeds.rng("node", pid))
        on_join(node)
        return node

    script = ChurnScript(node_factory=factory)
    contact_rng = seeds.rng("contacts")
    for pid in range(n, n + joiners):
        script.join(CHURN_ROUND, pid, contact=contact_rng.randrange(n))
    for pid in range(leavers):
        script.leave(CHURN_ROUND, pid)
    return script


@dataclass
class Scenario:
    """A wired-up experiment: run it, then interrogate the pieces."""

    sim: RoundSimulation
    nodes: List[LpbcastNode]
    log: DeliveryLog
    extras: Dict[str, object] = field(default_factory=dict)

    def run(self, rounds: int) -> "Scenario":
        self.sim.run(rounds)
        return self

    def alive_nodes(self) -> List[LpbcastNode]:
        return [n for n in self.nodes if self.sim.alive(n.pid)]


def _build(n: int, config: Optional[LpbcastConfig], seed: int,
           shape: PresetShape) -> Scenario:
    cfg = config if config is not None else LpbcastConfig(fanout=3, view_max=10)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    sim = RoundSimulation(
        NetworkModel(loss_rate=shape.loss_rate,
                     rng=SeedSequence(seed).rng("scenario-network")),
        seed=seed,
    )
    sim.add_nodes(nodes)
    log = DeliveryLog().attach(nodes)
    scenario = Scenario(sim=sim, nodes=nodes, log=log)
    if shape.crashes:
        from ..faults.plan import FaultPlan  # only runs that crash load it

        plan = FaultPlan()
        for at, pid in shape.crashes:
            plan.crash(pid, at=at)
        sim.use_fault_plan(plan)
    if shape.joiners or shape.leavers:
        script = churn_script(n, seed, cfg, shape.joiners, shape.leavers,
                              on_join=lambda node: log.attach([node]))
        sim.add_round_hook(script.on_round)
        scenario.extras["churn"] = script
    return scenario


def steady_state(
    n: int = 125,
    config: Optional[LpbcastConfig] = None,
    seed: int = 0,
    loss_rate: float = 0.05,
) -> Scenario:
    """A stable system under the paper's default network assumptions."""
    return _build(n, config, seed, _steady_state(n, seed, loss_rate))


def flash_crowd(
    n: int = 60,
    joiners: Optional[int] = None,
    config: Optional[LpbcastConfig] = None,
    seed: int = 0,
    loss_rate: float = 0.05,
) -> Scenario:
    """A burst of new subscribers (``n // 3`` unless given) joining within
    one round.

    All joiners contact existing members simultaneously — the stress case
    for the Sec. 3.4 handshake.  ``extras['joiner_pids']`` lists them;
    ``extras['churn']`` is the driving script.
    """
    shape = _flash_crowd(n, seed, joiners, loss_rate)
    scenario = _build(n, config, seed, shape)
    scenario.extras["joiner_pids"] = list(range(n, n + shape.joiners))
    return scenario


def mass_departure(
    n: int = 60,
    leavers: Optional[int] = None,
    config: Optional[LpbcastConfig] = None,
    seed: int = 0,
    loss_rate: float = 0.05,
) -> Scenario:
    """A third of the system (``leavers`` if given) unsubscribes at once
    (Sec. 3.4 at scale).  ``extras['leaver_pids']`` lists the departing
    processes."""
    shape = _mass_departure(n, seed, leavers, loss_rate)
    scenario = _build(n, config, seed, shape)
    scenario.extras["leaver_pids"] = list(range(shape.leavers))
    return scenario


def correlated_crashes(
    n: int = 60,
    crash_fraction: float = 0.2,
    crash_round: int = 3,
    config: Optional[LpbcastConfig] = None,
    seed: int = 0,
    loss_rate: float = 0.05,
) -> Scenario:
    """A rack failure: a random fraction fail-stops in the same round —
    far beyond the τ = 0.01 the analysis assumes.  ``extras['victims']``
    lists the crashed processes."""
    shape = _correlated_crashes(n, seed, crash_fraction, crash_round,
                                loss_rate)
    scenario = _build(n, config, seed, shape)
    scenario.extras["victims"] = [pid for _, pid in shape.crashes]
    return scenario


def flaky_wan(
    n: int = 60,
    loss_rate: float = 0.3,
    config: Optional[LpbcastConfig] = None,
    seed: int = 0,
    crash_rate: float = 0.05,
    horizon: float = 15.0,
) -> Scenario:
    """A hostile wide-area network: heavy loss plus background crashes.

    The crashes follow the τ bound of Sec. 4.1: "the number of process
    crashes in a run does not exceed f < n", so ``f = round(τ·n)``
    distinct victims each fail-stop at a time uniform over ``horizon``,
    i.e. in round ``max(1, ceil(at))``.  ``extras['crashes']`` lists the
    schedule as ``(round, pid)`` pairs in crash order.
    """
    shape = _flaky_wan(n, seed, loss_rate, crash_rate, horizon)
    scenario = _build(n, config, seed, shape)
    scenario.extras["crashes"] = list(shape.crashes)
    return scenario
