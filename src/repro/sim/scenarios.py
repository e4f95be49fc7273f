"""Canned experiment scenarios.

Ready-made system builders for the situations the paper motivates — a flash
crowd of subscribers, mass departures, correlated crashes, a flaky WAN —
each returning a fully wired :class:`Scenario` (simulation, nodes, delivery
log, and any scenario-specific handles).  Tests and examples use these
instead of re-assembling the same plumbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.config import LpbcastConfig
from ..core.node import LpbcastNode
from ..metrics.delivery import DeliveryLog
from .churn import ChurnScript
from .network import NetworkModel
from .round_runner import RoundSimulation
from .rng import SeedSequence
from .topology import build_lpbcast_nodes


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


def _base(
    n: int,
    config: Optional[LpbcastConfig],
    seed: int,
    loss_rate: float,
) -> Scenario:
    cfg = config if config is not None else LpbcastConfig(fanout=3, view_max=10)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    seeds = SeedSequence(seed)
    sim = RoundSimulation(
        NetworkModel(loss_rate=loss_rate, rng=seeds.rng("scenario-network")),
        seed=seed,
    )
    sim.add_nodes(nodes)
    log = DeliveryLog().attach(nodes)
    return Scenario(sim=sim, nodes=nodes, log=log)


def steady_state(
    n: int = 125,
    config: Optional[LpbcastConfig] = None,
    seed: int = 0,
    loss_rate: float = 0.05,
) -> Scenario:
    """A stable system under the paper's default network assumptions."""
    return _base(n, config, seed, loss_rate)


def flash_crowd(
    n: int = 60,
    joiners: int = 20,
    join_round: int = 2,
    config: Optional[LpbcastConfig] = None,
    seed: int = 0,
    loss_rate: float = 0.05,
) -> Scenario:
    """A burst of new subscribers joining within one round.

    All joiners contact existing members simultaneously — the stress case
    for the Sec. 3.4 handshake.  ``extras['joiner_pids']`` lists them;
    ``extras['churn']`` is the driving script.
    """
    scenario = _base(n, config, seed, loss_rate)
    cfg = scenario.nodes[0].config
    seeds = SeedSequence(seed).spawn("joiners")

    def factory(pid: int) -> LpbcastNode:
        node = LpbcastNode(pid, cfg, seeds.rng("node", pid))
        scenario.log.attach([node])
        return node

    script = ChurnScript(node_factory=factory)
    contact_rng = seeds.rng("contacts")
    joiner_pids = list(range(n, n + joiners))
    for pid in joiner_pids:
        script.join(join_round, pid, contact=contact_rng.randrange(n))
    scenario.sim.add_round_hook(script.on_round)
    scenario.extras["joiner_pids"] = joiner_pids
    scenario.extras["churn"] = script
    return scenario


def mass_departure(
    n: int = 60,
    leavers: int = 20,
    leave_round: int = 2,
    config: Optional[LpbcastConfig] = None,
    seed: int = 0,
    loss_rate: float = 0.05,
) -> Scenario:
    """A third of the system unsubscribes at once (Sec. 3.4 at scale).

    ``extras['leaver_pids']`` lists the departing processes.
    """
    if leavers >= n:
        raise ValueError("leavers must be fewer than n")
    scenario = _base(n, config, seed, loss_rate)
    script = ChurnScript()
    leaver_pids = [node.pid for node in scenario.nodes[:leavers]]
    for pid in leaver_pids:
        script.leave(leave_round, pid)
    scenario.sim.add_round_hook(script.on_round)
    scenario.extras["leaver_pids"] = leaver_pids
    scenario.extras["churn"] = script
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
    if not 0.0 < crash_fraction < 1.0:
        raise ValueError("crash_fraction must be in (0, 1)")
    scenario = _base(n, config, seed, loss_rate)
    rng = SeedSequence(seed).rng("victims")
    victims = rng.sample([node.pid for node in scenario.nodes],
                         int(crash_fraction * n))

    def crash_hook(round_number: int, sim) -> None:
        if round_number == crash_round:
            for pid in victims:
                sim.crash(pid)

    scenario.sim.add_round_hook(crash_hook)
    scenario.extras["victims"] = victims
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
    if not 0.0 <= crash_rate < 1.0:
        raise ValueError("crash_rate (tau) must be in [0, 1)")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    scenario = _base(n, config, seed, loss_rate)
    rng = SeedSequence(seed).rng("crash-plan")
    victims = rng.sample([node.pid for node in scenario.nodes],
                         round(crash_rate * n))
    times = [rng.uniform(0.0, horizon) for _ in victims]
    crashes = [(max(1, math.ceil(at)), pid)
               for at, pid in sorted(zip(times, victims))]

    def crash_hook(round_number: int, sim) -> None:
        for at_round, pid in crashes:
            if at_round == round_number:
                sim.crash(pid)

    scenario.sim.add_round_hook(crash_hook)
    scenario.extras["crashes"] = crashes
    return scenario
