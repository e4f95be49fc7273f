"""Simulation substrates: round-based and discrete-event gossip runners.

* :class:`~repro.sim.round_runner.RoundSimulation` — synchronous gossip
  rounds, the setting of the paper's simulations (Sec. 5.1).  Its
  :class:`~repro.sim.round_runner.EngineCore` base and its round body are
  what the next two engines schedule differently, not re-implement.
* :class:`~repro.sim.parallel_runner.ShardedRoundSimulation` — the same
  round body executed across multiple worker processes, bit-identical to
  the serial engine for the same root seed (the DST oracle's second
  opinion).
* :class:`~repro.sim.async_runner.AsyncGossipRuntime` — non-synchronized
  periodic gossips over a discrete-event kernel, standing in for the
  paper's 125-workstation testbed (Sec. 5.2).
* :class:`~repro.sim.columnar_runner.ColumnarRoundSimulation` — the same
  round vocabulary over dense arrays for mega-scale runs (n >= 100k),
  honouring a schedule-deterministic counter subset bit-identically.
* :mod:`~repro.sim.engines` — the registry behind the single ``engine=``
  knob, :func:`~repro.sim.engines.create_simulation`.
* :class:`~repro.sim.network.NetworkModel` — i.i.d. loss ε and latency
  models.  Crashes and link cuts are a
  :class:`~repro.faults.plan.FaultPlan`'s, installed with
  ``use_fault_plan``; the one trace is the engine's ``telemetry.trace``.
* Workloads, churn scripts (joins and leaves), canned scenarios, topology
  bootstrap and seeded random streams.
"""

from .async_runner import AsyncGossipRuntime
from .churn import ChurnScript
from .columnar_runner import ColumnarRoundSimulation
from .engine import Simulator
from .engines import ENGINES, create_simulation
from .network import (
    NetworkModel,
    PAPER_CRASH_RATE,
    PAPER_LOSS_RATE,
    constant_latency,
    exponential_latency,
    uniform_latency,
)
from .parallel_runner import (
    DEFAULT_SHARDS,
    NodeProxy,
    ShardedRoundSimulation,
)
from .round_runner import GossipProcess, RoundSimulation
from .rng import SeedSequence, derive_rng, derive_seed
from .scenarios import (
    Scenario,
    correlated_crashes,
    flaky_wan,
    flash_crowd,
    mass_departure,
    steady_state,
)
from .topology import build_lpbcast_nodes, uniform_random_views
from .workload import BroadcastWorkload, PoissonWorkload, PublicationRecord

__all__ = [
    "AsyncGossipRuntime",
    "BroadcastWorkload",
    "build_lpbcast_nodes",
    "ChurnScript",
    "ColumnarRoundSimulation",
    "constant_latency",
    "correlated_crashes",
    "create_simulation",
    "DEFAULT_SHARDS",
    "ENGINES",
    "flaky_wan",
    "flash_crowd",
    "mass_departure",
    "Scenario",
    "steady_state",
    "derive_rng",
    "derive_seed",
    "exponential_latency",
    "GossipProcess",
    "NetworkModel",
    "NodeProxy",
    "PAPER_CRASH_RATE",
    "PAPER_LOSS_RATE",
    "PoissonWorkload",
    "PublicationRecord",
    "RoundSimulation",
    "SeedSequence",
    "ShardedRoundSimulation",
    "Simulator",
    "uniform_latency",
    "uniform_random_views",
]
