"""The engine registry: one ``engine=`` knob over the four simulators.

Two engines are products and two are instruments.  ``serial``
(:class:`~repro.sim.round_runner.RoundSimulation`) is the reference and
``columnar`` (:class:`~repro.sim.columnar_runner.ColumnarRoundSimulation`)
the scale engine; ``sharded``
(:class:`~repro.sim.parallel_runner.ShardedRoundSimulation`) is kept as the
DST oracle's bit-identical second opinion and ``async``
(:class:`~repro.sim.async_runner.AsyncGossipRuntime`) as the testbed
substitute.  :func:`create_simulation` builds any of them by name and
rejects a kwarg the chosen engine would silently ignore.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from .async_runner import AsyncGossipRuntime
from .columnar_runner import ColumnarRoundSimulation
from .parallel_runner import ShardedRoundSimulation
from .round_runner import RoundSimulation


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine: how to build it, and which factory kwargs it
    honours.  ``create_simulation`` validates every call against this table,
    so a kwarg an engine would silently ignore is rejected instead."""

    name: str
    summary: str
    factory: Callable[..., object]
    accepts: frozenset


#: Factory-kwarg defaults.  A kwarg explicitly set to a *non-default* value
#: for an engine that does not accept it is an error; passing the default is
#: always legal (it cannot change behaviour).
FACTORY_DEFAULTS = {
    "network": None,
    "seed": 0,
    "max_reply_generations": 4,
    "on_node_error": "raise",
    "shards": None,
    "start_method": None,
    "workers": 1,
}

_ROUND_KWARGS = frozenset(
    {"network", "seed", "max_reply_generations", "on_node_error"})

ENGINE_REGISTRY: Dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            name="serial",
            summary="single-process synchronous rounds (paper Sec. 5.1)",
            factory=RoundSimulation,
            accepts=_ROUND_KWARGS,
        ),
        EngineSpec(
            name="sharded",
            summary="multi-process rounds, bit-identical to serial",
            factory=ShardedRoundSimulation,
            accepts=_ROUND_KWARGS | frozenset({"shards", "start_method"}),
        ),
        EngineSpec(
            name="async",
            summary="non-synchronized periodic gossip (testbed substitute)",
            factory=AsyncGossipRuntime,
            accepts=frozenset({"network", "seed"}),
        ),
        EngineSpec(
            name="columnar",
            summary="array-backed vectorized rounds for mega-scale n",
            factory=ColumnarRoundSimulation,
            accepts=frozenset({"network", "seed", "workers"}),
        ),
    )
}

ENGINES = tuple(ENGINE_REGISTRY)


def create_simulation(engine: str = "serial", **kwargs):
    """Build an engine by name — the single ``engine=`` knob.

    ``"serial"`` is the paper's single-process Sec. 5.1 runner;
    ``"sharded"`` partitions the nodes over ``shards`` worker processes and
    produces bit-identical runs for the same root seed (see
    :mod:`repro.sim.parallel_runner`); ``"async"`` is the
    non-synchronized-timer testbed substitute
    (:class:`~repro.sim.async_runner.AsyncGossipRuntime`), driven by
    ``run_rounds`` instead of ``run`` and *not* part of the bit-identity
    contract; ``"columnar"`` is the array-backed vectorized engine for
    n >= 100k (:class:`~repro.sim.columnar_runner.ColumnarRoundSimulation`),
    validated against serial on the honoured-metric subset only.

    Accepted kwargs are validated against the :data:`ENGINE_REGISTRY` entry
    of the chosen engine: ``shards``/``start_method`` apply to the sharded
    engine only, ``workers`` to the columnar engine only (``workers=N`` runs
    the round passes across N shared-memory worker processes; the honoured
    fingerprint is identical for every worker count),
    ``max_reply_generations``/``on_node_error`` to the round engines only,
    ``network``/``seed`` everywhere.  A kwarg set to a non-default value for
    an engine that cannot honour it raises ``ValueError`` naming the engines
    that can — a ``shards=8`` or ``workers=4`` request must not silently run
    single-process.
    """
    spec = ENGINE_REGISTRY.get(engine)
    if spec is None:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}")
    unknown = sorted(set(kwargs) - set(FACTORY_DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown create_simulation kwarg(s) {unknown}; "
            f"accepted: {sorted(FACTORY_DEFAULTS)}")
    rejected = sorted(
        name for name, value in kwargs.items()
        if name not in spec.accepts and value != FACTORY_DEFAULTS[name]
    )
    if rejected:
        honouring = {
            name: sorted(s.name for s in ENGINE_REGISTRY.values()
                         if name in s.accepts)
            for name in rejected
        }
        detail = "; ".join(f"{name!r} applies to {engines}"
                           for name, engines in honouring.items())
        raise ValueError(
            f"engine {engine!r} does not accept {rejected}: {detail}")
    final = {name: kwargs.get(name, FACTORY_DEFAULTS[name])
             for name in spec.accepts}
    return spec.factory(**final)
