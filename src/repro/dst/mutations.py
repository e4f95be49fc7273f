"""Planted bugs for fuzzer self-testing.

A fuzzer you have never seen fail is untested test infrastructure.  Each
:class:`Mutation` here plants one *known* bug into a scenario run — modelled
on real defect classes this repo has actually had — and ``repro fuzz
--self-test`` asserts the pipeline catches it end-to-end: the oracle flags
it, the shrinker minimises it, and the emitted artifact replays to the same
failure bit-identically.

Mutations are addressed by name from :attr:`ScenarioSpec.mutation`, so a
repro artifact for a planted bug replays the *same* planted bug in a fresh
process.  They are deterministic by construction (no randomness of their
own) and must perturb exactly one engine or accounting path so the expected
failure kind is known.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from ..core.message import GossipMessage, Outgoing


class _DoubleFireListeners(list):
    """A listener list whose iteration yields every listener twice.

    Swapped in for a node's ``_listeners``, it makes each LPB-DELIVER
    notify the application (and therefore the invariant monitor) twice —
    the observable behaviour of broken duplicate suppression at the
    delivery boundary, without touching counters or randomness.
    """

    def __iter__(self):
        for listener in list.__iter__(self):
            yield listener
            yield listener


def _double_delivery_post_build(sim, spec, engine) -> None:
    """Break duplicate suppression on one node of the *serial* engine.

    The victim is the lowest pid, so the bug's location is a pure function
    of the spec.  Only the serial engine is mutated: the planted defect is
    an engine-local regression, the class of bug the invariant oracle (not
    the differential one) must catch.
    """
    if engine != "serial":
        return
    victim = sim.nodes[min(sim.nodes)]
    victim._listeners = _DoubleFireListeners(victim._listeners)


def _equivocation_post_build(sim, spec, engine) -> None:
    """Make one node of the *serial* engine equivocate on every gossip.

    The victim (lowest pid, a pure function of the spec) rewrites the
    payload of every notification it forwards, choosing the lie by
    destination parity — different receivers observe conflicting payloads
    for the same event id.  This is the defect class the agreement
    invariant exists to catch: the oracle must report
    ``invariant:agreement`` (plain lpbcast trusts the first payload it
    hears).  Serial-only, like every engine-local planted bug: wrapping a
    bound method would not survive pickling into shard workers, and one
    perturbed engine is enough for the invariant oracle.
    """
    if engine != "serial":
        return
    victim = sim.nodes[min(sim.nodes)]
    original_tick = victim.on_tick

    def lying_tick(now):
        rewritten = []
        for outgoing in original_tick(now):
            message = outgoing.message
            if isinstance(message, GossipMessage) and message.events:
                variant = outgoing.destination % 2
                events = tuple(
                    n._replace(payload=f"equiv:{variant}")
                    if n.payload is not None else n
                    for n in message.events
                )
                rewritten.append(
                    Outgoing(outgoing.destination,
                             replace(message, events=events))
                )
            else:
                rewritten.append(outgoing)
        return rewritten

    victim.on_tick = lying_tick


def _sharded_undercount_post_run(sim, spec, engine) -> None:
    """Re-introduce a sharded accounting undercount (the PR 3 bug class).

    After a sharded run, one first-round gossip send vanishes from the
    merged counters — exactly what happened when pickling dropped
    monkey-patched instruments.  The differential oracle must flag the
    serial/sharded record mismatch.
    """
    if engine != "sharded":
        return
    sim.telemetry.inc("sim.sends", -1, round=1, kind="GossipMessage")


def _dropped_dependency_post_build(sim, spec, engine) -> None:
    """Break causal readiness on every node of the *serial* engine.

    Each hold-back gate is shadowed to consider everything ready: it
    releases notifications the moment they arrive, dependencies delivered
    or not — the classic dropped-dependency ordering bug a causal broadcast
    implementation can ship.  The defect lives in the gate *class*, so it
    is planted system-wide (any one node receiving out of causal order
    suffices), and the ``causality`` invariant must flag the first delivery
    whose dependency frontier is not yet covered.  Serial-only: an
    instance-attribute method shadow would not survive pickling into shard
    workers, and one perturbed engine is enough for the invariant oracle.
    """
    if engine != "serial":
        return
    for node in sim.nodes.values():
        gate = getattr(node, "causal", None)
        if gate is not None:
            gate._ready = lambda notification: True


def _forget_frontier_post_build(sim, spec, engine) -> None:
    """Make one node of the *serial* engine forget a frontier mid-run.

    The ``eventIds`` frontier of the first origin the victim (lowest pid)
    knows drops back to zero, so every later digest naming that origin reads
    as news and the victim delivers again (under retransmissions: solicits,
    then delivers again) ids it already delivered — ``no-duplicate-delivery``
    must fire at whatever distance.  Serial-only, like every engine-local bug.
    """
    if engine != "serial":
        return
    store = sim.nodes[min(sim.nodes)].event_ids

    def forget(round_no, _sim) -> None:
        if round_no == max(2, spec.rounds // 2) and store._frontier:
            store._frontier[next(iter(store._frontier))] = 0
            store._snapshot = None

    sim.add_round_hook(forget)


def _columnar_undercount_post_run(sim, spec, engine) -> None:
    """Lose one honoured gossip send from the *columnar* engine's counters.

    ``sim.sends{kind="GossipMessage"}`` is part of the columnar honoured
    contract, so the honoured-subset differential must flag the mismatch —
    this is the planted proof that the columnar oracle actually compares
    something (an oracle honouring an empty subset would pass everything).
    """
    if engine != "columnar":
        return
    sim.telemetry.inc("sim.sends", -1, round=1, kind="GossipMessage")


@dataclass(frozen=True)
class Mutation:
    """One registered planted bug.

    ``post_build`` runs after the system is wired but before the first
    round; ``post_run`` runs after the last round but before the oracle
    reads the telemetry.  Either may be ``None``.
    """

    name: str
    description: str
    #: The failure kind the oracle is expected to report: "invariant" or
    #: "parity" — the self-test asserts the *right* detector fired.
    expected_kind: str
    post_build: Optional[Callable] = None
    post_run: Optional[Callable] = None
    #: Oracle engines the self-test campaign runs for this planted bug —
    #: a columnar-path defect needs the columnar differential switched on.
    engines: tuple = ("serial", "sharded")
    #: Scenario family the self-test generates for this bug: "plain",
    #: "byzantine" or "causal" — an ordering bug needs causal-delivery
    #: scenarios to have anything to violate.
    family: str = "plain"

    def apply_post_build(self, sim, spec, engine: str) -> None:
        if self.post_build is not None:
            self.post_build(sim, spec, engine)

    def apply_post_run(self, sim, spec, engine: str) -> None:
        if self.post_run is not None:
            self.post_run(sim, spec, engine)


MUTATIONS: Dict[str, Mutation] = {
    mutation.name: mutation
    for mutation in (
        Mutation(
            name="double-delivery",
            description="serial engine delivers every notification twice "
                        "(broken duplicate suppression at the delivery "
                        "boundary)",
            expected_kind="invariant",
            post_build=_double_delivery_post_build,
        ),
        Mutation(
            name="equivocation",
            description="one serial-engine node rewrites forwarded payloads "
                        "by destination parity (an equivocating sender; "
                        "plain lpbcast delivers conflicting payloads)",
            expected_kind="invariant",
            post_build=_equivocation_post_build,
        ),
        Mutation(
            name="sharded-undercount",
            description="sharded engine loses one first-round gossip from "
                        "the merged counter records (the classic pickling "
                        "undercount)",
            expected_kind="parity",
            post_run=_sharded_undercount_post_run,
        ),
        Mutation(
            name="columnar-undercount",
            description="columnar engine loses one first-round gossip from "
                        "its honoured counter records (a vectorized-pass "
                        "accounting slip)",
            expected_kind="parity",
            post_run=_columnar_undercount_post_run,
            engines=("serial", "columnar"),
        ),
        Mutation(
            name="dropped-dependency",
            description="every serial-engine causal gate treats every "
                        "notification as ready, delivering before its "
                        "dependencies (the dropped-dependency ordering bug)",
            expected_kind="invariant",
            post_build=_dropped_dependency_post_build,
            family="causal",
        ),
        Mutation(
            name="forget-the-frontier",
            description="one serial-engine node's eventIds drops an origin's "
                        "frontier to zero mid-run (delivered ids read as new)",
            expected_kind="invariant",
            post_build=_forget_frontier_post_build,
        ),
        Mutation(
            name="double-defect",
            description="broken duplicate suppression on the serial engine "
                        "AND a sharded counter undercount in one scenario "
                        "(two independent defects; the full oracle report "
                        "must list both signatures)",
            expected_kind="invariant",
            post_build=_double_delivery_post_build,
            post_run=_sharded_undercount_post_run,
        ),
    )
}


def get_mutation(name: Optional[str]) -> Optional[Mutation]:
    """Resolve a spec's mutation name (``None`` passes through)."""
    if name is None:
        return None
    try:
        return MUTATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutation {name!r}; registered: {sorted(MUTATIONS)}"
        ) from None
