"""Automatic scenario minimisation.

When the oracle flags a generated scenario, the raw spec is rarely a good
bug report: dozens of processes, tens of rounds, a fault plan with five
overlapping windows.  :func:`shrink_spec` greedily minimises it — fewer
processes, fewer rounds, fewer fault-plan entries, smaller workload, no
background loss, fewer joiners and leavers — re-running the oracle after
every candidate edit and keeping only edits under which the *same* failure
(matched by signature) still reproduces.  Greedy first-improvement
restarts give the classic delta-debugging shape: big halving steps first,
then single-entry removals, then decrements, until a full pass yields no
accepted edit.

Determinism note: shrinking edits the spec but never the seed, so every
candidate (and the final minimum) is itself a replayable scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from ..faults.plan import FaultPlan
from .oracle import check_scenario
from .spec import MIN_N, MIN_ROUNDS, ScenarioSpec


@dataclass
class ShrinkResult:
    """Outcome of one shrink session."""

    spec: ScenarioSpec          # the minimised scenario
    original: ScenarioSpec      # what the fuzzer originally generated
    signature: str              # the failure that was preserved throughout
    attempts: int               # oracle executions spent
    accepted: int               # edits that kept the failure alive

    def reduction(self) -> str:
        return (f"n {self.original.n}->{self.spec.n}, "
                f"rounds {self.original.rounds}->{self.spec.rounds}, "
                f"faults {self.original.plan.fault_count()}"
                f"->{self.spec.plan.fault_count()}, "
                f"publishes {self.original.publishes}->{self.spec.publishes}"
                + (f", churn +{self.original.joins}/-{self.original.leaves}"
                   f"->+{self.spec.joins}/-{self.spec.leaves}"
                   if self.original.joins or self.original.leaves else "")
                + f" ({self.attempts} attempts, {self.accepted} accepted)")


def _without_entry(plan: FaultPlan, index: int) -> FaultPlan:
    """The plan minus its ``index``-th entry (in
    :meth:`~repro.faults.plan.FaultPlan.entries` order)."""
    smaller = FaultPlan()
    for position, (kind, entry) in enumerate(plan.entries()):
        if position != index:
            getattr(smaller, kind).append(entry)
    return smaller


def _candidates(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Candidate edits, most aggressive first.

    Each candidate is one edit of ``spec``; the caller accepts the first
    that still fails and restarts, so ordering encodes the search strategy:
    wipe the whole fault plan before picking at entries, halve before
    decrementing.
    """
    # 1. Drop all faults at once — failures that survive this shrink fast.
    if not spec.plan.is_empty():
        yield spec.with_overrides(plan=FaultPlan())
    # 2. Halve the big axes.
    if spec.n > MIN_N:
        yield spec.with_overrides(n=max(MIN_N, spec.n // 2))
    if spec.rounds > MIN_ROUNDS:
        yield spec.with_overrides(
            rounds=max(MIN_ROUNDS, spec.rounds // 2),
            publishes=min(spec.publishes, max(MIN_ROUNDS, spec.rounds // 2)),
        )
    # 3. Remove fault-plan entries one at a time.
    for index in range(spec.plan.fault_count()):
        yield spec.with_overrides(plan=_without_entry(spec.plan, index))
    # 4. Simplify the environment and workload.
    if spec.loss_rate > 0.0:
        yield spec.with_overrides(loss_rate=0.0)
    if spec.publishes > 1:
        yield spec.with_overrides(publishes=1)
    if spec.burst > 1:
        yield spec.with_overrides(burst=1)
    if spec.retransmissions:
        yield spec.with_overrides(retransmissions=False)
    for churn in ("joins", "leaves"):
        if getattr(spec, churn):
            yield spec.with_overrides(**{churn: 0})
    # 5. Fine steps on the big axes.
    if spec.n > MIN_N:
        yield spec.with_overrides(n=spec.n - 1)
    if spec.rounds > MIN_ROUNDS:
        yield spec.with_overrides(
            rounds=spec.rounds - 1,
            publishes=min(spec.publishes, spec.rounds - 1),
        )
    for churn in ("joins", "leaves"):
        if getattr(spec, churn) > 1:
            yield spec.with_overrides(**{churn: getattr(spec, churn) // 2})


def default_is_failing(signature: str) -> Callable[[ScenarioSpec], bool]:
    """A predicate running the real oracle, short-circuiting the sharded
    run for invariant signatures (see ``check_scenario``)."""

    def is_failing(candidate: ScenarioSpec) -> bool:
        report = check_scenario(candidate, require_signature=signature)
        return signature in report.signatures()

    return is_failing


def shrink_spec(
    spec: ScenarioSpec,
    signature: str,
    *,
    is_failing: Optional[Callable[[ScenarioSpec], bool]] = None,
    max_attempts: int = 150,
) -> ShrinkResult:
    """Minimise ``spec`` while ``signature`` keeps reproducing.

    ``is_failing`` defaults to running the oracle for real; tests inject a
    cheap predicate.  ``max_attempts`` bounds total oracle executions, so
    shrinking always terminates even on a pathological candidate stream —
    the partially shrunk spec is still a valid, smaller repro.
    """
    if is_failing is None:
        is_failing = default_is_failing(signature)
    current = spec
    attempts = 0
    accepted = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _candidates(current):
            if candidate.size() >= current.size():
                continue  # an edit must strictly shrink, or we could cycle
            attempts += 1
            if is_failing(candidate):
                current = candidate
                accepted += 1
                improved = True
                break  # greedy restart from the new, smaller spec
            if attempts >= max_attempts:
                break
    return ShrinkResult(spec=current, original=spec, signature=signature,
                        attempts=attempts, accepted=accepted)
