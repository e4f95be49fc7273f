"""The DST oracle: invariants plus a serial/sharded differential check.

lpbcast's guarantees are probabilistic — low reliability under a harsh
fault plan is *data*, not a bug — so the oracle only judges properties that
must hold under **every** schedule:

1. **Invariants** (:class:`~repro.faults.invariants.InvariantMonitor`):
   an id delivered twice (at any distance), buffer bounds,
   view-excludes-owner, unsubscription TTL expiry, crashed-process silence.
2. **Differential engine identity**: the serial and sharded engines must
   produce byte-identical canonical counter records for the same spec —
   the PR 4 bit-identity contract extended from one golden seed to every
   generated scenario.
3. **Columnar honoured parity** (opt-in via ``engines``): the columnar
   engine must match the serial engine byte-identically on the honoured
   counter subset (schedule-deterministic series — see
   :mod:`repro.sim.columnar_runner` for the contract and the declared
   divergences everything else falls under).

Every failure carries a stable ``signature`` — the shrinker uses it to
verify a smaller scenario still reproduces the *same* bug rather than a
different one it stumbled into while shrinking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..sim.columnar_runner import honoured_records
from ..telemetry import diff_counter_records
from .harness import RunOutcome, apply_scenario
from .spec import ScenarioSpec


@dataclass(frozen=True)
class FuzzFailure:
    """One oracle finding."""

    kind: str  # "invariant" or "parity"
    signature: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.signature}: {self.detail}"


@dataclass
class OracleReport:
    """The verdict on one spec across the engines it ran on."""

    spec: ScenarioSpec
    failures: List[FuzzFailure] = field(default_factory=list)
    #: Engine name -> canonical counter fingerprint of its run.
    fingerprints: Dict[str, str] = field(default_factory=dict)
    engines_run: List[str] = field(default_factory=list)
    #: The serial run's reliability: reported, never judged.
    reliability: Optional[float] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def signatures(self) -> List[str]:
        return [failure.signature for failure in self.failures]

    def summary(self) -> str:
        verdict = ("OK" if self.ok
                   else "; ".join(str(f) for f in self.failures[:3]))
        return f"{self.spec.describe()} -> {verdict}"


def _invariant_failures(outcome: RunOutcome) -> List[FuzzFailure]:
    """Collapse a run's violations into one failure per invariant name —
    a broken invariant usually fires every round, and the shrinker only
    needs the stable identity plus one concrete example."""
    failures: List[FuzzFailure] = []
    seen: Dict[str, int] = {}
    first: Dict[str, str] = {}
    for violation in outcome.violations:
        seen[violation.invariant] = seen.get(violation.invariant, 0) + 1
        first.setdefault(violation.invariant, str(violation))
    for invariant, count in sorted(seen.items()):
        failures.append(FuzzFailure(
            kind="invariant",
            signature=f"invariant:{invariant}",
            detail=(f"{count} violation(s) on the {outcome.engine} engine; "
                    f"first: {first[invariant]}"),
        ))
    return failures


def _parity_failure(serial: RunOutcome, sharded: RunOutcome
                    ) -> Optional[FuzzFailure]:
    if serial.fingerprint == sharded.fingerprint:
        return None
    diff = diff_counter_records(serial.records, sharded.records, limit=5)
    # The signature pins the first differing metric name: stable under
    # shrinking (the same bug keeps corrupting the same series) without
    # over-pinning exact counts, which legitimately change as the scenario
    # shrinks.
    first_metric = diff[0].split("{")[0].split(":")[0] if diff else "unknown"
    return FuzzFailure(
        kind="parity",
        signature=f"parity:{first_metric}",
        detail=("serial and sharded counter records diverge: "
                + "; ".join(diff)),
    )


def _columnar_parity_failure(serial: RunOutcome, columnar: RunOutcome
                             ) -> Optional[FuzzFailure]:
    """Compare only the honoured subset — the rest is declared divergence."""
    left = honoured_records(serial.records)
    right = honoured_records(columnar.records)
    if left == right:
        return None
    diff = diff_counter_records(left, right, limit=5)
    first_metric = diff[0].split("{")[0].split(":")[0] if diff else "unknown"
    return FuzzFailure(
        kind="parity",
        signature=f"parity:columnar:{first_metric}",
        detail=("serial and columnar honoured counter records diverge: "
                + "; ".join(diff)),
    )


def check_scenario(
    spec: ScenarioSpec,
    *,
    require_signature: Optional[str] = None,
    full: bool = False,
    engines: Sequence[str] = ("serial", "sharded"),
    workers: int = 1,
) -> OracleReport:
    """Run the oracle on one spec.

    ``require_signature`` is the shrinker's fast path: when the caller only
    needs to know whether one specific failure reproduces, the cheapest
    engine subset that can answer is run — the serial run alone for an
    *invariant* signature, serial + columnar for a ``parity:columnar:*``
    signature — and the remaining engines are skipped.  ``full=True``
    disables every fast path so the report lists *all* failures a spec
    produces (a scenario can break an invariant **and** engine parity at
    once; replay and artifacts use the full report).

    ``engines`` selects the differential pairs: it must contain
    ``"serial"``, the reference; add ``"sharded"`` for full-record parity
    and/or ``"columnar"`` for honoured-subset parity (any other engine is
    judged on its invariants alone).  A ``parity:columnar:*``
    ``require_signature`` pulls the columnar engine in implicitly, so the
    shrinker needs no engine plumbing.

    ``workers`` goes to every engine but the serial reference: an explicit
    caller choice (never inferred from the host's core count, so a report
    is reproducible on any machine).  ``workers=N`` runs the columnar side
    of the differential over N shared-memory processes; the honoured
    fingerprint is worker-count-independent, so the expected verdict is the
    same for every N.  An engine that takes no worker count refuses
    ``workers != 1``, as does an unknown engine name, through
    :func:`~repro.sim.engines.create_simulation`.
    """
    if "serial" not in engines:
        raise ValueError("the oracle always needs the serial reference run")
    others = [engine for engine in engines if engine != "serial"]
    if require_signature is not None and require_signature.startswith(
            "parity:columnar"):
        # Only the columnar run can produce this signature: it runs first,
        # and alone unless the full report is asked for.
        others = ["columnar"] + ([e for e in others if e != "columnar"]
                                 if full else [])
    report = OracleReport(spec=spec)
    serial = apply_scenario(spec, "serial")
    report.engines_run.append("serial")
    report.fingerprints["serial"] = serial.fingerprint
    report.reliability = serial.reliability
    report.failures.extend(_invariant_failures(serial))
    if (not full and require_signature is not None
            and require_signature.startswith("invariant:")
            and require_signature in report.signatures()):
        return report

    parity_of = {"sharded": _parity_failure,
                 "columnar": _columnar_parity_failure}
    for engine in others:
        outcome = apply_scenario(spec, engine, workers=workers)
        report.engines_run.append(engine)
        report.fingerprints[engine] = outcome.fingerprint
        # Violations are deduped against those already reported: the same
        # protocol bug observed twice is one finding.
        seen = set(report.signatures())
        report.failures.extend(failure for failure
                               in _invariant_failures(outcome)
                               if failure.signature not in seen)
        judge = parity_of.get(engine)
        parity = judge(serial, outcome) if judge is not None else None
        if parity is not None:
            report.failures.append(parity)
    return report
