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
    ``"serial"``; add ``"sharded"`` for full-record parity and/or
    ``"columnar"`` for honoured-subset parity.  A ``parity:columnar:*``
    ``require_signature`` pulls the columnar engine in implicitly, so the
    shrinker needs no engine plumbing.

    ``workers`` is the columnar engine's worker-process count — always an
    explicit caller choice (never inferred from the host's core count, so
    a report is reproducible on any machine).  ``workers=N`` runs the
    columnar side of the differential over N shared-memory processes; the
    honoured fingerprint is worker-count-independent, so the expected
    verdict is the same for every N.  Setting ``workers != 1`` without a
    columnar run to apply it to is rejected, matching the
    ``create_simulation`` kwargs contract.
    """
    engines = tuple(engines)
    if "serial" not in engines:
        raise ValueError("the oracle always needs the serial reference run")
    unknown = set(engines) - {"serial", "sharded", "columnar"}
    if unknown:
        raise ValueError(f"unknown oracle engine(s): {sorted(unknown)}; "
                         f"workers= tunes the columnar engine and shards= "
                         f"the sharded engine, neither is an engine name")
    wants_columnar_sig = (require_signature is not None
                          and require_signature.startswith("parity:columnar"))
    if workers != 1 and not ("columnar" in engines or wants_columnar_sig):
        raise ValueError(
            f"workers={workers} applies to the 'columnar' engine only, "
            f"which is not part of this oracle run (engines={engines}); "
            f"add 'columnar' to engines= or drop workers=")
    report = OracleReport(spec=spec)
    serial = apply_scenario(spec, "serial")
    report.engines_run.append("serial")
    report.fingerprints["serial"] = serial.fingerprint
    report.failures.extend(_invariant_failures(serial))
    if (not full and require_signature is not None
            and require_signature.startswith("invariant:")
            and require_signature in report.signatures()):
        return report

    if "columnar" in engines or wants_columnar_sig:
        columnar = apply_scenario(spec, "columnar", workers=workers)
        report.engines_run.append("columnar")
        report.fingerprints["columnar"] = columnar.fingerprint
        parity = _columnar_parity_failure(serial, columnar)
        if parity is not None:
            report.failures.append(parity)
        if not full and wants_columnar_sig:
            # The caller only asked about this columnar signature; the
            # sharded run cannot produce it, so skip it either way.
            return report

    if "sharded" in engines:
        sharded = apply_scenario(spec, "sharded")
        report.engines_run.append("sharded")
        report.fingerprints["sharded"] = sharded.fingerprint
        # Sharded delivery-path violations are deduped against the serial
        # ones: the same protocol bug observed twice is one finding.
        serial_signatures = set(report.signatures())
        for failure in _invariant_failures(sharded):
            if failure.signature not in serial_signatures:
                report.failures.append(failure)
        parity = _parity_failure(serial, sharded)
        if parity is not None:
            report.failures.append(parity)
    return report
