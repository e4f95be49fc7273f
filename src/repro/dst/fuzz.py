"""Fuzz campaigns, repro artifacts, replay, and the fuzzer's self-test.

One campaign derives ``count`` scenario seeds from a root seed, runs the
oracle on each generated scenario, and — on failure — shrinks the scenario
and writes a JSON **repro artifact**.  The artifact embeds the minimised
spec, the failure signature, and the per-engine counter fingerprints of the
failing run, so ``repro fuzz --replay case.json`` on a fresh process can
assert the *same* failure reproduces *bit-identically* (fingerprints and
signature both match), not merely "something still fails".

``--self-test`` closes the loop on the fuzzer itself: for every registered
mutation (:mod:`repro.dst.mutations`) it plants the bug, asserts the
campaign finds it with the expected failure kind, shrinks it, and replays
the artifact in-process.  A fuzzer that cannot find a planted bug is
reported as the failure it is.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.rng import derive_seed
from .mutations import MUTATIONS
from .oracle import OracleReport, check_scenario
from .shrink import ShrinkResult, shrink_spec
from .spec import ScenarioSpec, generate_spec

#: Artifact schema tag; replay refuses artifacts from a different format.
ARTIFACT_FORMAT = "repro-dst-case/1"


@dataclass
class FuzzCase:
    """One failing scenario, shrunk and packaged."""

    case_seed: int
    original: ScenarioSpec
    shrunk: ShrinkResult
    report: OracleReport           # oracle verdict on the *shrunk* spec
    artifact_path: Optional[str] = None

    @property
    def signature(self) -> str:
        return self.shrunk.signature


@dataclass
class CampaignResult:
    """Outcome of one ``repro fuzz`` campaign."""

    root_seed: int
    count: int
    checked: int = 0
    cases: List[FuzzCase] = field(default_factory=list)
    #: ``(preset, reliability)`` of every checked scenario, in order.
    reliability: List[Tuple[Optional[str], Optional[float]]] = field(
        default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.cases

    def summary(self) -> str:
        verdict = ("all scenarios passed" if self.ok
                   else f"{len(self.cases)} failing scenario(s)")
        measured = [r for _, r in self.reliability if r is not None]
        return (f"fuzz campaign: seed={self.root_seed}, "
                f"{self.checked}/{self.count} scenario(s) checked, "
                + (f"mean reliability {sum(measured) / len(measured):.4f}, "
                   if measured else "")
                + verdict)


def build_artifact(case: FuzzCase) -> dict:
    """The JSON document a failing case persists."""
    return {
        "format": ARTIFACT_FORMAT,
        "case_seed": case.case_seed,
        "spec": case.shrunk.spec.to_dict(),
        "original_spec": case.original.to_dict(),
        "failure": {
            "signature": case.signature,
            "details": [f.detail for f in case.report.failures
                        if f.signature == case.signature],
        },
        "fingerprints": dict(case.report.fingerprints),
        "shrink": {
            "attempts": case.shrunk.attempts,
            "accepted": case.shrunk.accepted,
            "reduction": case.shrunk.reduction(),
        },
    }


def write_artifact(case: FuzzCase, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"dst-case-{case.case_seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(build_artifact(case), fh, indent=2, sort_keys=True)
        fh.write("\n")
    case.artifact_path = path
    return path


def load_artifact(path: str) -> dict:
    """Read an artifact; a malformed one (it is outside input) raises
    ``ValueError`` naming what is wrong."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"artifact must be a JSON object, got "
                         f"{type(data).__name__}")
    fmt = data.get("format")
    if fmt != ARTIFACT_FORMAT:
        raise ValueError(f"unsupported artifact format {fmt!r} "
                         f"(this build reads {ARTIFACT_FORMAT})")
    for key, holder in (("spec", data), ("failure", data),
                        ("signature", data.get("failure", {}))):
        if key not in holder:
            raise ValueError(f"artifact lacks required key {key!r}")
    return data


@dataclass
class ReplayResult:
    """Verdict of re-executing a repro artifact."""

    spec: ScenarioSpec
    expected_signature: str
    report: OracleReport
    signature_reproduced: bool
    fingerprints_match: bool
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The artifact replayed bit-identically: same failure, same
        per-engine counter fingerprints."""
        return self.signature_reproduced and self.fingerprints_match


def replay_artifact(data: dict) -> ReplayResult:
    """Re-run an artifact's spec and hold it to the recorded outcome.

    The engines to re-run are read off the artifact's recorded
    fingerprints, so a columnar-differential case replays the columnar
    engine (and a plain serial/sharded case never pays for it).
    """
    spec = ScenarioSpec.from_dict(data["spec"])
    expected_signature = data["failure"]["signature"]
    expected_fingerprints = data.get("fingerprints", {})
    engines = tuple(e for e in ("serial", "sharded", "columnar")
                    if e in expected_fingerprints) or ("serial", "sharded")
    report = check_scenario(spec, full=True, engines=engines)
    mismatches: List[str] = []
    reproduced = expected_signature in report.signatures()
    if not reproduced:
        mismatches.append(
            f"expected failure {expected_signature!r}, observed "
            f"{report.signatures() or 'no failures'}")
    fingerprints_match = True
    for engine, expected in sorted(expected_fingerprints.items()):
        observed = report.fingerprints.get(engine)
        if observed != expected:
            fingerprints_match = False
            mismatches.append(
                f"{engine} fingerprint {observed} != recorded {expected}")
    return ReplayResult(
        spec=spec,
        expected_signature=expected_signature,
        report=report,
        signature_reproduced=reproduced,
        fingerprints_match=fingerprints_match,
        mismatches=mismatches,
    )


def run_campaign(
    root_seed: int,
    count: int,
    *,
    max_n: int = 60,
    max_rounds: int = 40,
    mutation: Optional[str] = None,
    byzantine: bool = False,
    causal: bool = False,
    shrink: bool = True,
    max_shrink_attempts: int = 150,
    artifact_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
    stop_after: Optional[int] = None,
    engines: tuple = ("serial", "sharded"),
    workers: int = 1,
    presets: Sequence[str] = (),
) -> CampaignResult:
    """Run one fuzz campaign.

    Scenario ``i`` uses seed ``derive_seed(root_seed, "dst-case", i)``, so
    any failing case replays in isolation from its own seed, and preset
    ``presets[i % len(presets)]`` if any (see :func:`generate_spec`).
    ``stop_after`` ends the campaign early once that many failures were
    found (the self-test uses 1 — it only needs proof of detection).
    ``byzantine`` draws every scenario from the adversarial family
    (double-echo systems with liars in the plan) instead of the plain one;
    ``causal`` draws from the ordering family (causal-delivery systems under
    reordering conditions).  ``engines`` picks the oracle's differential
    pairs (e.g. ``("serial", "columnar")`` for the honoured-subset
    campaign); the columnar engine rejects Byzantine plans, so the two
    options are mutually exclusive.  ``workers`` runs the columnar side of
    the differential over that many shared-memory processes — an explicit
    choice, never derived from the host's cores, so campaigns are
    machine-independent; it requires ``"columnar"`` in ``engines`` (the
    oracle rejects it otherwise).
    """
    if byzantine and "columnar" in engines:
        raise ValueError(
            "the columnar engine does not support Byzantine fault plans; "
            "run the byzantine family on the serial/sharded pair")
    if causal and "columnar" in engines:
        raise ValueError(
            "the columnar engine does not support causal-delivery "
            "configurations; run the causal family on the serial/sharded "
            "pair")
    say = progress if progress is not None else (lambda line: None)
    result = CampaignResult(root_seed=root_seed, count=count)
    for index in range(count):
        case_seed = derive_seed(root_seed, "dst-case", index)
        preset = presets[index % len(presets)] if presets else None
        spec = generate_spec(case_seed, max_n=max_n, max_rounds=max_rounds,
                             mutation=mutation, byzantine=byzantine,
                             causal=causal, preset=preset)
        report = check_scenario(spec, engines=engines, workers=workers)
        result.checked += 1
        result.reliability.append((preset, report.reliability))
        line = (f"[{index + 1}/{count}] {'OK  ' if report.ok else 'FAIL'}  "
                + (f"{preset} " if preset else "")
                + (f"reliability={report.reliability:.4f} "
                   if report.reliability is not None else "")
                + spec.describe())
        say(line)
        if report.ok:
            continue
        signature = report.signatures()[0]
        say(f"    {report.failures[0]}")
        if shrink:
            shrunk = shrink_spec(spec, signature,
                                 max_attempts=max_shrink_attempts)
            say(f"    shrunk: {shrunk.reduction()}")
        else:
            shrunk = ShrinkResult(spec=spec, original=spec,
                                  signature=signature, attempts=0, accepted=0)
        # Re-run the oracle on the minimum with every engine and no fast
        # path, so the artifact records complete fingerprints and *all*
        # co-occurring failure signatures even when shrinking
        # short-circuited on the first one.
        final_report = check_scenario(shrunk.spec, full=True, engines=engines,
                                      workers=workers)
        case = FuzzCase(case_seed=case_seed, original=spec, shrunk=shrunk,
                        report=final_report)
        if artifact_dir is not None:
            path = write_artifact(case, artifact_dir)
            say(f"    artifact: {path}")
        result.cases.append(case)
        if stop_after is not None and len(result.cases) >= stop_after:
            break
    return result


# -- self-test ---------------------------------------------------------------

@dataclass
class SelfTestOutcome:
    """The fuzzer's verdict on its own ability to catch one planted bug."""

    mutation: str
    expected_kind: str
    detected: bool
    kind_matched: bool
    shrunk_ok: bool
    replay_ok: bool
    detail: str

    @property
    def ok(self) -> bool:
        return (self.detected and self.kind_matched
                and self.shrunk_ok and self.replay_ok)


def run_self_test(
    root_seed: int = 0,
    *,
    artifact_dir: Optional[str] = None,
    scenarios_per_mutation: int = 4,
    progress: Optional[Callable[[str], None]] = None,
) -> List[SelfTestOutcome]:
    """Plant every registered bug; assert the pipeline catches each.

    For each mutation: run a small campaign with the bug planted, require a
    failure of the expected kind, require the shrinker to have produced a
    (weakly) smaller spec, write the artifact, and replay it in-process
    requiring bit-identical reproduction.  The CLI exposes this as
    ``repro fuzz --self-test``; CI runs it on every push.
    """
    say = progress if progress is not None else (lambda line: None)
    outcomes: List[SelfTestOutcome] = []
    for name, mutation in sorted(MUTATIONS.items()):
        say(f"-- planting {name!r}: {mutation.description}")
        campaign = run_campaign(
            derive_seed(root_seed, "dst-self-test", name),
            scenarios_per_mutation,
            max_n=24,
            max_rounds=16,
            mutation=name,
            shrink=True,
            max_shrink_attempts=60,
            artifact_dir=artifact_dir,
            progress=progress,
            stop_after=1,
            engines=mutation.engines,
            byzantine=mutation.family == "byzantine",
            causal=mutation.family == "causal",
        )
        if not campaign.cases:
            outcomes.append(SelfTestOutcome(
                mutation=name, expected_kind=mutation.expected_kind,
                detected=False, kind_matched=False, shrunk_ok=False,
                replay_ok=False,
                detail=f"planted bug survived {campaign.checked} scenario(s) "
                       f"undetected",
            ))
            continue
        case = campaign.cases[0]
        kind = case.signature.split(":", 1)[0]
        kind_matched = kind == mutation.expected_kind
        shrunk_ok = case.shrunk.spec.size() <= case.original.size()
        replay = replay_artifact(build_artifact(case))
        detail = (f"signature={case.signature} "
                  f"shrink=({case.shrunk.reduction()}) "
                  f"replay={'ok' if replay.ok else replay.mismatches}")
        outcomes.append(SelfTestOutcome(
            mutation=name, expected_kind=mutation.expected_kind,
            detected=True, kind_matched=kind_matched, shrunk_ok=shrunk_ok,
            replay_ok=replay.ok, detail=detail,
        ))
        say(f"   {detail}")
    return outcomes


def format_self_test_report(outcomes: List[SelfTestOutcome]) -> str:
    lines = []
    for outcome in outcomes:
        verdict = "CAUGHT" if outcome.ok else "MISSED"
        lines.append(f"{verdict}  {outcome.mutation:<22} "
                     f"(expected {outcome.expected_kind}) {outcome.detail}")
    caught = sum(1 for o in outcomes if o.ok)
    lines.append(f"-- self-test: {caught}/{len(outcomes)} planted bug(s) "
                 f"caught, shrunk and replayed bit-identically")
    return "\n".join(lines)
