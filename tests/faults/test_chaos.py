"""Scenario presets under random fault plans, as DST specs.

A preset is spec data (``generate_spec(..., preset=...)``): the oracle
judges it on the serial and sharded engines and reports reliability beside
the invariant verdict; a failure is shrunk, written and replayed like any
other fuzz case.
"""

import pytest

from repro.dst import (
    RunOutcome,
    apply_scenario,
    check_scenario,
    generate_spec,
    load_artifact,
    replay_artifact,
    run_campaign,
)
from repro.dst.oracle import _invariant_failures
from repro.faults import FaultPlan, Violation
from repro.sim.rng import derive_rng
from repro.sim.scenarios import PRESET_NAMES

BYZANTINE_STRIKES = ("faults.equivocated", "faults.forged",
                     "faults.replayed", "faults.poisoned")


class TestScenarioRuns:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            generate_spec(3, preset="thundering_herd")

    def test_single_run_reports_everything(self):
        spec = generate_spec(3, max_n=24, max_rounds=30,
                             preset="steady_state")
        assert spec.loss_rate == 0.05
        report = check_scenario(spec)
        assert report.ok, report.summary()
        assert set(report.fingerprints) == {"serial", "sharded"}
        assert report.fingerprints["serial"] == report.fingerprints["sharded"]
        assert report.reliability is not None
        assert 0.0 <= report.reliability <= 1.0

    def test_same_seed_replays_identically(self):
        a = generate_spec(9, max_n=24, max_rounds=30, preset="flaky_wan")
        b = generate_spec(9, max_n=24, max_rounds=30, preset="flaky_wan")
        assert a == b
        first, second = apply_scenario(a), apply_scenario(b)
        assert first.fingerprint == second.fingerprint
        assert first.reliability == second.reliability
        assert first.deliveries == second.deliveries

    def test_two_hundred_round_soak_holds_all_invariants(self):
        """Acceptance: a 200-round preset spec passes the oracle."""
        plan = FaultPlan.random(list(range(30)), horizon=200,
                                rng=derive_rng(0, "soak-plan"))
        spec = generate_spec(0, preset="steady_state").with_overrides(
            n=30, rounds=200, publishes=5, burst=1, plan=plan)
        report = check_scenario(spec)
        assert spec.rounds == 200
        assert report.ok, report.summary()


class TestByzantineSoak:
    def test_byzantine_knobs_build_double_echo_systems_with_liars(self):
        spec = generate_spec(5, byzantine=True, preset="flaky_wan")
        assert spec.double_echo
        assert spec.plan.byzantine_pids()
        assert spec.loss_rate == 0.3
        outcome = apply_scenario(spec)
        struck = sum(value for name, _, value in outcome.records
                     if name in BYZANTINE_STRIKES)
        assert struck > 0

    def test_byzantine_soak_meets_the_agreement_slo(self):
        """A defended (double-echo) preset campaign under liars passes the
        oracle, whose invariants include agreement."""
        result = run_campaign(5, 3, max_n=16, max_rounds=16, byzantine=True,
                              presets=["steady_state", "flaky_wan"])
        assert result.ok, [case.signature for case in result.cases]

    def test_agreement_violations_filters_by_invariant(self):
        agree = Violation("agreement", 4, 6, 13, "conflict")
        other = Violation("buffer-bounds", 2, 3, 13, "overflow")
        outcome = RunOutcome(engine="serial", spec=generate_spec(13),
                             fingerprint="", records=[],
                             violations=[agree, other, agree])
        failures = _invariant_failures(outcome)
        assert [f.signature for f in failures] == [
            "invariant:agreement", "invariant:buffer-bounds"]
        assert failures[0].detail.startswith("2 violation(s)")


class TestReporting:
    def test_report_has_one_line_per_run_and_a_verdict(self):
        lines = []
        result = run_campaign(6, 2, max_n=20, max_rounds=15,
                              presets=PRESET_NAMES, progress=lines.append)
        assert len(lines) == 2
        assert lines[0].startswith("[1/2] OK    steady_state reliability=")
        assert lines[1].startswith("[2/2] OK    flash_crowd reliability=")
        summary = result.summary()
        assert "2/2 scenario(s) checked" in summary
        assert "mean reliability" in summary
        assert summary.endswith("all scenarios passed")

    def test_report_surfaces_failures_with_replay_hints(self, tmp_path):
        lines = []
        result = run_campaign(1, 3, max_n=16, max_rounds=12,
                              mutation="double-delivery", shrink=False,
                              presets=["flash_crowd"], stop_after=1,
                              artifact_dir=str(tmp_path),
                              progress=lines.append)
        assert not result.ok
        assert lines[0].startswith("[1/3] FAIL  flash_crowd ")
        assert any(line.strip().startswith("artifact: ") for line in lines)
        data = load_artifact(result.cases[0].artifact_path)
        assert data["spec"]["joins"] > 0
        assert replay_artifact(data).ok
