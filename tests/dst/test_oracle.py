"""The DST oracle: clean scenarios pass, planted bugs are detected."""

import pytest

from repro.dst import (
    MUTATIONS,
    ScenarioSpec,
    apply_scenario,
    check_scenario,
    generate_spec,
)

CLEAN = ScenarioSpec(seed=5, n=10, rounds=8, publishes=3)


class TestApplyScenario:
    def test_serial_run_is_deterministic(self):
        a = apply_scenario(CLEAN, "serial")
        b = apply_scenario(CLEAN, "serial")
        assert a.fingerprint == b.fingerprint
        assert a.deliveries == b.deliveries > 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            apply_scenario(CLEAN, "quantum")

    def test_async_engine_runs_the_same_spec(self):
        outcome = apply_scenario(CLEAN, "async")
        assert outcome.engine == "async"
        assert outcome.deliveries > 0
        assert not outcome.violations


class TestCheckScenario:
    def test_clean_scenario_passes_both_engines(self):
        report = check_scenario(CLEAN)
        assert report.ok
        assert report.engines_run == ["serial", "sharded"]
        assert report.fingerprints["serial"] == report.fingerprints["sharded"]

    def test_generated_scenarios_pass(self):
        for seed in range(3):
            spec = generate_spec(seed, max_n=16, max_rounds=12)
            report = check_scenario(spec)
            assert report.ok, report.summary()

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_planted_bugs_detected_with_expected_kind(self, name):
        mutation = MUTATIONS[name]
        for seed in range(4):
            # Family-specific mutations only fire on their own scenario
            # family (dropped-dependency needs causal_delivery on).
            spec = generate_spec(seed, max_n=16, max_rounds=12,
                                 mutation=name,
                                 causal=mutation.family == "causal")
            report = check_scenario(spec, engines=mutation.engines)
            if not report.ok:
                kinds = {f.kind for f in report.failures}
                assert mutation.expected_kind in kinds, report.summary()
                return
        pytest.fail(f"mutation {name!r} went undetected across 4 scenarios")

    def test_invariant_fast_path_skips_sharded_run(self):
        spec = ScenarioSpec(seed=5, n=10, rounds=8, publishes=3,
                            mutation="double-delivery")
        full = check_scenario(spec)
        assert "invariant:no-duplicate-delivery" in full.signatures()
        fast = check_scenario(
            spec, require_signature="invariant:no-duplicate-delivery")
        assert fast.engines_run == ["serial"]
        assert "invariant:no-duplicate-delivery" in fast.signatures()

    def test_serial_reference_engine_is_mandatory(self):
        with pytest.raises(ValueError, match="serial reference"):
            check_scenario(CLEAN, engines=("sharded",))
        with pytest.raises(ValueError, match="unknown engine"):
            check_scenario(CLEAN, engines=("serial", "quantum"))


class TestColumnarOracle:
    def test_clean_scenario_passes_columnar_pair(self):
        report = check_scenario(CLEAN, engines=("serial", "columnar"))
        assert report.ok
        assert report.engines_run == ["serial", "columnar"]
        assert "columnar" in report.fingerprints

    def test_columnar_fingerprint_is_deterministic(self):
        a = check_scenario(CLEAN, engines=("serial", "columnar"))
        b = check_scenario(CLEAN, engines=("serial", "columnar"))
        assert a.fingerprints["columnar"] == b.fingerprints["columnar"]

    def test_columnar_undercount_flagged_on_honoured_subset(self):
        spec = ScenarioSpec(seed=5, n=10, rounds=8, publishes=3,
                            mutation="columnar-undercount")
        report = check_scenario(spec, engines=("serial", "columnar"))
        assert "parity:columnar:sim.sends" in report.signatures()

    def test_columnar_signature_pulls_engine_in_implicitly(self):
        # The shrinker passes only require_signature; a parity:columnar:*
        # signature must run the columnar engine without engine plumbing,
        # and must skip the sharded run entirely (it cannot produce it).
        spec = ScenarioSpec(seed=5, n=10, rounds=8, publishes=3,
                            mutation="columnar-undercount")
        report = check_scenario(
            spec, require_signature="parity:columnar:sim.sends")
        assert report.engines_run == ["serial", "columnar"]
        assert "parity:columnar:sim.sends" in report.signatures()


class TestFullReport:
    def test_double_defect_reports_both_signatures(self):
        # One scenario carrying an invariant break AND a parity break: the
        # default fast path may stop at the first, but full=True must list
        # both detector families' signatures.
        spec = ScenarioSpec(seed=5, n=10, rounds=8, publishes=3,
                            mutation="double-defect")
        report = check_scenario(spec, full=True)
        signatures = report.signatures()
        assert "invariant:no-duplicate-delivery" in signatures
        assert any(s.startswith("parity:") for s in signatures), signatures

    def test_full_disables_invariant_fast_path(self):
        spec = ScenarioSpec(seed=5, n=10, rounds=8, publishes=3,
                            mutation="double-defect")
        fast = check_scenario(
            spec, require_signature="invariant:no-duplicate-delivery")
        assert fast.engines_run == ["serial"]
        full = check_scenario(
            spec, require_signature="invariant:no-duplicate-delivery",
            full=True)
        assert full.engines_run == ["serial", "sharded"]
        assert len(full.signatures()) > len(fast.signatures())
