"""Scenario presets as spec data: generation, churn, campaigns."""

from dataclasses import replace

import pytest

from repro.dst import (
    MIN_N,
    ScenarioSpec,
    apply_scenario,
    check_scenario,
    generate_spec,
    run_campaign,
    spec_seeds,
)
from repro.sim.scenarios import PRESET_NAMES, preset_shape

FAMILIES = {"plain": {}, "byzantine": {"byzantine": True},
            "causal": {"causal": True}}


class TestPresetSpecs:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_a_preset_changes_only_its_shape_fields(self, family):
        for seed in spec_seeds(2026, 5):
            drawn = generate_spec(seed, **FAMILIES[family])
            assert drawn.joins == drawn.leaves == 0
            for preset in PRESET_NAMES:
                shaped = generate_spec(seed, preset=preset,
                                       **FAMILIES[family])
                assert replace(shaped, loss_rate=drawn.loss_rate,
                               plan=drawn.plan, joins=0, leaves=0) == drawn

    def test_shapes_scale_with_n(self):
        spec = generate_spec(11, preset="flash_crowd")
        assert spec.joins == spec.n // 3 and spec.leaves == 0
        spec = generate_spec(11, preset="mass_departure")
        assert spec.leaves == spec.n // 3 and spec.joins == 0
        assert generate_spec(11, preset="flaky_wan").loss_rate == 0.3

    def test_preset_crashes_join_the_plan_once_each(self):
        overlaps = 0
        for seed in spec_seeds(7, 20):
            plain = generate_spec(seed)
            spec = generate_spec(seed, preset="correlated_crashes")
            shape = preset_shape("correlated_crashes", spec.n, seed)
            crashed = [fault.pid for fault in spec.plan.crashes]
            assert len(crashed) == len(set(crashed))
            assert {pid for _, pid in shape.crashes} <= set(crashed)
            victims = {pid for _, pid in shape.crashes}
            already = {fault.pid for fault in plain.plan.crashes}
            assert spec.plan.fault_count() == \
                plain.plan.fault_count() + len(victims - already)
            overlaps += bool(victims & already)
        assert overlaps  # the skip path ran

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_shrunk_to_min_n_still_runs(self, preset, family):
        spec = generate_spec(3, max_n=16, max_rounds=12, preset=preset,
                             **FAMILIES[family]).with_overrides(n=MIN_N)
        assert spec.leaves < MIN_N
        report = check_scenario(spec, full=True)
        assert report.ok, report.summary()
        assert report.engines_run == ["serial", "sharded"]
        assert report.fingerprints["serial"] == report.fingerprints["sharded"]

    def test_publish_draw_skips_scheduled_leavers(self):
        # Every process but 11 leaves in round 2, yet publishing continues.
        spec = ScenarioSpec(seed=1, n=12, rounds=10, publishes=8, leaves=11)
        report = check_scenario(spec)
        assert report.ok, report.summary()
        assert report.reliability is not None

    @pytest.mark.parametrize("engine", ["columnar", "async"])
    def test_churn_refused_where_membership_is_fixed(self, engine):
        spec = generate_spec(3, preset="flash_crowd")
        with pytest.raises(ValueError, match="joins or leaves"):
            apply_scenario(spec, engine)


class TestPresetCampaign:
    def test_campaign_cycles_presets_with_derived_seeds(self):
        result = run_campaign(4, 5, max_n=25, max_rounds=20,
                              presets=PRESET_NAMES)
        assert [preset for preset, _ in result.reliability] == \
            list(PRESET_NAMES)
        assert result.ok, [case.signature for case in result.cases]
        assert all(r is not None for _, r in result.reliability)
        assert "mean reliability" in result.summary()

    def test_preset_filter_respected(self):
        result = run_campaign(4, 3, max_n=20, max_rounds=15,
                              presets=["flash_crowd"])
        assert [preset for preset, _ in result.reliability] == \
            ["flash_crowd"] * 3

    def test_columnar_runs_crash_presets(self):
        result = run_campaign(4, 2, max_n=20, max_rounds=15,
                              engines=("serial", "columnar"),
                              presets=["correlated_crashes", "flaky_wan"])
        assert result.ok, [case.signature for case in result.cases]
