"""Scenario specs: generation determinism, serialization, validation."""

import hashlib
import json

import pytest

from repro.core import LpbcastConfig
from repro.dst import (
    MIN_N,
    ScenarioSpec,
    check_scenario,
    generate_spec,
    restrict_plan,
    spec_seeds,
)
from repro.dst.shrink import _without_entry
from repro.faults import FaultPlan
from repro.sim.scenarios import PRESET_NAMES

#: SHA-256 of the serialized specs of ``spec_seeds(2026, 40)`` under the
#: plain, Byzantine and causal families and each of the five presets, each
#: followed by every single-entry-removed plan the shrinker tries.  Taken at
#: commit 77b54a9, before specs and plans derived their JSON shape from their
#: dataclasses; artifacts written before then must keep replaying.
SERIALIZATION_SHA256 = (
    "7d0a53daac563571d82287007e963d153b4020967f52f9af6ea8c91f7d904c28")


class TestGenerateSpec:
    def test_same_seed_same_spec(self):
        assert generate_spec(7) == generate_spec(7)

    def test_different_seeds_differ(self):
        specs = {generate_spec(seed).describe() for seed in range(10)}
        assert len(specs) > 1

    def test_generated_specs_validate(self):
        for seed in range(30):
            generate_spec(seed).validate()

    def test_bounds_respected(self):
        for seed in range(30):
            spec = generate_spec(seed, max_n=20, max_rounds=12)
            assert 8 <= spec.n <= 20
            assert 10 <= spec.rounds <= 12
            assert 1 <= spec.publishes <= spec.rounds

    def test_generator_explores_fault_plans(self):
        plans = [generate_spec(seed).plan.is_empty() for seed in range(30)]
        assert any(plans) and not all(plans)

    def test_mutation_passes_through(self):
        spec = generate_spec(1, mutation="double-delivery")
        assert spec.mutation == "double-delivery"

    def test_tiny_ranges_rejected(self):
        with pytest.raises(ValueError):
            generate_spec(0, max_n=4)
        with pytest.raises(ValueError):
            generate_spec(0, max_rounds=5)

    def test_spec_seeds_deterministic_and_distinct(self):
        seeds = spec_seeds(0, 10)
        assert seeds == spec_seeds(0, 10)
        assert len(set(seeds)) == 10


class TestLongStreamFamily:
    """One plain scenario in five publishes far more ids than
    ``event_ids_max`` into default-sized buffers."""

    SEEDS = range(60)

    def test_family_is_drawn_by_the_plain_generator(self):
        long = [generate_spec(seed) for seed in self.SEEDS]
        long = [spec for spec in long if spec.burst > 1]
        assert 5 <= len(long) <= 25               # about one in five
        defaults = LpbcastConfig()
        for spec in long:
            spec.validate()
            assert spec.event_ids_max == defaults.event_ids_max
            assert spec.events_max == defaults.events_max
            assert spec.publishes * spec.burst > 2 * spec.event_ids_max
            assert spec.publishes <= spec.rounds
            assert f"publishes={spec.publishes}x{spec.burst}" in spec.describe()
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_the_others_keep_the_spec_they_had(self):
        # The family is decided on a stream of its own: a scenario outside
        # it is what the generator drew before the family existed, pinned
        # here by one spec's fields.
        spec = generate_spec(2)
        assert (spec.burst, spec.n, spec.rounds, spec.publishes,
                spec.event_ids_max, spec.events_max) == (1, 9, 35, 8, 61, 23)

    def test_short_horizons_still_publish_a_long_stream(self):
        for seed in self.SEEDS:
            spec = generate_spec(seed, max_n=24, max_rounds=16)
            if spec.burst > 1:
                assert spec.publishes * spec.burst > 2 * spec.event_ids_max

    def test_burst_validated_counted_and_defaulted(self):
        with pytest.raises(ValueError, match="burst"):
            ScenarioSpec(seed=0, n=8, rounds=10, burst=0).validate()
        one = ScenarioSpec(seed=0, n=8, rounds=10)
        assert ScenarioSpec(seed=0, n=8, rounds=10, burst=4).size() \
            == one.size() + 3
        data = one.to_dict()
        del data["burst"]                   # an artifact written before
        assert ScenarioSpec.from_dict(data) == one

    def test_long_stream_delivers_each_id_once_on_every_round_engine(self):
        spec = next(spec for spec in map(generate_spec, self.SEEDS)
                    if spec.burst > 1 and spec.n <= 30)
        report = check_scenario(spec)
        assert report.ok, report.summary()
        assert report.fingerprints["serial"] == report.fingerprints["sharded"]


class TestByzantineFamily:
    def test_same_seed_same_spec(self):
        assert generate_spec(7, byzantine=True) == \
            generate_spec(7, byzantine=True)

    def test_byzantine_specs_pair_liars_with_double_echo(self):
        for seed in range(15):
            spec = generate_spec(seed, byzantine=True)
            spec.validate()
            assert spec.double_echo
            assert spec.plan.byzantine_pids(), spec.describe()
            assert "double-echo" in spec.describe()

    def test_byzantine_family_leaves_plain_seeds_untouched(self):
        # The adversarial family derives from its own rng streams, so
        # enabling it cannot shift what plain seeds generate.
        assert generate_spec(7) == generate_spec(7, byzantine=False)
        assert generate_spec(7, byzantine=True) != generate_spec(7)

    def test_double_echo_round_trips(self):
        for seed in range(5):
            spec = generate_spec(seed, byzantine=True)
            rebuilt = ScenarioSpec.from_json(spec.to_json())
            assert rebuilt == spec
            assert rebuilt.double_echo

    def test_double_echo_config_uses_majority_thresholds(self):
        spec = generate_spec(3, byzantine=True)
        cfg = spec.config()
        assert cfg.double_echo
        assert not cfg.digest_implies_delivery
        assert cfg.echo_threshold == spec.n // 2 + 1
        assert cfg.ready_threshold == spec.n // 2 + 1

    def test_double_echo_conflicts_with_retransmissions(self):
        spec = ScenarioSpec(seed=0, n=8, rounds=10, double_echo=True,
                            retransmissions=True)
        with pytest.raises(ValueError, match="retransmissions"):
            spec.validate()

    def test_byzantine_plan_targets_validated(self):
        plan = FaultPlan().equivocate(99, rate=0.5)
        with pytest.raises(ValueError, match="unknown pid"):
            ScenarioSpec(seed=0, n=8, rounds=10, plan=plan).validate()
        plan = FaultPlan().forge_digest(1, victim=99, rate=0.5)
        with pytest.raises(ValueError, match="unknown victim"):
            ScenarioSpec(seed=0, n=8, rounds=10, plan=plan).validate()


class TestCausalFamily:
    def test_same_seed_same_spec(self):
        assert generate_spec(7, causal=True) == generate_spec(7, causal=True)

    def test_causal_specs_enable_the_ordering_layer(self):
        for seed in range(15):
            spec = generate_spec(seed, causal=True)
            spec.validate()
            assert spec.causal
            assert not spec.double_echo
            assert spec.publishes >= 2, "concurrency needs >=2 publishers"
            assert "causal(holdback=" in spec.describe()
            cfg = spec.config()
            assert cfg.causal_delivery
            assert not cfg.digest_implies_delivery
            assert cfg.causal_holdback_max == spec.causal_holdback_max

    def test_causal_family_leaves_plain_seeds_untouched(self):
        assert generate_spec(7) == generate_spec(7, causal=False)
        assert generate_spec(7, causal=True) != generate_spec(7)
        assert generate_spec(7, causal=True) != \
            generate_spec(7, byzantine=True)

    def test_causal_spec_round_trips(self):
        for seed in range(5):
            spec = generate_spec(seed, causal=True)
            rebuilt = ScenarioSpec.from_json(spec.to_json())
            assert rebuilt == spec
            assert rebuilt.causal
            assert rebuilt.causal_holdback_max == spec.causal_holdback_max

    def test_family_explores_small_holdback_bounds(self):
        # The eviction path (and the holdback-bound invariant) only ever
        # fires when the bound is small; the family must sample such bounds.
        bounds = {generate_spec(seed, causal=True).causal_holdback_max
                  for seed in range(30)}
        assert any(bound <= 8 for bound in bounds)
        assert len(bounds) > 1

    def test_byzantine_and_causal_mutually_exclusive(self):
        with pytest.raises(ValueError, match="disjoint"):
            generate_spec(0, byzantine=True, causal=True)

    def test_causal_conflicts_with_double_echo(self):
        spec = ScenarioSpec(seed=0, n=8, rounds=10, causal=True,
                            double_echo=True)
        with pytest.raises(ValueError, match="mutually exclusive"):
            spec.validate()

    def test_holdback_bound_validated(self):
        spec = ScenarioSpec(seed=0, n=8, rounds=10, causal=True,
                            causal_holdback_max=0)
        with pytest.raises(ValueError, match="causal_holdback_max"):
            spec.validate()


class TestSerialization:
    def test_json_round_trip(self):
        for seed in range(10):
            spec = generate_spec(seed)
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_format_rejected(self):
        data = generate_spec(0).to_dict()
        data["format"] = "repro-dst-spec/999"
        with pytest.raises(ValueError, match="format"):
            ScenarioSpec.from_dict(data)

    def test_from_dict_validates(self):
        data = generate_spec(0).to_dict()
        data["n"] = 1
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict(data)

    def test_missing_key_named(self):
        data = generate_spec(0).to_dict()
        del data["n"]
        with pytest.raises(ValueError, match="required key.*\\bn\\b"):
            ScenarioSpec.from_dict(data)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            ScenarioSpec.from_dict([1, 2])

    def test_churn_round_trips_and_defaults_to_none(self):
        spec = generate_spec(4, preset="mass_departure")
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        data = generate_spec(4).to_dict()
        del data["joins"], data["leaves"]
        assert ScenarioSpec.from_dict(data) == generate_spec(4)

    def test_serialized_form_is_pinned(self):
        digest = hashlib.sha256()
        settings = ([{}, {"byzantine": True}, {"causal": True}]
                    + [{"preset": preset} for preset in PRESET_NAMES])
        for options in settings:
            for seed in spec_seeds(2026, 40):
                spec = generate_spec(seed, **options)
                digest.update(json.dumps(spec.to_dict(),
                                         sort_keys=True).encode())
                for index in range(spec.plan.fault_count()):
                    smaller = _without_entry(spec.plan, index)
                    digest.update(json.dumps(smaller.to_dict(),
                                             sort_keys=True).encode())
        assert digest.hexdigest() == SERIALIZATION_SHA256

    def test_unknown_key_named(self):
        data = generate_spec(0).to_dict()
        data["fan_out"] = 3
        with pytest.raises(ValueError, match="unknown spec key.*fan_out"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("n", "10"), ("rounds", None), ("loss_rate", "x"), ("fanout", 2.5),
        ("shards", True), ("retransmissions", 1), ("double_echo", None),
        ("mutation", 3), ("seed", 7.0), ("loss_rate", False),
    ])
    def test_value_of_the_wrong_type_named(self, key, value):
        data = generate_spec(0).to_dict()
        data[key] = value
        with pytest.raises(ValueError, match=f"spec key '{key}' must be"):
            ScenarioSpec.from_dict(data)

    def test_float_fields_accept_integers(self):
        data = generate_spec(0).to_dict()
        data["loss_rate"] = 0
        assert ScenarioSpec.from_dict(data).loss_rate == 0

    def test_malformed_plan_is_a_value_error(self):
        data = generate_spec(0).to_dict()
        data["plan"] = {"drops": 5}
        with pytest.raises(ValueError, match="'drops'"):
            ScenarioSpec.from_dict(data)


class TestValidation:
    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            ScenarioSpec(seed=0, n=MIN_N - 1, rounds=5).validate()
        with pytest.raises(ValueError):
            ScenarioSpec(seed=0, n=8, rounds=1).validate()

    def test_publishes_beyond_horizon(self):
        with pytest.raises(ValueError):
            ScenarioSpec(seed=0, n=8, rounds=5, publishes=6).validate()

    def test_plan_targets_must_exist(self):
        plan = FaultPlan().crash(99, at=2)
        with pytest.raises(ValueError, match="unknown pid"):
            ScenarioSpec(seed=0, n=8, rounds=5, plan=plan).validate()

    def test_churn_counts_validated(self):
        with pytest.raises(ValueError, match="joins"):
            ScenarioSpec(seed=0, n=8, rounds=5, joins=-1).validate()
        with pytest.raises(ValueError, match="leaves"):
            ScenarioSpec(seed=0, n=8, rounds=5, leaves=8).validate()

    def test_shrinking_n_keeps_leavers_below_n(self):
        spec = ScenarioSpec(seed=0, n=12, rounds=5, joins=20, leaves=11)
        smaller = spec.with_overrides(n=MIN_N)
        assert smaller.leaves == MIN_N - 1
        assert smaller.joins == 20

    def test_config_derivation_consistent(self):
        spec = ScenarioSpec(seed=0, n=8, rounds=5, retransmissions=True)
        cfg = spec.config()
        assert cfg.retransmissions and not cfg.digest_implies_delivery
        cfg = ScenarioSpec(seed=0, n=8, rounds=5).config()
        assert not cfg.retransmissions and cfg.digest_implies_delivery


class TestRestrictPlan:
    def test_drops_faults_targeting_removed_pids(self):
        plan = (FaultPlan().crash(2, at=1).crash(9, at=1)
                .pause(8, at=1, duration=2))
        restricted = restrict_plan(plan, 5)
        assert [c.pid for c in restricted.crashes] == [2]
        assert not restricted.pauses

    def test_partitions_intersected(self):
        plan = FaultPlan().partition((0, 1, 8), (2, 9), start=1, heal=4)
        restricted = restrict_plan(plan, 5)
        assert len(restricted.partitions) == 1
        assert restricted.partitions[0].side_a == (0, 1)
        assert restricted.partitions[0].side_b == (2,)

    def test_partition_dropped_when_side_empties(self):
        plan = FaultPlan().partition((0, 1), (8, 9), start=1, heal=4)
        assert restrict_plan(plan, 5).is_empty()

    def test_shrinking_n_applies_restriction(self):
        plan = FaultPlan().crash(9, at=1)
        spec = ScenarioSpec(seed=0, n=12, rounds=5, plan=plan)
        smaller = spec.with_overrides(n=6)
        assert smaller.plan.is_empty()
        smaller.validate()

    def test_byzantine_faults_restricted_with_their_targets(self):
        plan = (FaultPlan()
                .equivocate(2, rate=0.5)
                .equivocate(9, rate=0.5)
                .forge_digest(3, victim=8, rate=0.5)   # victim leaves range
                .replay_stale(4, rate=0.5)
                .poison_view(9, rate=0.5))
        restricted = restrict_plan(plan, 5)
        assert [f.pid for f in restricted.equivocations] == [2]
        assert not restricted.forges
        assert [f.pid for f in restricted.replays] == [4]
        assert not restricted.poisons
