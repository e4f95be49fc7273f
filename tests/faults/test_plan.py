"""FaultPlan construction, validation and random composition."""

import inspect
import random
from dataclasses import fields

import pytest

from repro.faults import (
    POISON_BASE,
    CrashFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    EquivocateFault,
    FaultPlan,
    ForgeDigestFault,
    PartitionFault,
    PauseFault,
    PlanCodecError,
    PoisonViewFault,
    ReplayStaleFault,
)
from repro.faults.plan import _KINDS


class TestValidation:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            DropFault(rate=0.1, start=5, stop=5)

    def test_window_before_round_one_rejected(self):
        with pytest.raises(ValueError):
            DuplicateFault(rate=0.1, start=0)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            DropFault(rate=0.0)
        with pytest.raises(ValueError):
            DropFault(rate=1.5)
        DropFault(rate=1.0)  # inclusive upper bound is legal

    def test_delay_must_hold_at_least_one_round(self):
        with pytest.raises(ValueError):
            DelayFault(rate=0.1, delay=0)

    def test_partition_sides_disjoint_and_nonempty(self):
        with pytest.raises(ValueError):
            PartitionFault((1, 2), (2, 3), start=1, heal=5)
        with pytest.raises(ValueError):
            PartitionFault((), (1,), start=1, heal=5)

    def test_partition_direction_checked(self):
        with pytest.raises(ValueError):
            PartitionFault((1,), (2,), start=1, heal=5, direction="sideways")

    def test_recover_must_follow_crash(self):
        with pytest.raises(ValueError):
            CrashFault(pid=1, at=5, recover_at=5)

    def test_cannot_rejoin_through_self(self):
        with pytest.raises(ValueError):
            CrashFault(pid=1, at=2, contact=1)

    def test_pause_duration_positive(self):
        with pytest.raises(ValueError):
            PauseFault(pid=1, at=2, duration=0)

    def test_double_crash_of_same_pid_rejected(self):
        plan = FaultPlan().crash(1, at=2)
        with pytest.raises(ValueError):
            plan.crash(1, at=5)


class TestSemantics:
    def test_drop_scoping(self):
        anywhere = DropFault(rate=0.5)
        link = DropFault(rate=0.5, src=1, dst=2)
        assert anywhere.matches(7, 8)
        assert link.matches(1, 2)
        assert not link.matches(2, 1)
        assert not link.matches(1, 3)

    def test_partition_blocks_by_direction(self):
        sym = PartitionFault((1, 2), (3, 4), start=1, heal=9)
        assert sym.blocks(1, 3) and sym.blocks(3, 1)
        assert not sym.blocks(1, 2) and not sym.blocks(3, 4)
        a2b = PartitionFault((1, 2), (3, 4), start=1, heal=9,
                             direction="a-to-b")
        assert a2b.blocks(1, 3)
        assert not a2b.blocks(3, 1)  # asymmetric: B still reaches A
        assert not a2b.blocks(5, 6)  # outsiders unaffected

    def test_builders_chain_and_count(self):
        plan = (FaultPlan()
                .drop(0.1).duplicate(0.1).delay(0.1, delay=2)
                .partition([1], [2], start=2, heal=4)
                .crash(3, at=2, recover_at=6)
                .pause(4, at=3, duration=2))
        assert plan.fault_count() == 6
        assert not plan.is_empty()
        assert FaultPlan().is_empty()

    def test_describe_mentions_every_fault(self):
        plan = (FaultPlan().drop(0.25, src=1, dst=2)
                .partition([1], [2], start=2, heal=4, direction="b-to-a")
                .crash(3, at=2, recover_at=6).pause(4, at=3, duration=2))
        text = plan.describe()
        assert "drop 25%" in text and "1->2" in text
        assert "partition" in text and "b-to-a" in text
        assert "crash p3@2->recover@6" in text
        assert "pause p4@[3,5)" in text
        assert FaultPlan().describe() == "no faults"


class TestByzantineValidation:
    def test_equivocation_needs_two_variants(self):
        with pytest.raises(ValueError):
            EquivocateFault(pid=1, rate=0.5, variants=1)
        EquivocateFault(pid=1, rate=0.5, variants=2)

    def test_forge_victim_must_differ(self):
        with pytest.raises(ValueError):
            ForgeDigestFault(pid=1, victim=1, rate=0.5)

    def test_replay_lag_positive(self):
        with pytest.raises(ValueError):
            ReplayStaleFault(pid=1, rate=0.5, lag=0)

    def test_poison_count_bounds(self):
        with pytest.raises(ValueError):
            PoisonViewFault(pid=1, rate=0.5, count=0)
        with pytest.raises(ValueError):
            PoisonViewFault(pid=1, rate=0.5, count=101)

    def test_byzantine_windows_and_rates_validated(self):
        with pytest.raises(ValueError):
            EquivocateFault(pid=1, rate=0.5, start=5, stop=5)
        with pytest.raises(ValueError):
            PoisonViewFault(pid=1, rate=1.5)

    def test_fabricated_pids_live_above_poison_base(self):
        fault = PoisonViewFault(pid=7, rate=0.5, count=3)
        assert fault.fabricated == (POISON_BASE + 700, POISON_BASE + 701,
                                    POISON_BASE + 702)

    def test_byzantine_pids_union_all_lying_kinds(self):
        plan = (FaultPlan()
                .equivocate(1, rate=0.5)
                .forge_digest(2, victim=9, rate=0.5)
                .replay_stale(3, rate=0.5)
                .poison_view(4, rate=0.5, count=2))
        assert plan.byzantine_pids() == frozenset({1, 2, 3, 4})
        assert plan.poisoned_pids() == frozenset(
            {POISON_BASE + 400, POISON_BASE + 401})

    def test_describe_mentions_byzantine_faults(self):
        plan = (FaultPlan()
                .equivocate(1, rate=0.8, variants=3, start=2, stop=9)
                .forge_digest(2, victim=9, rate=0.5)
                .replay_stale(3, rate=0.5, lag=2)
                .poison_view(4, rate=0.5, count=2))
        text = plan.describe()
        assert "equivocate p1 80%x3" in text
        assert "forge p2->v9" in text
        assert "replay p3+2" in text
        assert "poison p4x2" in text


def _full_plan() -> FaultPlan:
    """One of every builder — the serialization round-trip fixture."""
    return (FaultPlan()
            .drop(0.1, start=2, stop=20, src=1, dst=2)
            .duplicate(0.05, start=1, stop=15)
            .delay(0.04, delay=2, start=3, stop=12)
            .partition([1, 2], [3, 4], start=5, heal=9, direction="a-to-b")
            .crash(5, at=4, recover_at=11, contact=6)
            .pause(7, at=6, duration=3)
            .equivocate(8, rate=0.7, start=2, stop=10, variants=3)
            .forge_digest(9, victim=1, rate=0.5, start=3, stop=8)
            .replay_stale(10, rate=0.4, lag=2, start=1, stop=9)
            .poison_view(11, rate=0.6, count=2, start=2, stop=7))


class TestSerialization:
    def test_round_trip_covers_every_builder(self):
        plan = _full_plan()
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt.to_dict() == plan.to_dict()
        assert rebuilt.describe() == plan.describe()
        assert rebuilt.fault_count() == plan.fault_count() == 10

    def test_round_trip_survives_json(self):
        import json

        plan = _full_plan()
        rebuilt = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt.to_dict() == plan.to_dict()

    def test_empty_plan_round_trips(self):
        assert FaultPlan.from_dict(FaultPlan().to_dict()).is_empty()

    def test_unknown_fault_kind_rejected(self):
        data = _full_plan().to_dict()
        data["time-travel"] = [[1, 2, 3]]
        with pytest.raises(PlanCodecError, match="time-travel"):
            FaultPlan.from_dict(data)

    def test_non_dict_rejected(self):
        with pytest.raises(PlanCodecError, match="dict"):
            FaultPlan.from_dict([1, 2, 3])

    def test_from_dict_revalidates_windows(self):
        data = FaultPlan().equivocate(1, rate=0.5).to_dict()
        data["equivocations"][0][4] = 1  # variants below the minimum
        with pytest.raises(ValueError):
            FaultPlan.from_dict(data)

    def test_bad_byzantine_entry_names_kind_and_index(self):
        # A hand-edited artifact with a malformed liar entry must fail as a
        # codec error naming the offending kind and element, not as a bare
        # unpacking TypeError that points nowhere.
        data = FaultPlan().equivocate(1, rate=0.5).to_dict()
        data["equivocations"][0] = [1, 0.5]  # arity 2, needs 5
        with pytest.raises(PlanCodecError,
                           match=r"'equivocations' entry #0"):
            FaultPlan.from_dict(data)

    def test_bad_entry_reports_index_past_good_entries(self):
        data = (FaultPlan()
                .poison_view(3, rate=0.4, count=2)
                .poison_view(4, rate=0.4, count=2)
                .to_dict())
        data["poisons"][1] = ["not-a-pid"]
        with pytest.raises(PlanCodecError, match=r"'poisons' entry #1"):
            FaultPlan.from_dict(data)

    def test_entry_fields_are_the_builder_parameters(self):
        # to_dict writes an entry's fields in order and from_dict passes
        # them back to the builder positionally.
        for kind, entry_type, build in _KINDS:
            params = list(inspect.signature(build).parameters)[1:]
            assert [f.name for f in fields(entry_type)] == params, kind

    def test_entries_follow_the_kind_table(self):
        plan = _full_plan()
        assert [kind for kind, _ in plan.entries()] == [
            kind for kind, _, _ in _KINDS]
        assert list(plan.to_dict()) == [kind for kind, _, _ in _KINDS]

    @pytest.mark.parametrize("value", [5, [5], "drops", [(0.1, 1, 5)],
                                       {"rate": 0.1}])
    def test_kind_must_be_a_list_of_lists(self, value):
        with pytest.raises(PlanCodecError, match="'drops' must be a list"):
            FaultPlan.from_dict({"drops": value})

    def test_entry_of_the_wrong_length_named(self):
        data = FaultPlan().crash(1, at=2).to_dict()
        data["crashes"][0].append(None)
        with pytest.raises(PlanCodecError,
                           match=r"'crashes' entry #0.*4 values"):
            FaultPlan.from_dict(data)

    def test_builder_checks_still_run(self):
        data = FaultPlan().crash(1, at=2).crash(2, at=3).to_dict()
        data["crashes"][1][0] = 1
        with pytest.raises(PlanCodecError, match="already has a crash"):
            FaultPlan.from_dict(data)

    def test_bad_entry_chains_the_validation_error(self):
        data = FaultPlan().forge_digest(1, 2, rate=0.5).to_dict()
        data["forges"][0][2] = 1.5  # rate out of [0, 1]
        with pytest.raises(PlanCodecError, match=r"'forges' entry #0"):
            FaultPlan.from_dict(data)


class TestRandomComposition:
    def test_same_seed_same_plan(self):
        pids = list(range(20))
        a = FaultPlan.random(pids, horizon=40, rng=random.Random(5))
        b = FaultPlan.random(pids, horizon=40, rng=random.Random(5))
        assert a.describe() == b.describe()

    def test_different_seeds_differ(self):
        pids = list(range(20))
        seen = {
            FaultPlan.random(pids, horizon=40,
                             rng=random.Random(s)).describe()
            for s in range(8)
        }
        assert len(seen) > 1

    def test_windows_respect_horizon(self):
        pids = list(range(30))
        for s in range(20):
            plan = FaultPlan.random(pids, horizon=25, rng=random.Random(s))
            for c in plan.crashes:
                assert 1 <= c.at < 25
                if c.recover_at is not None:
                    assert c.at < c.recover_at < 25
            for p in plan.partitions:
                assert 1 <= p.start < p.heal <= 25

    def test_minimum_sizes_enforced(self):
        with pytest.raises(ValueError):
            FaultPlan.random([1, 2, 3], horizon=40, rng=random.Random(0))
        with pytest.raises(ValueError):
            FaultPlan.random(list(range(10)), horizon=4, rng=random.Random(0))

    def test_byzantine_knobs_add_liars(self):
        pids = list(range(20))
        for s in range(6):
            plan = FaultPlan.random(pids, horizon=30, rng=random.Random(s),
                                    byzantine_rate=0.5, byzantine_nodes=2)
            liars = plan.byzantine_pids()
            assert 1 <= len(liars) <= 2
            assert liars <= set(pids)
            # Liars never overlap the crash victims: a crashed process
            # cannot lie.
            assert not liars & {c.pid for c in plan.crashes}

    def test_byzantine_knobs_off_leave_plain_draws_untouched(self):
        pids = list(range(20))
        plain = FaultPlan.random(pids, horizon=30, rng=random.Random(3))
        with_knob = FaultPlan.random(pids, horizon=30, rng=random.Random(3),
                                     byzantine_rate=0.5, byzantine_nodes=1)
        assert plain.byzantine_pids() == frozenset()
        # The Byzantine draws come strictly after the crash-stop draws, so
        # the crash-stop part of the plan is bit-identical either way.
        plain_dict = plain.to_dict()
        knob_dict = with_knob.to_dict()
        for kind in ("drops", "duplicates", "delays", "partitions",
                     "crashes", "pauses"):
            assert plain_dict[kind] == knob_dict[kind]

    def test_byzantine_rate_validated(self):
        with pytest.raises(ValueError, match="byzantine_rate"):
            FaultPlan.random(list(range(10)), horizon=20,
                             rng=random.Random(0), byzantine_nodes=1,
                             byzantine_rate=0.0)
