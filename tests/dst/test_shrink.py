"""The shrinker: minimisation with injected predicates and the real oracle."""

from repro.dst import ScenarioSpec, generate_spec, shrink_spec
from repro.faults import FaultPlan


def big_spec():
    plan = (FaultPlan().drop(0.05).duplicate(0.05)
            .crash(3, at=2).pause(5, at=4, duration=2))
    return ScenarioSpec(seed=9, n=32, rounds=20, publishes=6,
                        loss_rate=0.1, retransmissions=True, plan=plan)


class TestShrinkWithInjectedPredicate:
    def test_always_failing_reaches_the_floor(self):
        # A predicate that accepts everything lets the shrinker run to its
        # fixpoint: minimum sizes, no faults, minimal workload.
        result = shrink_spec(big_spec(), "invariant:x",
                             is_failing=lambda spec: True)
        assert result.spec.n == 4
        assert result.spec.rounds == 2
        assert result.spec.publishes == 1
        assert result.spec.plan.is_empty()
        assert result.spec.loss_rate == 0.0
        assert not result.spec.retransmissions

    def test_never_failing_keeps_the_original(self):
        result = shrink_spec(big_spec(), "invariant:x",
                             is_failing=lambda spec: False)
        assert result.spec == result.original
        assert result.accepted == 0

    def test_predicate_constraints_respected(self):
        # Failure requires at least 16 processes: the shrinker must stop
        # exactly at the boundary instead of overshooting past it.
        result = shrink_spec(big_spec(), "invariant:x",
                             is_failing=lambda spec: spec.n >= 16)
        assert result.spec.n == 16

    def test_seed_never_changes(self):
        result = shrink_spec(big_spec(), "invariant:x",
                             is_failing=lambda spec: True)
        assert result.spec.seed == big_spec().seed

    def test_attempt_budget_bounds_work(self):
        calls = []

        def count(spec):
            calls.append(spec)
            return True

        shrink_spec(big_spec(), "invariant:x", is_failing=count,
                    max_attempts=3)
        assert len(calls) <= 3

    def test_churn_counts_shrink(self):
        spec = big_spec().with_overrides(joins=10, leaves=10)
        result = shrink_spec(spec, "invariant:x",
                             is_failing=lambda spec: True)
        assert result.spec.joins == result.spec.leaves == 0
        # A failure that needs some leaver halves the count down to one.
        result = shrink_spec(spec, "invariant:x",
                             is_failing=lambda spec: spec.leaves > 0)
        assert (result.spec.joins, result.spec.leaves) == (0, 1)
        assert "churn +10/-10->+0/-1" in result.reduction()

    def test_every_candidate_is_valid(self):
        seen = []

        def record(spec):
            spec.validate()
            seen.append(spec)
            return len(seen) % 2 == 0  # alternate, exercising both branches

        shrink_spec(big_spec(), "invariant:x", is_failing=record,
                    max_attempts=40)
        assert seen


class TestShrinkWithRealOracle:
    def test_planted_bug_shrinks_to_minimum(self):
        # double-delivery fails on every serial run, so the true minimum is
        # the floor spec; the oracle's invariant fast path keeps this quick.
        spec = generate_spec(3, max_n=20, max_rounds=14,
                             mutation="double-delivery")
        result = shrink_spec(spec, "invariant:no-duplicate-delivery")
        assert result.spec.n == 4
        assert result.spec.rounds == 2
        assert result.spec.plan.is_empty()
        assert result.spec.size() < spec.size()
