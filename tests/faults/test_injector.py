"""FaultInjector: deterministic verdicts, round actions, stats."""

import random

import pytest

from repro.faults import DatagramFaultInjector, FaultInjector, FaultPlan


def make_injector(plan, seed=0):
    return FaultInjector(plan, random.Random(seed))


class TestDeterminism:
    def test_same_seed_same_verdict_stream(self):
        plan = (FaultPlan().drop(0.3).duplicate(0.2).delay(0.2, delay=2)
                .partition([1, 2], [3, 4], start=3, heal=6))
        pairs = [(s, d) for s in range(5) for d in range(5) if s != d]

        def stream(seed):
            injector = make_injector(plan, seed)
            out = []
            for r in range(1, 9):
                injector.round_start(r)
                for src, dst in pairs:
                    v = injector.decide(src, dst)
                    out.append((v.action, v.copies, v.delay))
            return out

        assert stream(7) == stream(7)
        assert stream(7) != stream(8)

    def test_partition_verdict_consumes_no_draws(self):
        # A blocked crossing must not advance the stream: verdicts for
        # unrelated traffic afterwards are unchanged whether or not the
        # partition check fired first.
        base = FaultPlan().drop(0.5)
        cut = FaultPlan().partition([1], [2], start=1, heal=99).drop(0.5)
        a, b = make_injector(base, 3), make_injector(cut, 3)
        a.round_start(1), b.round_start(1)
        assert b.decide(1, 2).action == "drop"  # partition, no rng draw
        for _ in range(50):
            va, vb = a.decide(5, 6), b.decide(5, 6)
            assert (va.action, va.copies) == (vb.action, vb.copies)


class TestVerdicts:
    def test_windows_bound_every_fault(self):
        plan = FaultPlan().drop(1.0, start=3, stop=5)
        injector = make_injector(plan)
        outcomes = {}
        for r in (2, 3, 4, 5):
            injector.round_start(r)
            outcomes[r] = injector.decide(1, 2).action
        assert outcomes == {2: "deliver", 3: "drop", 4: "drop", 5: "deliver"}

    def test_scoped_drop_spares_other_links(self):
        injector = make_injector(FaultPlan().drop(1.0, src=1, dst=2))
        injector.round_start(1)
        assert injector.decide(1, 2).action == "drop"
        assert injector.decide(2, 1).action == "deliver"

    def test_duplicate_and_delay_payloads(self):
        injector = make_injector(FaultPlan().duplicate(1.0))
        injector.round_start(1)
        assert injector.decide(1, 2).copies == 2
        injector = make_injector(FaultPlan().delay(1.0, delay=3))
        injector.round_start(1)
        v = injector.decide(1, 2)
        assert v.action == "delay" and v.delay == 3

    def test_stats_count_struck_faults(self):
        plan = FaultPlan().drop(1.0).partition([1], [2], start=1, heal=9)
        injector = make_injector(plan)
        injector.round_start(1)
        injector.decide(1, 2)   # partition
        injector.decide(3, 4)   # drop
        assert injector.stats.partition_blocked == 1
        assert injector.stats.dropped == 1
        assert injector.stats.decisions == 2


class TestRoundActions:
    def test_crash_recover_pause_schedule(self):
        plan = (FaultPlan().crash(1, at=2, recover_at=5)
                .pause(3, at=2, duration=2))
        injector = make_injector(plan)
        r2 = injector.round_start(2)
        assert [c.pid for c in r2.crashes] == [1]
        assert r2.paused == frozenset({3})
        r3 = injector.round_start(3)
        assert not r3.crashes and r3.paused == frozenset({3})
        r4 = injector.round_start(4)
        assert r4.paused == frozenset()
        r5 = injector.round_start(5)
        assert [c.pid for c in r5.recoveries] == [1]
        assert injector.stats.crashes_applied == 1
        assert injector.stats.recoveries_applied == 1

    def test_is_paused_window(self):
        injector = make_injector(FaultPlan().pause(7, at=3, duration=2))
        assert not injector.is_paused(7, 2)
        assert injector.is_paused(7, 3)
        assert injector.is_paused(7, 4)
        assert not injector.is_paused(7, 5)
        assert not injector.is_paused(8, 3)

    def test_pick_contact_deterministic_and_safe(self):
        injector = make_injector(FaultPlan(), seed=4)
        assert injector.pick_contact([]) is None
        choices = [make_injector(FaultPlan(), seed=4).pick_contact(list(range(10)))
                   for _ in range(3)]
        assert len(set(choices)) == 1

    def test_active_faults_lists_open_windows(self):
        plan = (FaultPlan().drop(0.1, start=2, stop=4)
                .partition([1], [2], start=3, heal=5))
        injector = make_injector(plan)
        assert injector.active_faults(1) == []
        assert any("drop" in f for f in injector.active_faults(2))
        at3 = injector.active_faults(3)
        assert any("partition" in f for f in at3)


class TestDatagramFaultInjector:
    """The UDP send path carries out message faults only; a plan with any
    other kind is refused instead of being silently half-applied."""

    REFUSED = {
        "crashes": lambda plan: plan.crash(1, at=2),
        "pauses": lambda plan: plan.pause(1, at=2, duration=3),
        "equivocations": lambda plan: plan.equivocate(0),
        "forges": lambda plan: plan.forge_digest(0, victim=1),
        "poisons": lambda plan: plan.poison_view(0),
        "replays": lambda plan: plan.replay_stale(0),
    }

    @pytest.mark.parametrize("kind", sorted(REFUSED))
    def test_a_fault_the_wire_cannot_apply_is_refused(self, kind):
        plan = self.REFUSED[kind](FaultPlan().drop(0.1))
        with pytest.raises(ValueError, match=f"message faults only.*{kind}$"):
            DatagramFaultInjector(plan)

    def test_every_refused_kind_is_named(self):
        plan = FaultPlan().crash(1, at=2).equivocate(0).replay_stale(2)
        with pytest.raises(ValueError,
                           match="crashes, equivocations, replays$"):
            DatagramFaultInjector(plan)

    def test_message_faults_are_accepted(self):
        plan = (FaultPlan().drop(0.1).duplicate(0.1).delay(0.1, delay=2)
                .partition([1], [2], start=1, heal=5))
        DatagramFaultInjector(plan, rng=random.Random(3))
