"""Tests for the discrete-event kernel."""

import pytest

from repro.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fifo(self):
        sim = Simulator()
        fired = []
        for label in "abc":
            sim.schedule(1.0, lambda l=label: fired.append(l))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_during_execution(self):
        sim = Simulator()
        fired = []
        def chain():
            fired.append(sim.now)
            if sim.now < 3:
                sim.schedule(1.0, chain)
        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_cannot_schedule_into_past(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    def test_nan_time_is_refused(self):
        sim = Simulator()
        nan = float("nan")
        for schedule in (sim.schedule, sim.schedule_at):
            with pytest.raises(ValueError):
                schedule(nan, lambda: None)
        assert sim.idle()


class TestEntries:
    """An entry is ``(time, seq, action, args)``: no handle, no cancel."""

    def test_args_are_passed_to_the_action(self):
        sim = Simulator()
        fired = []
        assert sim.schedule(1.0, fired.append, "a") is None
        assert sim.schedule_at(2.0, lambda *args: fired.append(args),
                               1, "b", None) is None
        sim.run()
        assert fired == ["a", (1, "b", None)]

    def test_equal_times_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []

        def first(label):
            fired.append(label)
            sim.schedule(0.0, fired.append, "scheduled while running")

        sim.schedule_at(1.0, first, "at")
        sim.schedule(1.0, fired.append, "after")
        sim.schedule_at(1.0, fired.append, "at again")
        sim.run_until(1.0)
        assert fired == ["at", "after", "at again", "scheduled while running"]

    def test_next_time_peeks_the_earliest_entry(self):
        sim = Simulator()
        assert sim.next_time() is None
        fired = []
        sim.schedule(5.0, fired.append, 5)
        sim.schedule(2.0, fired.append, 2)
        assert sim.next_time() == 2.0
        assert fired == [] and sim.now == 0.0 and sim.events_executed == 0
        sim.run_until(3.0)
        assert fired == [2] and sim.next_time() == 5.0
        sim.run()
        assert fired == [2, 5] and sim.next_time() is None


class TestRunUntil:
    def test_runs_only_due_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_boundary_event_included(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(2.0)
        assert fired == [2]

    def test_deadline_in_past_rejected(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError):
            sim.run_until(1.0)

    def test_nan_deadline_is_refused(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError):
            sim.run_until(float("nan"))
        assert sim.now == 5.0

    def test_idle(self):
        sim = Simulator()
        assert sim.idle()
        sim.schedule(1.0, lambda: None)
        assert not sim.idle()

    def test_run_max_events(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending() == 2

    def test_events_executed_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 1
