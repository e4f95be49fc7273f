"""Tests for the canned scenario builders."""

import pytest

from repro.core import LpbcastConfig
from repro.sim.scenarios import (
    correlated_crashes,
    flaky_wan,
    flash_crowd,
    mass_departure,
    steady_state,
)


class TestSteadyState:
    def test_broadcast_completes(self):
        scenario = steady_state(n=40, seed=1)
        event = scenario.nodes[0].lpb_cast("x", now=0.0)
        scenario.run(10)
        assert scenario.log.delivery_count(event.event_id) == 40

    def test_custom_config_used(self):
        cfg = LpbcastConfig(fanout=4, view_max=9)
        scenario = steady_state(n=20, config=cfg, seed=1)
        assert all(node.config.fanout == 4 for node in scenario.nodes)


class TestFlashCrowd:
    def test_all_joiners_integrate(self):
        scenario = flash_crowd(n=40, joiners=15, seed=2).run(15)
        for pid in scenario.extras["joiner_pids"]:
            assert scenario.sim.nodes[pid].joined

    def test_joiners_receive_post_join_broadcasts(self):
        scenario = flash_crowd(n=40, joiners=10, seed=3).run(12)
        event = scenario.nodes[5].lpb_cast("late", now=12.0)
        scenario.run(12)
        joiners_covered = sum(
            1 for pid in scenario.extras["joiner_pids"]
            if scenario.log.delivered(pid, event.event_id)
        )
        assert joiners_covered == 10

    def test_original_members_learn_joiners(self):
        scenario = flash_crowd(n=40, joiners=10, seed=4).run(25)
        joiner_pids = set(scenario.extras["joiner_pids"])
        knowers = sum(
            1 for node in scenario.nodes
            if joiner_pids & set(node.view.snapshot())
        )
        assert knowers > 20


class TestMassDeparture:
    def test_leavers_marked(self):
        scenario = mass_departure(n=40, leavers=12, seed=5).run(20)
        for pid in scenario.extras["leaver_pids"]:
            assert scenario.sim.nodes[pid].unsubscribed

    def test_survivors_still_broadcast(self):
        scenario = mass_departure(n=40, leavers=12, seed=6).run(20)
        survivors = [n for n in scenario.nodes if not n.unsubscribed]
        event = survivors[0].lpb_cast("post-exodus", now=20.0)
        scenario.run(12)
        covered = sum(
            1 for n in survivors
            if scenario.log.delivered(n.pid, event.event_id)
        )
        assert covered == len(survivors)

    def test_validation(self):
        with pytest.raises(ValueError):
            mass_departure(n=10, leavers=10)


class TestCorrelatedCrashes:
    def test_victims_silenced(self):
        scenario = correlated_crashes(n=40, crash_fraction=0.25, seed=7).run(6)
        for pid in scenario.extras["victims"]:
            assert not scenario.sim.alive(pid)
        assert len(scenario.extras["victims"]) == 10

    def test_survivors_fully_covered_despite_rack_failure(self):
        scenario = correlated_crashes(n=40, crash_fraction=0.25, seed=8)
        event = scenario.nodes[0].lpb_cast("x", now=0.0)
        # Publisher must survive for the test to be meaningful.
        if scenario.nodes[0].pid in scenario.extras["victims"]:
            pytest.skip("publisher among victims for this seed")
        scenario.run(14)
        survivors = scenario.alive_nodes()
        covered = sum(
            1 for n in survivors
            if scenario.log.delivered(n.pid, event.event_id)
        )
        assert covered == len(survivors)

    def test_validation(self):
        with pytest.raises(ValueError):
            correlated_crashes(crash_fraction=0.0)


class TestScenarioDeterminism:
    def test_same_seed_same_outcome(self):
        counts = []
        for _ in range(2):
            scenario = steady_state(n=30, seed=11)
            event = scenario.nodes[0].lpb_cast("x", now=0.0)
            scenario.run(8)
            counts.append(scenario.log.delivery_count(event.event_id))
        assert counts[0] == counts[1]

    def test_different_seed_different_topology(self):
        a = steady_state(n=30, seed=1)
        b = steady_state(n=30, seed=2)
        assert any(
            set(x.view.snapshot()) != set(y.view.snapshot())
            for x, y in zip(a.nodes, b.nodes)
        )


class TestScenarioEdgeCases:
    def test_flash_crowd_joiner_pids_disjoint_from_members(self):
        scenario = flash_crowd(n=30, joiners=5, seed=1)
        members = {node.pid for node in scenario.nodes}
        assert not members & set(scenario.extras["joiner_pids"])

    def test_mass_departure_accepts_all_but_one(self):
        scenario = mass_departure(n=10, leavers=9, seed=1).run(5)
        assert len(scenario.extras["leaver_pids"]) == 9

    def test_correlated_crashes_rejects_full_fraction(self):
        with pytest.raises(ValueError):
            correlated_crashes(crash_fraction=1.0)

    def test_alive_nodes_shrinks_after_crashes(self):
        scenario = correlated_crashes(n=40, crash_fraction=0.25, seed=7)
        assert len(scenario.alive_nodes()) == 40
        scenario.run(6)
        assert len(scenario.alive_nodes()) == 30

    def test_churn_script_exposed(self):
        assert "churn" in flash_crowd(n=20, joiners=2, seed=1).extras
        assert "churn" in mass_departure(n=20, leavers=2, seed=1).extras


#: flaky_wan(n=40, seed) with one publish, 20 rounds: the applied
#: (round, pid) crashes and DeliveryLog.total_deliveries, taken from the
#: revision whose round body still applied a pre-drawn crash plan.
FLAKY_WAN_PINNED = {
    0: ([(12, 10), (15, 36)], 40),
    1: ([(9, 11), (14, 28)], 40),
    2: ([(2, 33), (5, 7)], 39),
    3: ([(1, 22), (15, 37)], 39),
    4: ([(9, 7), (14, 31)], 40),
}


class TestFlakyWan:
    def test_crash_plan_attached(self):
        scenario = flaky_wan(n=40, seed=9)
        assert len(scenario.extras["crashes"]) == 2  # 5% of 40

    def test_zero_crash_rate_yields_empty_plan(self):
        scenario = flaky_wan(n=40, crash_rate=0.0, seed=9)
        assert scenario.extras["crashes"] == []

    def test_victim_count_respects_tau(self):
        scenario = flaky_wan(n=100, crash_rate=0.05, seed=0)
        assert len(scenario.extras["crashes"]) == 5

    def test_victims_distinct(self):
        crashes = flaky_wan(n=100, crash_rate=0.2, seed=0).extras["crashes"]
        victims = [pid for _, pid in crashes]
        assert len(victims) == len(set(victims)) == 20

    def test_crash_rounds_within_horizon(self):
        crashes = flaky_wan(n=200, crash_rate=0.1, horizon=7.5,
                            seed=3).extras["crashes"]
        rounds = [at for at, _ in crashes]
        assert rounds == sorted(rounds)
        assert all(1 <= at <= 8 for at in rounds)
        assert {1, 8} <= set(rounds)  # both ends are reached on this seed

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            flaky_wan(n=10, crash_rate=1.0)
        with pytest.raises(ValueError):
            flaky_wan(n=10, crash_rate=-0.1)
        with pytest.raises(ValueError):
            flaky_wan(n=10, crash_rate=0.1, horizon=0.0)

    def test_each_victim_crashes_once_in_its_round(self):
        scenario = flaky_wan(n=100, crash_rate=0.1, horizon=9.0, seed=2)
        scenario.sim.telemetry.tracing = True
        scenario.run(12)
        applied = [(int(e.at), e.pid)
                   for e in scenario.sim.telemetry.trace.of_kind("crash")]
        assert applied == scenario.extras["crashes"]
        assert len(scenario.alive_nodes()) == 90

    @pytest.mark.parametrize("seed", sorted(FLAKY_WAN_PINNED))
    def test_schedule_and_deliveries_pinned(self, seed):
        crashes, deliveries = FLAKY_WAN_PINNED[seed]
        scenario = flaky_wan(n=40, seed=seed)
        assert scenario.extras["crashes"] == crashes
        scenario.nodes[0].lpb_cast("x", now=0.0)
        scenario.run(20)
        assert scenario.log.total_deliveries == deliveries
        assert not any(scenario.sim.alive(pid) for _, pid in crashes)

    def test_broadcast_survives_heavy_loss(self):
        scenario = flaky_wan(n=40, loss_rate=0.3, seed=10)
        event = scenario.nodes[0].lpb_cast("x", now=0.0)
        scenario.run(15)
        survivors = scenario.alive_nodes()
        covered = sum(
            1 for n in survivors
            if scenario.log.delivered(n.pid, event.event_id)
        )
        assert covered >= 0.95 * len(survivors)
