"""Fault plans wired into the engines: behavior and cross-engine identity."""

import pytest

from repro.core import LpbcastConfig
from repro.faults import FaultPlan
from repro.metrics import DeliveryLog
from repro.sim import (
    NetworkModel,
    RoundSimulation,
    build_lpbcast_nodes,
    create_simulation,
)
from repro.sim.async_runner import AsyncGossipRuntime
from repro.sim.parallel_runner import ShardedRoundSimulation
from repro.sim.rng import SeedSequence

from ..helpers import small_system


class TestSerialEngineFaults:
    def test_full_partition_halts_dissemination_until_heal(self):
        sim, nodes, log = small_system(n=20, seed=1)
        side_a = [n.pid for n in nodes[:10]]
        side_b = [n.pid for n in nodes[10:]]
        sim.use_fault_plan(
            FaultPlan().partition(side_a, side_b, start=1, heal=8)
        )
        event = nodes[0].lpb_cast("cut", 0.0)
        sim.run(6)
        # While the cut holds, nothing published on side A reaches side B.
        assert all(not log.delivered(pid, event.event_id) for pid in side_b)
        sim.run(10)  # heal at round 8, then the epidemic crosses
        assert log.delivery_count(event.event_id) == 20

    def test_asymmetric_partition_lets_one_direction_through(self):
        sim, nodes, log = small_system(n=16, seed=2)
        side_a = [n.pid for n in nodes[:8]]
        side_b = [n.pid for n in nodes[8:]]
        sim.use_fault_plan(
            FaultPlan().partition(side_a, side_b, start=1, heal=50,
                                  direction="b-to-a")
        )
        from_a = nodes[0].lpb_cast("a-side", 0.0)
        sim.run(12)
        # A→B crossings are open, so an A event still infects B...
        assert any(log.delivered(pid, from_a.event_id) for pid in side_b)

    def test_crash_with_recovery_rejoins_and_delivers_again(self):
        sim, nodes, log = small_system(n=20, seed=3)
        victim = nodes[5].pid
        sim.use_fault_plan(FaultPlan().crash(victim, at=2, recover_at=8))
        sim.run(4)
        assert not sim.alive(victim)
        before = nodes[5].stats.join_requests_sent
        sim.run(6)  # recovery at round 8 triggers the Sec. 3.4 handshake
        assert sim.alive(victim)
        assert nodes[5].stats.join_requests_sent > before
        event = nodes[0].lpb_cast("after-recovery", 10.0)
        sim.run(10)
        assert log.delivered(victim, event.event_id)

    def test_paused_node_stops_gossiping_but_still_receives(self):
        sim, nodes, log = small_system(n=12, seed=4)
        slow = nodes[3]
        sim.use_fault_plan(FaultPlan().pause(slow.pid, at=2, duration=4))
        sim.run(1)
        sent_before = slow.stats.gossips_sent
        received_before = slow.stats.gossips_received
        sim.run(4)  # rounds 2-5: paused
        assert slow.stats.gossips_sent == sent_before
        assert slow.stats.gossips_received > received_before
        sim.run(2)  # pause over
        assert slow.stats.gossips_sent > sent_before

    def test_total_drop_silences_the_network(self):
        sim, nodes, log = small_system(n=10, seed=5)
        sim.use_fault_plan(FaultPlan().drop(1.0))
        event = nodes[0].lpb_cast("lost", 0.0)
        sim.run(8)
        assert log.delivery_count(event.event_id) == 1  # publisher only
        assert sim.messages_delivered == 0

    def test_delay_holds_messages_across_rounds(self):
        sim, nodes, log = small_system(n=10, seed=6)
        injector = sim.use_fault_plan(
            FaultPlan().delay(1.0, delay=2, start=1, stop=2)
        )
        nodes[0].lpb_cast("held", 0.0)
        sim.run_round()
        # Every round-1 message is in the hold-back list, none delivered.
        assert injector.stats.delayed > 0
        assert sim.messages_delivered == 0
        assert len(sim._delayed_faults) == injector.stats.delayed
        sim.run(2)  # due at round 3
        assert sim.messages_delivered > 0
        assert not sim._delayed_faults

    def test_duplicates_absorbed_by_protocol(self):
        sim, nodes, log = small_system(n=12, seed=7)
        injector = sim.use_fault_plan(FaultPlan().duplicate(0.5))
        event = nodes[0].lpb_cast("twice", 0.0)
        sim.run(10)
        assert injector.stats.duplicated > 0
        assert log.delivery_count(event.event_id) == 12
        # The log's ground truth: nobody delivered the event twice.
        assert log.redeliveries == 0

    def test_injector_returned_and_plan_replayable(self):
        def run(seed):
            sim, nodes, log = small_system(n=15, seed=seed)
            sim.use_fault_plan(
                FaultPlan().drop(0.2).crash(4, at=3, recover_at=7)
            )
            nodes[0].lpb_cast("x", 0.0)
            sim.run(12)
            return sorted(log._first_delivery_time.items())

        assert run(9) == run(9)


def _engine_fault_trace(engine_cls, seed, n=36, rounds=20, **kw):
    """Run a composed plan and capture every observable outcome."""
    cfg = LpbcastConfig(fanout=3, view_max=8)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    seeds = SeedSequence(seed)
    sim = engine_cls(NetworkModel(loss_rate=0.05, rng=seeds.rng("network")),
                     seed=seed, **kw)
    sim.add_nodes(nodes)
    log = DeliveryLog().attach(nodes)
    sim.use_fault_plan(
        FaultPlan()
        .drop(0.08, start=2, stop=rounds)
        .duplicate(0.04)
        .delay(0.04, delay=2)
        .partition(range(0, n // 4), range(n // 4, n), start=5, heal=12,
                   direction="a-to-b")
        .crash(3, at=4, recover_at=14)
        .crash(9, at=6)
        .pause(11, at=7, duration=3)
    )

    def publish(round_no, s):
        if round_no <= 5:
            s.nodes[round_no % 7].lpb_cast(f"e{round_no}", float(round_no))

    sim.add_round_hook(publish)
    sim.run(rounds)
    if hasattr(sim, "collect"):
        sim.collect()
    return (
        tuple(sorted(log._first_delivery_time.items())),
        log.total_deliveries,
        log.redeliveries,
        sim.messages_delivered,
        sim.messages_to_crashed,
        tuple(sorted(sim.crashed)),
    )


class TestShardedEquivalence:
    def test_composed_plan_bit_identical_across_engines(self):
        serial = _engine_fault_trace(RoundSimulation, seed=42)
        sharded = _engine_fault_trace(ShardedRoundSimulation, seed=42,
                                      shards=3)
        assert serial == sharded

    def test_equivalence_holds_for_other_seeds_and_shard_counts(self):
        for seed, shards in ((7, 2), (19, 4)):
            serial = _engine_fault_trace(RoundSimulation, seed=seed,
                                         n=24, rounds=16)
            sharded = _engine_fault_trace(ShardedRoundSimulation, seed=seed,
                                          n=24, rounds=16, shards=shards)
            assert serial == sharded, f"diverged for seed={seed}"


class TestAsyncRuntimeFaults:
    def _runtime(self, seed, n=16):
        cfg = LpbcastConfig(fanout=3, view_max=8, gossip_period=1.0)
        nodes = build_lpbcast_nodes(n, cfg, seed=seed)
        seeds = SeedSequence(seed)
        runtime = AsyncGossipRuntime(
            NetworkModel(loss_rate=0.0, rng=seeds.rng("network")), seed=seed
        )
        runtime.add_nodes(nodes)
        log = DeliveryLog().attach(nodes)
        return runtime, nodes, log

    def test_crash_and_recovery_follow_the_round_clock(self):
        runtime, nodes, log = self._runtime(seed=1)
        victim = nodes[2]
        runtime.use_fault_plan(
            FaultPlan().crash(victim.pid, at=3, recover_at=8)
        )
        runtime.run_until(4.0)   # rounds 1-4; crash lands at t=2.0
        assert not runtime.alive(victim.pid)
        runtime.run_until(9.0)   # recovery at t=7.0
        assert runtime.alive(victim.pid)
        event = nodes[0].lpb_cast("post", runtime.now)
        runtime.run_until(20.0)
        assert log.delivered(victim.pid, event.event_id)

    def test_paused_process_skips_gossip_but_timer_survives(self):
        runtime, nodes, log = self._runtime(seed=2)
        slow = nodes[4]
        runtime.use_fault_plan(FaultPlan().pause(slow.pid, at=2, duration=3))
        runtime.run_until(1.0)
        sent_before = slow.stats.gossips_sent
        runtime.run_until(4.0)   # rounds 2-4: stalled
        assert slow.stats.gossips_sent == sent_before
        runtime.run_until(8.0)
        assert slow.stats.gossips_sent > sent_before

    def test_total_drop_window_blocks_traffic(self):
        runtime, nodes, log = self._runtime(seed=3, n=10)
        runtime.use_fault_plan(FaultPlan().drop(1.0))
        event = nodes[0].lpb_cast("mute", 0.0)
        runtime.run_until(10.0)
        assert log.delivery_count(event.event_id) == 1
        assert runtime.messages_delivered == 0

    def test_same_seed_replays_identically(self):
        def run():
            runtime, nodes, log = self._runtime(seed=5)
            runtime.use_fault_plan(
                FaultPlan().drop(0.15).duplicate(0.1).delay(0.1, delay=1)
                .crash(3, at=2, recover_at=6)
            )
            nodes[0].lpb_cast("r", 0.0)
            runtime.run_until(15.0)
            return sorted(log._first_delivery_time.items())

        assert run() == run()


class TestOnePlanPerEngine:
    """A second ``use_fault_plan`` is refused on every engine: replacing
    the first plan would restart the fault stream, stacking it would
    double-count the injector's stats."""

    @pytest.mark.parametrize("engine", ["serial", "sharded", "async",
                                        "columnar"])
    def test_second_plan_raises_and_first_still_applies(self, engine):
        sim = create_simulation(engine, seed=4)
        try:
            sim.add_nodes(build_lpbcast_nodes(
                8, LpbcastConfig(fanout=2, view_max=4), seed=4))
            injector = sim.use_fault_plan(FaultPlan().crash(3, at=2))
            with pytest.raises(ValueError, match="already installed"):
                sim.use_fault_plan(FaultPlan().crash(5, at=2))
            if engine == "async":
                sim.run_rounds(6)
            else:
                sim.run(6)
            assert not sim.alive(3)
            assert sim.alive(5)
            assert injector.stats.crashes_applied == 1
        finally:
            close = getattr(sim, "close", None)
            if close is not None:
                close()
