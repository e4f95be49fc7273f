"""Tests for the synchronous round runner (Sec. 5.1 setting)."""

import random

import pytest

from repro.core import LpbcastConfig
from repro.core.message import Outgoing
from repro.faults import FaultPlan
from repro.sim import NetworkModel, RoundSimulation, build_lpbcast_nodes

from ..helpers import small_system


class Echo:
    """Minimal protocol node: forwards a counter to a fixed peer each tick."""

    def __init__(self, pid, peer):
        self.pid = pid
        self.peer = peer
        self.received = []
        self.sent = 0

    def on_tick(self, now):
        self.sent += 1
        return [Outgoing(self.peer, ("tick", self.pid, now))]

    def handle_message(self, sender, message, now):
        self.received.append((sender, message))
        return []


class TestBasics:
    def test_round_counter(self):
        sim = RoundSimulation()
        sim.run(3)
        assert sim.round == 3

    def test_duplicate_pid_rejected(self):
        sim = RoundSimulation()
        sim.add_node(Echo(1, 2))
        with pytest.raises(ValueError):
            sim.add_node(Echo(1, 2))

    def test_messages_delivered_same_round(self):
        sim = RoundSimulation()
        a, b = Echo(1, 2), Echo(2, 1)
        sim.add_nodes([a, b])
        sim.run_round()
        assert len(a.received) == 1
        assert len(b.received) == 1

    def test_message_to_unknown_destination_dropped(self):
        sim = RoundSimulation()
        a = Echo(1, 99)
        sim.add_node(a)
        sim.run_round()
        assert sim.messages_to_unknown == 1
        assert sim.messages_to_crashed == 0  # 99 never existed: not a crash

    def test_loss_applied(self):
        net = NetworkModel(loss_rate=1.0, rng=random.Random(0))
        sim = RoundSimulation(network=net)
        a, b = Echo(1, 2), Echo(2, 1)
        sim.add_nodes([a, b])
        sim.run(3)
        assert a.received == [] and b.received == []


class TestAdmissionAccounting:
    def test_message_to_crashed_destination_counted_as_crashed(self):
        sim = RoundSimulation()
        sim.add_nodes([Echo(1, 2), Echo(2, 1)])
        sim.crash(2)
        sim.run_round()
        assert sim.messages_to_crashed == 1   # 1 -> 2 (crashed, known)
        assert sim.messages_to_unknown == 0
        assert sim.messages_delivered == 0

    def test_crashed_sender_consumes_no_network_draws(self):
        # A message "from" a crashed process was never sent: it must not
        # count against any destination counter nor touch the loss model.
        sim = RoundSimulation()
        sim.add_nodes([Echo(1, 2), Echo(2, 1)])
        sim.inject(1, [Outgoing(2, "late")])
        sim.crash(1)
        sim.run_round()  # only 2 -> 1 survives admission
        assert sim.messages_to_crashed == 1   # 2 -> 1 hits the crashed node
        assert sim.network.messages_offered == 0
        assert sim.messages_delivered == 0

    def test_unknown_and_crashed_counted_separately(self):
        sim = RoundSimulation()

        class Fanning(Echo):
            def on_tick(self, now):
                return [Outgoing(2, "a"), Outgoing(99, "b")]

        sim.add_nodes([Fanning(1, 2), Echo(2, 1)])
        sim.crash(2)
        sim.run_round()
        assert sim.messages_to_crashed == 1   # 1 -> 2
        assert sim.messages_to_unknown == 1   # 1 -> 99 (never existed)


class TestCrashes:
    def test_crashed_node_does_not_tick_or_receive(self):
        sim = RoundSimulation()
        a, b = Echo(1, 2), Echo(2, 1)
        sim.add_nodes([a, b])
        sim.crash(2)
        sim.run(2)
        assert b.sent == 0
        assert b.received == []
        assert a.received == []  # 2 is silent

    def test_crash_plan_applied(self):
        sim = RoundSimulation()
        nodes = [Echo(i, (i + 1) % 4) for i in range(4)]
        sim.add_nodes(nodes)
        sim.use_fault_plan(FaultPlan().crash(1, at=1))
        sim.run(3)
        assert not sim.alive(1)
        assert nodes[1].sent == 0
        assert nodes[0].sent == 3

    def test_alive_nodes(self):
        sim = RoundSimulation()
        sim.add_nodes([Echo(1, 2), Echo(2, 1)])
        sim.crash(1)
        assert [n.pid for n in sim.alive_nodes()] == [2]


class TestHooksAndObservers:
    def test_hook_runs_before_ticks(self):
        order = []
        sim = RoundSimulation()

        class Probe(Echo):
            def on_tick(self, now):
                order.append("tick")
                return []

        sim.add_node(Probe(1, 1))
        sim.add_round_hook(lambda r, s: order.append("hook"))
        sim.run_round()
        assert order == ["hook", "tick"]

    def test_observer_runs_after_delivery(self):
        sim = RoundSimulation()
        a, b = Echo(1, 2), Echo(2, 1)
        sim.add_nodes([a, b])
        seen = []
        sim.add_observer(lambda r, s: seen.append(len(a.received)))
        sim.run_round()
        assert seen == [1]

    def test_inject_delivers_next_round(self):
        sim = RoundSimulation()
        a, b = Echo(1, 2), Echo(2, 1)
        sim.add_nodes([a, b])
        sim.inject(1, [Outgoing(2, "hello")])
        sim.run_round()
        assert (1, "hello") in b.received


class TestReplies:
    def test_replies_delivered_within_round(self):
        class PingPong:
            def __init__(self, pid, peer):
                self.pid = pid
                self.peer = peer
                self.pings = 0
                self.pongs = 0

            def on_tick(self, now):
                if self.pid == 1:
                    return [Outgoing(self.peer, "ping")]
                return []

            def handle_message(self, sender, message, now):
                if message == "ping":
                    self.pings += 1
                    return [Outgoing(sender, "pong")]
                self.pongs += 1
                return []

        sim = RoundSimulation()
        a, b = PingPong(1, 2), PingPong(2, 1)
        sim.add_nodes([a, b])
        sim.run_round()
        assert b.pings == 1
        assert a.pongs == 1

    def test_runaway_reply_chain_carries_over(self):
        class Chatter:
            def __init__(self, pid, peer):
                self.pid = pid
                self.peer = peer
                self.count = 0

            def on_tick(self, now):
                if self.pid == 1 and now == 1.0:
                    return [Outgoing(self.peer, "x")]
                return []

            def handle_message(self, sender, message, now):
                self.count += 1
                return [Outgoing(sender, "x")]  # infinite chatter

        sim = RoundSimulation(max_reply_generations=3)
        a, b = Chatter(1, 2), Chatter(2, 1)
        sim.add_nodes([a, b])
        sim.run_round()
        first_round = a.count + b.count
        assert first_round <= 4  # bounded within the round
        sim.run_round()
        assert a.count + b.count > first_round  # carryover continues


class TestRunUntil:
    def test_returns_round_when_predicate_holds(self):
        sim = RoundSimulation()
        result = sim.run_until(lambda s: s.round >= 4, max_rounds=10)
        assert result == 4

    def test_raises_when_never_satisfied(self):
        sim = RoundSimulation()
        with pytest.raises(RuntimeError):
            sim.run_until(lambda s: False, max_rounds=3)

    def test_runs_zero_rounds_when_already_satisfied(self):
        sim = RoundSimulation()
        assert sim.run_until(lambda s: True, max_rounds=5) == 0
        assert sim.round == 0

    def test_exact_round_count_and_one_evaluation_per_boundary(self):
        sim = RoundSimulation()
        seen = []

        def predicate(s):
            seen.append(s.round)
            return s.round >= 3

        # Satisfied exactly when the budget runs out: must return, not raise,
        # and the predicate is checked once per round boundary — no
        # re-evaluation after the loop.
        assert sim.run_until(predicate, max_rounds=3) == 3
        assert sim.round == 3
        assert seen == [0, 1, 2, 3]


class TestDeterminism:
    def run_once(self, seed):
        sim, nodes, log = small_system(n=30, seed=seed, loss_rate=0.05)
        event = nodes[0].lpb_cast("x", now=0.0)
        sim.run(8)
        return tuple(
            sorted(
                (pid, log.delivery_time(pid, event.event_id))
                for pid in log.deliverers_of(event.event_id)
            )
        )

    def test_same_seed_same_outcome(self):
        assert self.run_once(5) == self.run_once(5)

    def test_different_seed_different_outcome(self):
        outcomes = {self.run_once(seed) for seed in range(5)}
        assert len(outcomes) > 1


class TestAliveCountInvalidation:
    """Regressions for stale alive-list invalidation across
    crash -> recover -> add_node interleavings (the ``alive_count()`` /
    ``alive_nodes()`` split observed when ``sim.crashed`` was mutated
    directly)."""

    def build(self, n=6, seed=11):
        sim = RoundSimulation(seed=seed)
        sim.add_nodes(build_lpbcast_nodes(n, seed=seed))
        return sim

    def test_direct_crashed_discard_invalidates_cache(self):
        sim = self.build()
        sim.crash(0)
        assert len(sim.alive_nodes()) == 5  # materialise the cache
        sim.crashed.discard(0)  # historical revival path: raw set mutation
        assert sim.alive_count() == 6
        assert len(sim.alive_nodes()) == 6

    def test_direct_crashed_add_invalidates_cache(self):
        sim = self.build()
        assert len(sim.alive_nodes()) == 6
        sim.crashed.add(3)
        assert sim.alive_count() == 5
        assert len(sim.alive_nodes()) == 5

    def test_bulk_set_operations_invalidate_cache(self):
        sim = self.build()
        sim.alive_nodes()
        sim.crashed.update({0, 1})
        assert sim.alive_count() == len(sim.alive_nodes()) == 4
        sim.crashed |= {2}
        assert sim.alive_count() == len(sim.alive_nodes()) == 3
        sim.crashed.difference_update({0})
        assert sim.alive_count() == len(sim.alive_nodes()) == 4
        sim.crashed.clear()
        assert sim.alive_count() == len(sim.alive_nodes()) == 6

    def test_public_recover(self):
        sim = self.build()
        sim.crash(2)
        sim.alive_nodes()
        assert sim.recover(2) is True
        assert sim.recover(2) is False      # already alive
        assert sim.recover(99) is False     # unknown pid
        assert sim.alive_count() == len(sim.alive_nodes()) == 6

    def test_in_round_hook_revival_ticks_same_round(self):
        sim = self.build()
        sim.crash(3)

        def revive(round_no, s):
            s.recover(3)

        sim.add_round_hook(revive)
        sim.run(1)
        agg = sim.node_aggregates()
        assert sim.alive_count() == agg.count == 6
        # The revived node ticked this round: every alive node gossiped.
        assert sim.nodes[3].stats.gossips_sent == 1

    def test_crash_recover_add_node_within_one_round(self):
        sim = self.build()
        extra = build_lpbcast_nodes(1, seed=77, first_pid=100)[0]

        def churn(round_no, s):
            if round_no == 1:
                s.crash(0)
                s.crash(1)
                s.recover(1)
                s.add_node(extra)

        sim.add_round_hook(churn)
        sim.run(1)
        assert sim.alive_count() == 6  # 6 - crashed(0) - crashed(1) + rec(1) + added
        assert len(sim.alive_nodes()) == 6
        assert sim.node_aggregates().count == 6
        sim.run(1)
        assert sim.alive_count() == len(sim.alive_nodes()) == 6

    def test_plan_recovery_of_manually_crashed_node_stays_consistent(self):
        from repro.faults.plan import FaultPlan

        sim = self.build()
        plan = FaultPlan()
        plan.crash(2, at=1, recover_at=3)
        sim.use_fault_plan(plan)
        sim.run(1)
        assert sim.alive_count() == len(sim.alive_nodes()) == 5
        sim.run(2)  # recovery applies at round 3
        assert sim.alive_count() == len(sim.alive_nodes()) == 6
