"""InvariantMonitor: clean runs pass, broken nodes are caught replayably."""

import random
import types

import pytest

from repro.core import LpbcastConfig, LpbcastNode
from repro.core.events import Unsubscription
from repro.core.ids import EventId
from repro.faults import (
    FaultPlan,
    InvariantMonitor,
    InvariantViolation,
    Violation,
)
from repro.metrics import DeliveryLog
from repro.sim import NetworkModel, RoundSimulation, build_lpbcast_nodes

from ..helpers import small_system


class DoubleDeliverNode(LpbcastNode):
    """Broken on purpose: notifies the application twice per LPB-DELIVER,
    the exact duplicate-suppression bug the monitor exists to catch."""

    def _deliver(self, notification, now, archivable=True):
        super()._deliver(notification, now, archivable)
        for listener in self._listeners:
            listener(self.pid, notification, now)


def _system_with_rogue(mode, seed=1, n=16):
    cfg = LpbcastConfig(fanout=3, view_max=8)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    rogue = DoubleDeliverNode(
        nodes[5].pid, cfg, random.Random(500 + seed),
        initial_view=nodes[5].view.snapshot(),
    )
    nodes[5] = rogue
    sim = RoundSimulation(
        NetworkModel(loss_rate=0.0, rng=random.Random(seed + 1000)), seed=seed
    )
    sim.add_nodes(nodes)
    log = DeliveryLog().attach(nodes)
    monitor = InvariantMonitor(mode=mode).attach(sim)
    return sim, nodes, rogue, monitor


class TestCleanRuns:
    def test_healthy_faulted_run_holds_every_invariant(self):
        sim, nodes, log = small_system(n=24, seed=11)
        monitor = InvariantMonitor(mode="collect").attach(sim)
        sim.use_fault_plan(
            FaultPlan().drop(0.1).duplicate(0.1)
            .crash(3, at=4, recover_at=10)
            .pause(7, at=5, duration=3)
        )
        for i in range(5):
            nodes[i].lpb_cast(f"e{i}", float(i))
        sim.run(30)
        assert monitor.ok, monitor.report()
        assert monitor.checks_run == 30
        assert "all invariants held" in monitor.report()
        assert "seed=11" in monitor.report()

    def test_seed_harvested_from_simulation(self):
        sim, _, _ = small_system(n=8, seed=123)
        monitor = InvariantMonitor(mode="collect").attach(sim)
        assert monitor.seed == 123

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            InvariantMonitor(mode="log")


class TestDoubleDeliveryCaught:
    def test_rogue_node_caught_with_replayable_report(self):
        """Acceptance: the deliberately broken double-delivering node is
        caught, and the violation report carries enough to replay it."""
        sim, nodes, rogue, monitor = _system_with_rogue("collect", seed=1)
        nodes[0].lpb_cast("probe", 0.0)
        sim.run(15)
        dupes = [v for v in monitor.violations
                 if v.invariant == "no-duplicate-delivery"]
        assert dupes, "the rogue node escaped the monitor"
        violation = dupes[0]
        assert violation.pid == rogue.pid
        assert violation.seed == 1
        assert violation.round >= 1
        assert violation.replay_hint() == (
            f"replay with seed=1, violated at round {violation.round}"
        )
        assert "no-duplicate-delivery" in str(violation)

    def test_replay_reproduces_the_violation(self):
        def first_violation():
            sim, nodes, _, monitor = _system_with_rogue("collect", seed=7)
            nodes[0].lpb_cast("probe", 0.0)
            sim.run(15)
            v = monitor.violations[0]
            return (v.invariant, v.pid, v.round)

        assert first_violation() == first_violation()

    def test_raise_mode_stops_the_run_immediately(self):
        sim, nodes, rogue, monitor = _system_with_rogue("raise", seed=1)
        nodes[0].lpb_cast("probe", 0.0)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run(15)
        assert excinfo.value.violation.invariant == "no-duplicate-delivery"
        assert excinfo.value.violation.pid == rogue.pid

    def test_redelivery_is_a_violation_at_any_distance(self):
        # An id is delivered once, ever: however many deliveries lie between
        # (here far more than any |eventIds|m), the second is a violation.
        monitor = InvariantMonitor(mode="collect")
        monitor._sim = types.SimpleNamespace(crashed=set(), round=1)
        event = types.SimpleNamespace(event_id=EventId(9, 1))
        monitor._on_delivery(1, event, 0.0)
        for seq in range(2, 500):
            monitor._on_delivery(
                1, types.SimpleNamespace(event_id=EventId(9, seq)), 0.0)
        monitor._on_delivery(2, event, 0.0)  # another process: its first
        assert monitor.ok
        monitor._on_delivery(1, event, 1.0)
        assert [(v.invariant, v.pid) for v in monitor.violations] == [
            ("no-duplicate-delivery", 1)
        ]


class TestNodeStateChecks:
    def test_buffer_bound_breach_is_flagged(self):
        sim, nodes, _ = small_system(n=12, seed=2)
        monitor = InvariantMonitor(mode="collect").attach(sim)
        sim.run(2)
        assert monitor.ok
        # A config swap makes node 0's (healthy, size-8) view read as
        # overflowing a bound of 2 — the monitor must notice.
        nodes[0].config = LpbcastConfig(fanout=1, view_max=2)
        sim.run(1)
        breaches = [v for v in monitor.violations
                    if v.invariant == "buffer-bounds"]
        assert breaches and breaches[0].pid == nodes[0].pid
        assert "|view|" in breaches[0].detail

    def test_out_of_order_ids_are_held_to_event_ids_max(self):
        sim, nodes, _ = small_system(n=12, seed=2)
        monitor = InvariantMonitor(mode="collect").attach(sim)
        for seq in (3, 5, 7):               # three ids beyond a gap
            nodes[0].event_ids.add(EventId(99, seq))
        sim.run(1)
        assert monitor.ok                    # 3 <= the default bound of 60
        nodes[0].config = LpbcastConfig(fanout=3, view_max=8, event_ids_max=2)
        sim.run(1)
        breaches = [v for v in monitor.violations
                    if v.invariant == "buffer-bounds"]
        assert breaches and breaches[0].pid == nodes[0].pid
        assert "|event_ids| = 3 exceeds its bound 2" in breaches[0].detail

    def test_owner_in_view_is_flagged(self):
        sim, nodes, _ = small_system(n=10, seed=3)
        monitor = InvariantMonitor(mode="collect").attach(sim)
        node = nodes[4]
        # PartialView.add refuses the owner, so smuggle it in directly —
        # exactly what a membership bug would amount to.
        node.view._index[node.pid] = len(node.view._items)
        node.view._items.append(node.pid)
        sim.run(1)
        assert any(v.invariant == "view-excludes-owner"
                   and v.pid == node.pid for v in monitor.violations)

    def test_unpurged_obsolete_unsub_is_flagged(self):
        sim, nodes, _ = small_system(n=10, seed=4)
        monitor = InvariantMonitor(mode="collect").attach(sim)
        node = nodes[2]
        node.membership.purge = lambda now: None  # break the purge
        node.unsubs.add(Unsubscription(99, -100.0))
        sim.run(1)
        assert any(v.invariant == "unsub-expiry" and v.pid == node.pid
                   for v in monitor.violations)

    def test_gossip_after_fail_stop_is_flagged(self):
        sim, nodes, _ = small_system(n=10, seed=5)
        monitor = InvariantMonitor(mode="collect").attach(sim)
        victim = nodes[0]
        sim.crash(victim.pid)
        sim.run(1)  # baseline gossips_sent recorded post-crash
        victim.on_tick(99.0)  # a buggy engine keeps ticking the corpse
        sim.run(1)
        assert any(v.invariant == "crashed-silence" and v.pid == victim.pid
                   for v in monitor.violations)


class TestReporting:
    def test_report_lists_each_violation_with_replay_hint(self):
        sim, nodes, _, monitor = _system_with_rogue("collect", seed=9)
        nodes[0].lpb_cast("probe", 0.0)
        sim.run(15)
        report = monitor.report()
        assert f"{len(monitor.violations)} invariant violation(s)" in report
        assert "replay with seed=9" in report
        assert not monitor.ok

    def test_violation_str_names_invariant_process_and_round(self):
        v = Violation("buffer-bounds", 3, 7, 42, "|view| = 9 exceeds 8")
        text = str(v)
        assert "[buffer-bounds]" in text
        assert "process 3" in text
        assert "round 7" in text
        assert "seed=42" in text


class TestCausalInvariants:
    """The causality / holdback-bound pair added for causal-delivery mode."""

    CAUSAL_CFG = dict(fanout=3, view_max=8, causal_delivery=True,
                      digest_implies_delivery=False, retransmissions=True)

    def _watched_causal_node(self):
        from ..helpers import make_node

        node = make_node(pid=0, view=(1,), **self.CAUSAL_CFG)
        monitor = InvariantMonitor(mode="collect")
        monitor.watch_node(node.pid, node)
        return node, monitor

    def test_clean_causal_run_holds_every_invariant(self):
        cfg = LpbcastConfig(**self.CAUSAL_CFG)
        sim, nodes, log = small_system(n=16, seed=13, config=cfg)
        monitor = InvariantMonitor(mode="collect").attach(sim)
        for r in range(4):
            nodes[2 * r].lpb_cast(f"a{r}", float(r))
            nodes[2 * r + 1].lpb_cast(f"b{r}", float(r))
            sim.run_round()
        sim.run(10)
        assert monitor.ok, monitor.report()
        assert monitor._causal_pids == {node.pid for node in nodes}

    def test_premature_delivery_flags_causality(self):
        from ..helpers import gossip, notification

        node, monitor = self._watched_causal_node()
        # The planted defect class: a gate that considers everything ready.
        node.causal._ready = lambda n: True
        dependent = notification(2, 1, payload="x", deps=(EventId(1, 1),))
        node.on_gossip(gossip(sender=9, events=(dependent,)), now=1.0)
        assert [v.invariant for v in monitor.violations] == ["causality"]
        assert "dependency" in monitor.violations[0].detail

    def test_causality_checks_the_whole_interval(self):
        from ..helpers import gossip, notification

        node, monitor = self._watched_causal_node()
        node.causal._ready = lambda n: True
        # Dep (1, 3) means "all of origin 1 up to seq 3"; having delivered
        # only seq 1, the dependent delivery must still be flagged.
        node.on_gossip(gossip(sender=9, events=(notification(1, 1),)),
                       now=1.0)
        dependent = notification(2, 1, payload="x", deps=(EventId(1, 3),))
        node.on_gossip(gossip(sender=9, events=(dependent,)), now=2.0)
        assert [v.invariant for v in monitor.violations] == ["causality"]

    def test_correct_gate_never_flags_causality(self):
        from ..helpers import gossip, notification

        node, monitor = self._watched_causal_node()
        dependent = notification(2, 1, payload="x", deps=(EventId(1, 1),))
        node.on_gossip(gossip(sender=9, events=(dependent,)), now=1.0)
        node.on_gossip(gossip(sender=9, events=(notification(1, 1),)),
                       now=2.0)
        assert monitor.ok, monitor.report()
        assert node.has_delivered(EventId(2, 1))

    def test_holdback_overflow_flags_bound(self):
        from ..helpers import notification

        cfg = LpbcastConfig(causal_holdback_max=4, **self.CAUSAL_CFG)
        sim, nodes, log = small_system(n=8, seed=5, config=cfg)
        monitor = InvariantMonitor(mode="collect").attach(sim)
        gate = nodes[0].causal
        # Stuff the queue past its bound behind the gate's back (a correct
        # gate evicts; only a buggy one could reach this state).
        for seq in range(2, 9):
            held = notification(99, seq)
            gate.held[held.event_id] = held
        sim.run_round()
        kinds = {v.invariant for v in monitor.violations}
        assert "holdback-bound" in kinds
        flagged = [v for v in monitor.violations
                   if v.invariant == "holdback-bound"][0]
        assert flagged.pid == nodes[0].pid
        assert "bound 4" in flagged.detail

    def test_non_causal_nodes_skip_causality_bookkeeping(self):
        sim, nodes, log = small_system(n=8, seed=5)
        monitor = InvariantMonitor(mode="collect").attach(sim)
        nodes[0].lpb_cast("x", 0.0)
        sim.run(6)
        assert monitor._causal_pids == set()
        assert monitor.ok, monitor.report()
