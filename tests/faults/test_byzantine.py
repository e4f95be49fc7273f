"""The Byzantine layer end to end: mutation specs, protocol invariants,
cross-engine identity under lying plans, and the plain-vs-double-echo
agreement separation the layer exists to demonstrate."""

import random
import tracemalloc

import pytest

from repro.core import LpbcastConfig, LpbcastNode
from repro.core.events import Notification
from repro.core.ids import EventId
from repro.core.message import GossipMessage, SubscriptionAck
from repro.faults import (
    FORGE_SEQ_BASE,
    POISON_BASE,
    FaultPlan,
    InvariantMonitor,
    equivocated_payload,
    mutate_message,
)
from repro.sim import build_lpbcast_nodes, create_simulation, NetworkModel
from repro.wire import decode_binary, encode_binary

from ..helpers import small_system


def _gossip(sender=1, payload="truth"):
    return GossipMessage(
        sender=sender,
        subs=(7,),
        events=(
            Notification(EventId(sender, 1), payload, 0.0),
            Notification(EventId(99, 4), "someone-else's", 0.0),
        ),
        event_ids=((sender, 1, ()),),
    )


class TestMutateMessage:
    def test_none_spec_and_non_gossip_pass_through_by_identity(self):
        message = _gossip()
        assert mutate_message(message, None, 5) is message
        ack = SubscriptionAck(1, (2, 3))
        assert mutate_message(ack, ("equivocate", 2), 5) is ack

    def test_equivocate_rewrites_only_own_events_by_destination(self):
        message = _gossip(sender=1)
        odd = mutate_message(message, ("equivocate", 2), dst=5)
        assert odd is not message
        assert odd.events[0].payload == equivocated_payload("truth", 1)
        assert odd.events[0].payload != "truth"
        # Foreign events are untouched: the liar can only rewrite what it
        # originates.
        assert odd.events[1] == message.events[1]
        # Variant 0 keeps the original payload — identity short-circuit.
        assert mutate_message(message, ("equivocate", 2), dst=4) is message

    def test_equivocation_variants_differ_and_variant_zero_is_original(self):
        assert equivocated_payload("x", 0) == "x"
        assert equivocated_payload("x", 1) != equivocated_payload("x", 2)

    def test_forge_appends_fabricated_event_id(self):
        message = _gossip(sender=1)
        seq = FORGE_SEQ_BASE + 17
        forged = mutate_message(message, ("forge", 9, seq), dst=5)
        # The victim had no entry: it gets one, naming the forged id alone.
        assert forged.event_ids == ((1, 1, ()), (9, 0, (seq,)))
        assert message.event_ids == ((1, 1, ()),)  # original untouched
        # Idempotent: a digest already carrying the forged id is returned
        # as-is.
        assert mutate_message(forged, ("forge", 9, seq), dst=5) is forged

    def test_forge_writes_into_the_victims_entry(self):
        message = GossipMessage(1, event_ids=((9, 3, (7, 12)), (1, 1, ())))
        forged = mutate_message(message, ("forge", 9, 10), dst=5)
        assert forged.event_ids == ((9, 3, (7, 10, 12)), (1, 1, ()))
        assert decode_binary(encode_binary(forged)) == forged  # still ascending
        # An id the entry already stands for needs no forging.
        assert mutate_message(message, ("forge", 9, 2), dst=5) is message
        assert mutate_message(message, ("forge", 9, 12), dst=5) is message

    def test_poison_appends_ghost_subscription(self):
        message = _gossip(sender=1)
        ghost = POISON_BASE + 100
        poisoned = mutate_message(message, ("poison", ghost), dst=5)
        assert ghost in poisoned.subs
        assert ghost not in message.subs
        assert mutate_message(poisoned, ("poison", ghost), dst=5) is poisoned

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="unknown byzantine"):
            mutate_message(_gossip(), ("time-travel",), dst=5)


class TestFarAheadDigest:
    """A digest entry is a claim, not a loop bound: a frontier far ahead of
    anything published (forged, or merely from a long-lived origin) names at
    most ``event_ids_max`` ids as new and costs a bounded walk."""

    VICTIM = 9

    def _node(self):
        node = LpbcastNode(0, LpbcastConfig(), random.Random(0),
                           initial_view=(1, 2, 3))
        node.delivered = []
        node.add_delivery_listener(
            lambda pid, n, now: node.delivered.append(n.event_id))
        return node

    def test_delivers_at_most_event_ids_max_and_allocates_accordingly(self):
        node = self._node()
        far = GossipMessage(5, event_ids=((self.VICTIM, 2**40, ()),))
        tracemalloc.start()
        try:
            node.handle_message(5, far, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000        # nothing proportional to the frontier
        cap = node.config.event_ids_max
        assert node.delivered == [EventId(self.VICTIM, seq)
                                  for seq in range(2**40 - cap + 1, 2**40 + 1)]
        # Reading the digest moved no frontier: the genuine stream is intact.
        assert node.event_ids.last_in_sequence(self.VICTIM) == 0
        genuine = Notification(EventId(self.VICTIM, 1), "real", 2.0)
        node.handle_message(self.VICTIM,
                            GossipMessage(self.VICTIM, events=(genuine,)), 2.0)
        assert node.delivered[-1] == genuine.event_id
        assert node.event_ids.last_in_sequence(self.VICTIM) == 1

    def test_never_delivers_an_id_twice(self):
        node = self._node()
        far = GossipMessage(5, event_ids=((self.VICTIM, 2**40, (2**41,)),
                                          (self.VICTIM, 2**40, ())))
        for now in range(1, 6):        # the same claim, repeated and re-sent
            node.handle_message(5, far, float(now))
        assert len(node.delivered) == len(set(node.delivered))
        assert len(node.event_ids) <= node.config.event_ids_max


class TestProtocolInvariants:
    def _plan_with_liar(self, liar):
        return FaultPlan().equivocate(liar, rate=0.5, start=1, stop=5)

    def test_agreement_flags_conflicting_correct_deliveries(self):
        sim, nodes, _ = small_system(n=8, seed=1)
        sim.use_fault_plan(self._plan_with_liar(nodes[7].pid))
        monitor = InvariantMonitor(mode="collect").attach(sim)
        eid = EventId(3, 1)
        monitor._on_delivery(3, Notification(eid, "v1", 0.0), 0.0)
        monitor._on_delivery(4, Notification(eid, "v1", 0.0), 0.0)
        assert monitor.ok
        monitor._on_delivery(5, Notification(eid, "v2", 0.0), 0.0)
        # The conflicting payload breaks agreement, and — because the origin
        # is watched and published "v1" — validity too.
        assert [v.invariant for v in monitor.violations] == ["agreement",
                                                             "validity"]
        assert monitor.violations[0].pid == 5

    def test_byzantine_deliveries_prove_nothing(self):
        sim, nodes, _ = small_system(n=8, seed=2)
        liar = nodes[6].pid
        sim.use_fault_plan(self._plan_with_liar(liar))
        monitor = InvariantMonitor(mode="collect").attach(sim)
        eid = EventId(3, 1)
        monitor._on_delivery(3, Notification(eid, "v1", 0.0), 0.0)
        # The liar delivering something else is not an agreement violation.
        monitor._on_delivery(liar, Notification(eid, "v2", 0.0), 0.0)
        assert monitor.ok

    def test_validity_flags_ghost_event_from_unpublished_origin(self):
        sim, nodes, _ = small_system(n=8, seed=3)
        sim.use_fault_plan(self._plan_with_liar(nodes[7].pid))
        monitor = InvariantMonitor(mode="collect").attach(sim)
        # Origin 2 is correct and watched but never published — a forged
        # digest materialized a ghost delivery at process 4.
        monitor._on_delivery(4, Notification(EventId(2, 5), None, 0.0), 0.0)
        assert [v.invariant for v in monitor.violations] == ["validity"]

    def test_validity_accepts_published_events(self):
        sim, nodes, _ = small_system(n=8, seed=4)
        sim.use_fault_plan(self._plan_with_liar(nodes[7].pid))
        monitor = InvariantMonitor(mode="collect").attach(sim)
        eid = EventId(2, 1)
        # Publisher self-delivery (ground truth), then a remote delivery.
        monitor._on_delivery(2, Notification(eid, "real", 0.0), 0.0)
        monitor._on_delivery(4, Notification(eid, "real", 0.0), 0.0)
        # Digest-shortcut synthetic delivery (payload None) is also fine.
        monitor._on_delivery(5, Notification(eid, None, 0.0), 0.0)
        assert monitor.ok

    def test_view_hygiene_flags_out_of_scope_ghost_immediately(self):
        sim, nodes, _ = small_system(n=8, seed=5)
        sim.use_fault_plan(
            FaultPlan().poison_view(nodes[7].pid, rate=0.5, count=1,
                                    start=1, stop=4))
        monitor = InvariantMonitor(mode="collect").attach(sim)
        # A fabricated pid the plan never authorized: an injector bug.
        rogue_ghost = POISON_BASE + 999_999
        nodes[0].view._index[rogue_ghost] = len(nodes[0].view._items)
        nodes[0].view._items.append(rogue_ghost)
        sim.run(1)
        assert any(v.invariant == "view-hygiene"
                   and str(rogue_ghost) in v.detail
                   for v in monitor.violations)

    def test_planned_ghosts_tolerated_on_plain_lpbcast(self):
        sim, nodes, _ = small_system(n=8, seed=6)
        liar = nodes[7].pid
        sim.use_fault_plan(
            FaultPlan().poison_view(liar, rate=1.0, count=1, start=1, stop=3))
        monitor = InvariantMonitor(mode="collect").attach(sim)
        sim.run(20)  # ghosts circulate long past the window
        assert not [v for v in monitor.violations
                    if v.invariant == "view-hygiene"], monitor.report()


def _byz_plan():
    return (FaultPlan()
            .drop(0.05).duplicate(0.05).delay(0.03, delay=2)
            .equivocate(1, rate=0.8, start=1, stop=10, variants=2)
            .forge_digest(2, victim=9, rate=0.5, start=2, stop=9)
            .replay_stale(3, rate=0.5, lag=2, start=1, stop=10)
            .poison_view(4, rate=0.5, count=2, start=1, stop=10))


def _byz_run(engine, cfg, n=24, rounds=12, seed=11):
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    network = NetworkModel(loss_rate=0.05, rng=random.Random(seed + 1))
    extra = {"shards": 2} if engine == "sharded" else {}
    sim = create_simulation(engine, network=network, seed=seed, **extra)
    sim.add_nodes(nodes)
    sim.use_fault_plan(_byz_plan())

    def publish(round_no, s):
        if round_no <= 4:
            s.nodes[nodes[round_no % n].pid].lpb_cast(
                f"evt-{round_no}", float(round_no))

    sim.add_round_hook(publish)
    try:
        sim.run(rounds)
    finally:
        close = getattr(sim, "close", None)
        if close:
            close()
    return sim


def _counters(sim):
    return sim.telemetry.snapshot()["counters"]


class TestEngineParityUnderByzantinePlans:
    def test_plain_lpbcast_bit_identical_and_all_faults_strike(self):
        cfg = LpbcastConfig(fanout=3, view_max=8)
        serial = _byz_run("serial", cfg)
        sharded = _byz_run("sharded", cfg)
        assert _counters(serial) == _counters(sharded)
        for key in ("faults.equivocated", "faults.forged",
                    "faults.replayed", "faults.poisoned"):
            assert serial.telemetry.counter_total(key) > 0, key

    def test_double_echo_bit_identical_with_echo_traffic(self):
        cfg = LpbcastConfig(fanout=3, view_max=8, double_echo=True,
                            digest_implies_delivery=False)
        serial = _byz_run("serial", cfg)
        sharded = _byz_run("sharded", cfg)
        assert _counters(serial) == _counters(sharded)
        tele = serial.telemetry
        assert tele.counter_total("sim.sends", kind="EchoMessage") > 0
        assert tele.counter_total("sim.sends", kind="ReadyMessage") > 0
        assert tele.counter_total("sim.delivered") > 0


def _separation_run(seed, double_echo, engine="serial"):
    """One equivocating publisher; returns (violation kinds, deliveries)."""
    n, rounds = 16, 14
    if double_echo:
        cfg = LpbcastConfig(fanout=4, view_max=15,
                            digest_implies_delivery=False,
                            double_echo=True, echo_fanout=15,
                            echo_threshold=9, ready_threshold=9,
                            echo_pending_max=60)
    else:
        cfg = LpbcastConfig(fanout=4, view_max=15,
                            digest_implies_delivery=False)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    extra = {"shards": 2} if engine == "sharded" else {}
    sim = create_simulation(engine, seed=seed, **extra)
    sim.add_nodes(nodes)
    liar = nodes[1].pid
    sim.use_fault_plan(
        FaultPlan().equivocate(liar, rate=0.7, start=1, stop=10, variants=2))
    monitor = InvariantMonitor(mode="collect").attach(sim)

    def publish(round_no, s):
        if round_no == 1:
            s.nodes[liar].lpb_cast({"k": "v1"}, 1.0)

    sim.add_round_hook(publish)
    try:
        sim.run(rounds)
    finally:
        close = getattr(sim, "close", None)
        if close:
            close()
    kinds = sorted({v.invariant for v in monitor.violations})
    return kinds, sim.telemetry.counter_total("sim.delivered")


class TestAgreementSeparation:
    """The tentpole's demonstrated separation, pinned as a regression:
    plain lpbcast violates agreement under equivocation; the double-echo
    variant delivers the same workload with zero agreement violations."""

    def test_plain_lpbcast_violates_agreement_under_equivocation(self):
        kinds, delivered = _separation_run(seed=0, double_echo=False)
        assert kinds == ["agreement"]
        assert delivered > 0

    def test_double_echo_restores_agreement_on_the_same_workload(self):
        kinds, delivered = _separation_run(seed=0, double_echo=True)
        assert kinds == []
        assert delivered > 0

    def test_separation_holds_across_seeds(self):
        plain_violated = 0
        for seed in (0, 1, 2, 3):
            plain_kinds, _ = _separation_run(seed, double_echo=False)
            echo_kinds, echo_delivered = _separation_run(seed,
                                                         double_echo=True)
            # Agreement under double echo is deterministic (majority
            # thresholds): no seed may violate it.
            assert echo_kinds == [], f"seed={seed}: {echo_kinds}"
            assert echo_delivered > 0
            plain_violated += "agreement" in plain_kinds
        # Plain lpbcast fails on most seeds (gossip luck spares a few).
        assert plain_violated >= 3
