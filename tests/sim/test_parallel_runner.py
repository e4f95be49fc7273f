"""Tests for the sharded multi-process round engine.

The headline property is *bit-for-bit equivalence*: for the same root seed,
the sharded engine must reproduce the serial engine's delivery trace,
per-round accounting and final node statistics exactly — under loss,
crashes, churn and mid-run publication.  The remaining tests cover the
engine surface (proxies, tethering, collect, error modes, the factory).
"""

import pickle
import random

import pytest

from repro.core import LpbcastConfig, LpbcastNode
from repro.core.message import Outgoing
from repro.faults import FaultPlan
from repro.metrics import DeliveryLog
from repro.wire import unpack_messages
from repro.sim import (
    BroadcastWorkload,
    NetworkModel,
    NodeProxy,
    RoundSimulation,
    ShardedRoundSimulation,
    build_lpbcast_nodes,
    create_simulation,
)

CFG = LpbcastConfig(fanout=3, view_max=8, events_max=25, event_ids_max=50)


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


def lpbcast_run(engine, shards=None, n=40, rounds=10, seed=11, churn=True):
    """One full scenario (loss + crashes + workload + churn); returns
    everything two engines must agree on."""
    network = NetworkModel(loss_rate=0.05, rng=random.Random(99))
    sim = create_simulation(engine, network=network, seed=seed, shards=shards)
    nodes = build_lpbcast_nodes(n, CFG, seed=seed)
    sim.add_nodes(nodes)
    log = DeliveryLog().attach(nodes)
    workload = BroadcastWorkload([node.pid for node in nodes[:4]],
                                 events_per_round=2, start=1, stop=rounds - 2)
    sim.add_round_hook(workload.on_round)
    sim.use_fault_plan(FaultPlan().crash(17, at=3).crash(29, at=rounds // 2))

    if churn:
        def churn_hook(round_number, s):
            if round_number == 4:
                newcomer = LpbcastNode(pid=9999, config=CFG,
                                       rng=random.Random(4242))
                s.add_node(newcomer)
                s.inject(9999, newcomer.start_join(1, float(round_number)))
            if round_number == rounds - 3 and s.alive(2):
                s.nodes[2].try_unsubscribe(float(round_number))

        sim.add_round_hook(churn_hook)

    per_round = []
    sim.add_observer(lambda r, s: per_round.append((
        r, s.messages_delivered, s.messages_to_crashed,
        s.messages_to_unknown, s.network.messages_offered,
        s.network.messages_dropped,
    )))
    sim.run(rounds)
    if isinstance(sim, ShardedRoundSimulation):
        sim.collect()
    stats = {
        pid: (node.stats.delivered, node.stats.gossips_sent,
              node.stats.duplicates, node.stats.events_dropped,
              node.stats.event_ids_evicted)
        for pid, node in sim.nodes.items()
    }
    trace = sorted(
        (pid, event_id, at)
        for (pid, event_id), at in log._first_delivery_time.items()
    )
    return stats, trace, per_round, sorted(sim.crashed), len(workload.records)


class TestEquivalence:
    def test_bit_identical_delivery_trace_and_stats(self):
        serial = lpbcast_run("serial")
        sharded = lpbcast_run("sharded", shards=3)
        stats_s, trace_s, rounds_s, crashed_s, published_s = serial
        stats_p, trace_p, rounds_p, crashed_p, published_p = sharded
        assert trace_p == trace_s          # every (pid, event, time) triple
        assert stats_p == stats_s          # final per-node statistics
        assert rounds_p == rounds_s        # per-round delivery/loss counters
        assert crashed_p == crashed_s
        assert published_p == published_s

    def test_shard_count_does_not_change_the_run(self):
        one = lpbcast_run("sharded", shards=1, churn=False, rounds=6)
        four = lpbcast_run("sharded", shards=4, churn=False, rounds=6)
        assert one == four

    def test_different_seeds_differ(self):
        a = lpbcast_run("sharded", shards=2, churn=False, rounds=6, seed=1)
        b = lpbcast_run("sharded", shards=2, churn=False, rounds=6, seed=2)
        assert a[1] != b[1]


class TestSurface:
    def test_echo_roundtrip_and_collect(self):
        sim = ShardedRoundSimulation(shards=2)
        sim.add_nodes([Echo(1, 2), Echo(2, 1)])
        sim.run(3)
        nodes = sim.collect()
        assert nodes[1].sent == 3
        assert len(nodes[2].received) == 3
        assert not isinstance(sim.nodes[1], NodeProxy)  # real again

    def test_run_until(self):
        with ShardedRoundSimulation(shards=2) as sim:
            sim.add_nodes([Echo(1, 2), Echo(2, 1)])
            assert sim.run_until(lambda s: s.round >= 4, max_rounds=10) == 4

    def test_inject_prestart_delivered(self):
        sim = ShardedRoundSimulation(shards=2)
        sim.add_nodes([Echo(1, 2), Echo(2, 1)])
        sim.inject(1, [Outgoing(2, "hello")])
        sim.run_round()
        nodes = sim.collect()
        assert (1, "hello") in nodes[2].received

    def test_detached_original_node_is_tethered(self):
        sim = ShardedRoundSimulation(shards=2)
        nodes = build_lpbcast_nodes(4, CFG, seed=0)
        sim.add_nodes(nodes)
        sim.run_round()  # starts the engine, ships the nodes
        with pytest.raises(RuntimeError, match="lives in a shard"):
            nodes[0].lpb_cast("late", now=1.0)
        sim.close()

    def test_proxy_blocks_engine_driven_entry_points(self):
        sim = ShardedRoundSimulation(shards=2)
        sim.add_nodes(build_lpbcast_nodes(4, CFG, seed=0))
        sim.run_round()
        proxy = sim.nodes[1]
        assert isinstance(proxy, NodeProxy)
        with pytest.raises(RuntimeError):
            proxy.on_tick(2.0)
        with pytest.raises(RuntimeError):
            proxy.handle_message(2, object(), 2.0)
        sim.close()

    def test_proxy_reads_refresh(self):
        sim = ShardedRoundSimulation(shards=2)
        sim.add_nodes(build_lpbcast_nodes(6, CFG, seed=3))
        sim.nodes[1].lpb_cast("x", now=0.0)  # pre-start: real node
        sim.run(2)
        before = sim.nodes[1].stats.gossips_sent  # stale replica
        sim.refresh_nodes()
        after = sim.nodes[1].stats.gossips_sent
        assert after >= before
        assert after >= 1
        sim.close()

    def test_collect_reattaches_listeners(self):
        sim = ShardedRoundSimulation(shards=2)
        nodes = build_lpbcast_nodes(6, CFG, seed=3)
        sim.add_nodes(nodes)
        log = DeliveryLog().attach(nodes)
        nodes[0].lpb_cast("x", now=0.0)
        sim.run(3)
        collected = sim.collect()
        assert log.on_delivery in collected[0]._listeners
        # post-collect deliveries reach the same log again
        n_before = log.total_deliveries
        collected[0].lpb_cast("y", now=4.0)
        assert log.total_deliveries == n_before + 1

    def test_mid_run_listener_attach(self):
        sim = ShardedRoundSimulation(shards=2)
        nodes = build_lpbcast_nodes(6, CFG, seed=3)
        sim.add_nodes(nodes)
        sim.run_round()
        seen = []
        sim.nodes[1].add_delivery_listener(
            lambda pid, notification, now: seen.append(notification.event_id))
        sim.nodes[2].lpb_cast("x", now=1.0)
        sim.run(4)
        sim.close()
        assert seen  # gossip reached pid 1 and the late listener saw it

    def test_run_round_after_collect_raises(self):
        sim = ShardedRoundSimulation(shards=2)
        sim.add_nodes([Echo(1, 2), Echo(2, 1)])
        sim.run_round()
        sim.collect()
        with pytest.raises(RuntimeError):
            sim.run_round()

    def test_add_node_mid_run_duplicate_rejected(self):
        sim = ShardedRoundSimulation(shards=2)
        sim.add_nodes([Echo(1, 2), Echo(2, 1)])
        sim.run_round()
        with pytest.raises(ValueError):
            sim.add_node(Echo(1, 2))
        sim.close()


class TestErrors:
    class Faulty(Echo):
        def on_tick(self, now):
            raise RuntimeError("boom")

    def test_raise_mode_propagates(self):
        sim = ShardedRoundSimulation(shards=2)
        sim.add_nodes([self.Faulty(1, 2), Echo(2, 1)])
        with pytest.raises(RuntimeError, match="boom"):
            sim.run_round()
        sim.close()


class TestFactory:
    def test_serial_engine(self):
        sim = create_simulation("serial", seed=3)
        assert type(sim) is RoundSimulation

    def test_sharded_engine(self):
        sim = create_simulation("sharded", seed=3, shards=2)
        assert isinstance(sim, ShardedRoundSimulation)
        assert sim.shards == 2

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            create_simulation("quantum")

    def test_nonpositive_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedRoundSimulation(shards=0)

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5, "2"])
    def test_shards_must_be_a_positive_int(self, bad):
        with pytest.raises(ValueError, match="shards must be"):
            create_simulation("sharded", shards=bad)

    def test_columnar_engine_registered(self):
        from repro.sim.columnar_runner import ColumnarRoundSimulation
        from repro.sim.engines import ENGINES

        assert "columnar" in ENGINES
        sim = create_simulation("columnar", seed=3)
        assert isinstance(sim, ColumnarRoundSimulation)

    def test_unknown_kwarg_rejected_for_every_engine(self):
        from repro.sim.engines import ENGINES

        for engine in ENGINES:
            with pytest.raises(ValueError,
                               match="unknown create_simulation kwarg"):
                create_simulation(engine, fanout=3)

    def test_non_default_kwarg_names_the_engines_that_accept_it(self):
        # shards=4 on the serial engine must fail loudly, not silently run
        # single-process — and the message must point at the sharded engine.
        with pytest.raises(ValueError, match=r"does not accept.*sharded"):
            create_simulation("serial", shards=4)
        with pytest.raises(ValueError, match="does not accept"):
            create_simulation("columnar", shards=2)

    def test_default_values_are_legal_everywhere(self):
        # Passing a default cannot change behaviour, so generic call sites
        # may forward the full kwarg set without per-engine plumbing.
        sim = create_simulation("serial", shards=None, workers=1)
        assert type(sim) is RoundSimulation

    def test_sharded_wire_format_knob_is_gone(self):
        # The cross-shard batch format is decided by the batch's content
        # (binary, whole-batch pickle fallback); no option forces it.
        with pytest.raises(ValueError, match="unknown create_simulation kwarg"):
            create_simulation("sharded", wire_format="pickle")

    def test_registry_accepts_only_known_kwargs(self):
        from repro.sim.engines import ENGINE_REGISTRY, FACTORY_DEFAULTS

        for spec in ENGINE_REGISTRY.values():
            assert spec.accepts <= set(FACTORY_DEFAULTS), spec.name


class TestFetchDedup:
    """The cross-shard payload sync serializes each unique message once.

    A gossip fanned out to F destinations is one message object behind F
    outbox handles; ``do_fetch`` groups unique payloads by their
    destination-shard signature and every shard in a signature receives the
    *same* blob bytes — encoded once, forwarded untouched.
    """

    def _state_with_fanout(self):
        from repro.sim.parallel_runner import _ShardState

        state = _ShardState(0)
        gossip = ("gossip", tuple(range(40)))
        control = ("control",)
        handles = {
            "g1": state._stash(1, Outgoing(101, gossip)),
            "g2": state._stash(1, Outgoing(102, gossip)),
            "g3": state._stash(1, Outgoing(201, gossip)),
            "c": state._stash(2, Outgoing(103, control)),
        }
        return state, gossip, control, handles

    def test_shared_payload_ships_one_blob_to_both_shards(self):
        state, gossip, control, h = self._state_with_fanout()
        served = state.do_fetch({1: [h["g1"], h["g2"], h["c"]],
                                 2: [h["g3"]]})
        entries1, blobs1 = served[1]
        entries2, blobs2 = served[2]
        shared = set(blobs1) & set(blobs2)
        assert len(shared) == 1  # the gossip's group spans both shards
        group = shared.pop()
        assert blobs1[group] is blobs2[group]  # identical bytes, not a copy
        # Two unique messages in total -> exactly two encoded groups.
        assert len({id(b) for b in (*blobs1.values(), *blobs2.values())}) == 2
        by_handle = {handle: (g, i) for handle, g, i in entries1}
        assert set(by_handle) == {h["g1"], h["g2"], h["c"]}
        assert by_handle[h["g1"]] == by_handle[h["g2"]]  # one payload slot

    def test_roundtrip_reconstructs_every_payload(self):
        state, gossip, control, h = self._state_with_fanout()
        served = state.do_fetch({1: [h["g1"], h["g2"], h["c"]],
                                 2: [h["g3"]]})
        for dst_shard, wanted in ((1, {h["g1"]: gossip, h["g2"]: gossip,
                                       h["c"]: control}),
                                  (2, {h["g3"]: gossip})):
            entries, blobs = served[dst_shard]
            loaded = {g: unpack_messages(blob) for g, blob in blobs.items()}
            got = {handle: loaded[g][i] for handle, g, i in entries}
            assert got == wanted


class TestCrossShardWireFormat:
    """The cross-shard batch format: compact binary with a pickle fallback
    that preserves the engine's bit-identity contract."""

    def _fetch_blob(self, message):
        from repro.sim.parallel_runner import _ShardState

        state = _ShardState(0)
        handle = state._stash(1, Outgoing(2, message))
        served = state.do_fetch({1: [handle]})
        _entries, blobs = served[1]
        return next(iter(blobs.values()))

    def test_protocol_messages_travel_binary(self):
        from repro.core.message import GossipMessage
        from repro.wire import unpack_messages
        from repro.wire.shard import BLOB_BINARY

        message = GossipMessage(sender=1, subs=(2, 3))
        blob = self._fetch_blob(message)
        assert blob[0] == BLOB_BINARY
        assert unpack_messages(blob) == [message]

    def test_unstable_payload_falls_back_to_pickle(self):
        from repro.core.events import Notification
        from repro.core.ids import EventId
        from repro.core.message import GossipMessage
        from repro.wire import unpack_messages
        from repro.wire.shard import BLOB_PICKLE

        # A tuple payload would come back as a list from the JSON
        # embedding; the strict binary path must refuse it and the whole
        # batch must ship as pickle so the decoded object stays equal.
        message = GossipMessage(
            sender=1,
            events=(Notification(EventId(1, 1), ("tu", "ple"), 0.0),),
        )
        blob = self._fetch_blob(message)
        assert blob[0] == BLOB_PICKLE
        decoded = unpack_messages(blob)
        assert decoded == [message]
        assert decoded[0].events[0].payload == ("tu", "ple")

    def test_sharded_run_with_tuple_payloads_matches_serial(self):
        # End-to-end: a workload whose payloads defeat the binary codec
        # still produces bit-identical counter records via the fallback.
        from repro.telemetry import counter_records

        outcomes = {}
        for engine, kwargs in (("serial", {}),
                               ("sharded", {"shards": 3})):
            nodes = build_lpbcast_nodes(12, CFG, seed=31)
            sim = create_simulation(engine, seed=31, **kwargs)
            sim.add_nodes(nodes)
            sim.nodes[nodes[0].pid].lpb_cast(("tuple", "payload"), 0.0)
            sim.nodes[nodes[1].pid].lpb_cast("plain string", 0.0)
            sim.run(8)
            outcomes[engine] = counter_records(sim.telemetry)
            if hasattr(sim, "close"):
                sim.close()
        assert outcomes["serial"] == outcomes["sharded"]
