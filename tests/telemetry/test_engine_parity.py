"""Serial vs sharded telemetry identity — the undercount regression tests.

The old ``BandwidthMeter.instrument`` monkey-patched bound methods, which
pickling silently discarded on :class:`ShardedRoundSimulation`: sharded runs
reported (near-)zero traffic while serial runs reported the truth.  The
telemetry layer routes all accounting through shard-local registries merged
by summation, so these tests pin the contract: same seed and config, the
serial and sharded engines must report *identical* counter totals — and the
back-compat meter API must read correct, equal numbers from both.
"""

import random

import pytest

from repro.core import LpbcastConfig, LpbcastNode
from repro.faults import FaultPlan
from repro.metrics.bandwidth import BandwidthMeter
from repro.metrics.delivery import DeliveryLog
from repro.sim import (NetworkModel, build_lpbcast_nodes, create_simulation,
                       uniform_latency)
from repro.telemetry import counter_fingerprint

N = 24
ROUNDS = 10
SEED = 7
PUBLISHES = 4


def run_engine(engine, *, tracing=False, faults=False, with_meter=False,
               loss=0.0, shards=2):
    """One fixed scenario on the requested engine; returns (sim, meter).

    Callers own ``sim`` cleanup — sharded sims are closed here because the
    telemetry registry survives ``close()``.
    """
    cfg = LpbcastConfig(fanout=3, view_max=8)
    nodes = build_lpbcast_nodes(N, cfg, seed=SEED)
    network = None
    if loss:
        network = NetworkModel(loss_rate=loss, rng=random.Random(SEED + 1))
    extra = {"shards": shards} if engine == "sharded" else {}
    sim = create_simulation(engine, network=network, seed=SEED, **extra)
    sim.add_nodes(nodes)
    sim.telemetry.tracing = tracing
    meter = None
    if with_meter:
        meter = BandwidthMeter()
        sim.add_round_hook(meter.on_round)
    if faults:
        sim.use_fault_plan(
            FaultPlan().drop(0.05).duplicate(0.05).delay(0.03, delay=2)
        )

    def publish(round_no, s):
        if round_no <= PUBLISHES:
            s.nodes[nodes[round_no % N].pid].lpb_cast(
                f"evt-{round_no}", float(round_no)
            )

    sim.add_round_hook(publish)
    try:
        sim.run(ROUNDS)
    finally:
        close = getattr(sim, "close", None)
        if close is not None:
            close()
    return sim, meter


def counter_state(sim):
    """Every counter series — the deterministic part of the registry
    (timing histograms legitimately differ between runs)."""
    return sim.telemetry.snapshot()["counters"]


def trace_multiset(sim):
    """Order-insensitive view of the trace stream (sharded merge orders
    coordinator events before worker batches within a round)."""
    return sorted(
        (e.kind, e.at, e.pid, e.peer, tuple(sorted(e.data.items())))
        for e in sim.telemetry.trace
    )


class TestCounterParity:
    def test_serial_and_sharded_counters_identical(self):
        serial, _ = run_engine("serial", loss=0.05)
        sharded, _ = run_engine("sharded", loss=0.05)
        state = counter_state(serial)
        assert state == counter_state(sharded)
        assert state  # non-vacuous: the scenario produced traffic
        assert serial.telemetry.counter_total("sim.sends") > 0

    def test_parity_holds_under_faults(self):
        serial, _ = run_engine("serial", loss=0.05, faults=True)
        sharded, _ = run_engine("sharded", loss=0.05, faults=True)
        assert counter_state(serial) == counter_state(sharded)
        assert serial.telemetry.counter_total("faults.dropped") > 0

    def test_trace_streams_carry_the_same_events(self):
        serial, _ = run_engine("serial", tracing=True, faults=True, loss=0.05)
        sharded, _ = run_engine("sharded", tracing=True, faults=True,
                                loss=0.05)
        assert trace_multiset(serial) == trace_multiset(sharded)
        counts = serial.telemetry.trace.counts()
        assert counts["round.start"] == ROUNDS
        assert counts["send"] > 0
        assert counts["receive"] > 0
        assert counts["net.drop"] == \
            serial.telemetry.counter_total("net.dropped") > 0

    def test_tracing_does_not_perturb_counters(self):
        off, _ = run_engine("serial", tracing=False, faults=True, loss=0.05)
        on, _ = run_engine("serial", tracing=True, faults=True, loss=0.05)
        assert counter_state(off) == counter_state(on)

    def test_sharded_profile_includes_shard_sync(self):
        sharded, _ = run_engine("sharded")
        stats = sharded.telemetry.histogram_stats("time.shard.sync")
        assert stats is not None and stats[0] > 0


class TestMeterUndercountRegression:
    def test_sharded_meter_reports_serial_totals(self):
        """The headline bugfix: the old API's numbers no longer vanish when
        the engine pickles nodes into shard workers."""
        _, serial_meter = run_engine("serial", with_meter=True)
        _, sharded_meter = run_engine("sharded", with_meter=True)
        assert serial_meter.total_messages() > 0
        assert sharded_meter.total_messages() == serial_meter.total_messages()
        assert sharded_meter.total_elements() == serial_meter.total_elements()
        assert sharded_meter.messages_by_kind() == \
            serial_meter.messages_by_kind()
        assert sharded_meter.per_sender_totals() == \
            serial_meter.per_sender_totals()

    def test_round_traffic_matches_per_round(self):
        _, serial_meter = run_engine("serial", with_meter=True)
        _, sharded_meter = run_engine("sharded", with_meter=True)
        assert serial_meter.rounds() == sharded_meter.rounds()
        for r in serial_meter.rounds():
            a, b = serial_meter.round_traffic(r), sharded_meter.round_traffic(r)
            assert (a.messages, a.elements, a.unsized, a.by_kind) == \
                (b.messages, b.elements, b.unsized, b.by_kind)

    def test_steady_state_traffic_is_n_times_fanout(self):
        """Sanity-anchor the absolute numbers, not just equality: with every
        node alive and gossiping, each round carries n*fanout messages."""
        _, meter = run_engine("sharded", with_meter=True)
        assert meter.round_traffic(ROUNDS - 1).messages == N * 3


class TestAsyncRunnerComparability:
    """The async runtime is *not* bit-comparable with the round engines
    (independent timer phases consume different randomness), but with no
    faults and no loss the aggregate accounting is exact on both clocks:
    every node fires its timer precisely once per gossip period, so a run
    of R rounds carries n*F*R gossip messages and a broadcast reaches
    every process.  These totals anchor the async engine to the same
    telemetry contract where the round->time mapping makes them
    comparable."""

    def _run(self, engine):
        cfg = LpbcastConfig(fanout=3, view_max=8)
        nodes = build_lpbcast_nodes(N, cfg, seed=SEED)
        extra = {"shards": 2} if engine == "sharded" else {}
        sim = create_simulation(engine, seed=SEED, **extra)
        sim.add_nodes(nodes)
        log = DeliveryLog().attach(nodes)
        if engine == "async":
            # Mid-period publish: round 1's timers all fire after it.
            sim.call_at(0.5 * cfg.gossip_period,
                        lambda: sim.nodes[nodes[0].pid].lpb_cast("evt-1",
                                                                 sim.now))
            sim.run_rounds(ROUNDS, round_duration=cfg.gossip_period)
        else:
            def publish(round_no, s):
                if round_no == 1:
                    s.nodes[nodes[0].pid].lpb_cast("evt-1", float(round_no))

            sim.add_round_hook(publish)
            try:
                sim.run(ROUNDS)
            finally:
                close = getattr(sim, "close", None)
                if close is not None:
                    close()
        return sim, log

    def test_gossip_volume_matches_serial(self):
        serial, _ = self._run("serial")
        async_sim, _ = self._run("async")
        expected = N * 3 * ROUNDS
        assert serial.telemetry.counter_total(
            "sim.sends", kind="GossipMessage") == expected
        assert async_sim.telemetry.counter_total(
            "sim.sends", kind="GossipMessage") == expected

    def test_broadcast_reaches_everyone_on_both_clocks(self):
        # The DeliveryLog is the ground truth both engines share; the
        # sim.delivered counter buckets by a different clock on each and is
        # deliberately not compared here.
        _, serial_log = self._run("serial")
        _, async_log = self._run("async")
        assert serial_log.total_deliveries == N
        assert async_log.total_deliveries == N


# -- golden counter record ---------------------------------------------------
# A fixed-seed n=500 run with loss, faults and retransmissions enabled —
# large enough to exercise every hot path (alive-list maintenance, the
# record_sends fast path, buffer/view truncation, the sharded payload
# dedup).  The sha256 below fingerprints the canonical counter state of the
# seed revision; both engines must reproduce it exactly.  If an intentional
# protocol change shifts it, regenerate with::
#
#     PYTHONPATH=src python - <<'EOF'
#     from tests.telemetry.test_engine_parity import golden_run, golden_sha256
#     print(golden_sha256(golden_run("serial")))
#     EOF

GOLDEN_N = 500
GOLDEN_ROUNDS = 12
GOLDEN_SEED = 20260806
GOLDEN_PUBLISHES = 5
GOLDEN_SHA256 = \
    "4c6cdecb7d09f6758a1bc3c12530dc42380ef9302a9964328b70aac0865978ac"


def golden_run(engine, shards=2):
    cfg = LpbcastConfig(fanout=3, view_max=15, retransmissions=True,
                        digest_implies_delivery=False)
    nodes = build_lpbcast_nodes(GOLDEN_N, cfg, seed=GOLDEN_SEED)
    network = NetworkModel(loss_rate=0.05, rng=random.Random(GOLDEN_SEED + 1))
    extra = {"shards": shards} if engine == "sharded" else {}
    sim = create_simulation(engine, network=network, seed=GOLDEN_SEED,
                            **extra)
    sim.add_nodes(nodes)
    sim.use_fault_plan(
        FaultPlan().drop(0.05).duplicate(0.05).delay(0.03, delay=2)
    )

    def publish(round_no, s):
        if round_no <= GOLDEN_PUBLISHES:
            s.nodes[nodes[round_no % GOLDEN_N].pid].lpb_cast(
                f"evt-{round_no}", float(round_no)
            )

    sim.add_round_hook(publish)
    try:
        sim.run(GOLDEN_ROUNDS)
    finally:
        close = getattr(sim, "close", None)
        if close is not None:
            close()
    return sim


def golden_sha256(sim):
    """Canonical fingerprint of the counter state — the shared helper the
    DST oracle also uses, so the golden hash and the fuzzer's differential
    check can never drift apart."""
    return counter_fingerprint(sim.telemetry)


class TestGoldenCounterRecord:
    @pytest.mark.slow
    def test_engines_reproduce_the_golden_record(self):
        serial = golden_run("serial")
        sharded = golden_run("sharded")
        assert counter_state(serial) == counter_state(sharded)
        assert golden_sha256(serial) == GOLDEN_SHA256
        assert golden_sha256(sharded) == GOLDEN_SHA256
        # Non-vacuity: the scenario drove every accounting path it claims to.
        telemetry = serial.telemetry
        assert telemetry.counter_total("sim.sends") > 0
        assert telemetry.counter_total("faults.dropped") > 0
        assert telemetry.counter_total(
            "sim.sends", kind="RetransmitRequest") > 0


# -- causal-mode golden counter record ---------------------------------------
# The same bit-identity contract over the causal-delivery path: a fixed-seed
# lossy run with hold-back gates, dependency solicitation and two concurrent
# publishers per round (ordering pressure, so notifications really are held
# back).  The sharded side crosses shards through the binary wire format, so
# the hash also pins the causal record codec (tags 0x10/0x11) end to end.
# Regenerate after an intentional protocol change with::
#
#     PYTHONPATH=src python - <<'EOF'
#     from tests.telemetry.test_engine_parity import (causal_golden_run,
#                                                     golden_sha256)
#     print(golden_sha256(causal_golden_run("serial")))
#     EOF

CAUSAL_GOLDEN_N = 120
CAUSAL_GOLDEN_ROUNDS = 12
CAUSAL_GOLDEN_SEED = 20260808
CAUSAL_GOLDEN_PUBLISHES = 5
CAUSAL_GOLDEN_SHA256 = \
    "11adf4367ba2b9a3d1655cabc9f7d9d97c1837f518bea34a755ffd5711d58fd4"


def causal_golden_run(engine, shards=2):
    cfg = LpbcastConfig(fanout=3, view_max=15, retransmissions=True,
                        digest_implies_delivery=False,
                        causal_delivery=True, causal_holdback_max=32)
    nodes = build_lpbcast_nodes(CAUSAL_GOLDEN_N, cfg,
                                seed=CAUSAL_GOLDEN_SEED)
    network = NetworkModel(loss_rate=0.08,
                           rng=random.Random(CAUSAL_GOLDEN_SEED + 1))
    extra = {"shards": shards} if engine == "sharded" else {}
    sim = create_simulation(engine, network=network,
                            seed=CAUSAL_GOLDEN_SEED, **extra)
    sim.add_nodes(nodes)

    def publish(round_no, s):
        if round_no <= CAUSAL_GOLDEN_PUBLISHES:
            for k in range(2):
                pid = nodes[(2 * round_no + k) % CAUSAL_GOLDEN_N].pid
                s.nodes[pid].lpb_cast(f"evt-{round_no}-{k}", float(round_no))

    sim.add_round_hook(publish)
    try:
        sim.run(CAUSAL_GOLDEN_ROUNDS)
    finally:
        close = getattr(sim, "close", None)
        if close is not None:
            close()
    return sim


class TestCausalGoldenCounterRecord:
    @pytest.mark.slow
    def test_engines_reproduce_the_causal_golden_record(self):
        serial = causal_golden_run("serial")
        sharded = causal_golden_run("sharded")
        assert counter_state(serial) == counter_state(sharded)
        assert golden_sha256(serial) == CAUSAL_GOLDEN_SHA256
        assert golden_sha256(sharded) == CAUSAL_GOLDEN_SHA256
        # Non-vacuity: loss actually forced hold-back and dependency
        # solicitation, so the hash covers the causal paths it claims to.
        telemetry = serial.telemetry
        assert telemetry.counter_total("sim.sends") > 0
        assert telemetry.counter_total(
            "sim.sends", kind="RetransmitRequest") > 0
        assert sum(node.causal.held_back_total
                   for node in serial.nodes.values()) > 0
        assert sum(node.stats.causal_deps_solicited
                   for node in serial.nodes.values()) > 0


# -- faulted golden counter record -------------------------------------------
# The goldens above carry at most drop/duplicate/delay, and "serial ==
# sharded" still passes when both engines change together.  This record pins
# a plan composing every verdict the interpreter handles — drop, duplicate,
# delay, a partition with heal, crash-with-recovery, pause, and the
# Byzantine replay / equivocate / poison mutations — to values taken from
# the revision *before* the engines shared one round body and one verdict
# interpreter: one hash for serial and sharded (any shard count), a second
# for the async runtime under the same plan.  Regenerate after an
# intentional protocol change with::
#
#     PYTHONPATH=src python - <<'EOF'
#     from tests.telemetry.test_engine_parity import faulted_run, golden_sha256
#     print(golden_sha256(faulted_run("serial")[0]))
#     print(golden_sha256(faulted_run("async")[0]))
#     EOF

FAULTED_N = 48
FAULTED_ROUNDS = 14
FAULTED_SEED = 20261001
FAULTED_PUBLISHES = 5
FAULTED_GOLDEN_SHA256 = \
    "e0f2592487d3a7ce76c954d3d23c07e3e0d81b3a168be3c48d44ea0e9183c88f"
FAULTED_ASYNC_GOLDEN_SHA256 = \
    "b6f905a23ea69d5159ab9059494c4c35c9cfa36ff29d4d5a13407cfe33b63ec0"


def faulted_plan(n=FAULTED_N):
    return (FaultPlan()
            .drop(0.06, start=2, stop=FAULTED_ROUNDS)
            .duplicate(0.05)
            .delay(0.04, delay=2)
            .partition(range(0, n // 4), range(n // 4, n), start=4, heal=9)
            .crash(3, at=3, recover_at=8)
            .pause(11, at=5, duration=3)
            .replay_stale(5, rate=0.5, lag=2, start=1, stop=12)
            .equivocate(1, rate=0.6, start=1, stop=10, variants=2)
            .poison_view(4, rate=0.5, count=2, start=1, stop=10))


def faulted_run(engine, shards=2, tracing=False):
    """The composed-plan scenario on ``engine``; returns (sim, injector).
    Publishers are fixed by round number (pids 20..24: never crashed,
    paused or Byzantine), so no engine state feeds the workload."""
    cfg = LpbcastConfig(fanout=3, view_max=10, retransmissions=True,
                        digest_implies_delivery=False)
    nodes = build_lpbcast_nodes(FAULTED_N, cfg, seed=FAULTED_SEED)
    network = NetworkModel(loss_rate=0.05,
                           rng=random.Random(FAULTED_SEED + 1))
    extra = {"shards": shards} if engine == "sharded" else {}
    sim = create_simulation(engine, network=network, seed=FAULTED_SEED,
                            **extra)
    sim.add_nodes(nodes)
    sim.telemetry.tracing = tracing
    injector = sim.use_fault_plan(faulted_plan())

    def publish(round_no, at):
        sim.nodes[nodes[19 + round_no].pid].lpb_cast(f"evt-{round_no}", at)

    if engine == "async":
        period = cfg.gossip_period
        for r in range(1, FAULTED_PUBLISHES + 1):
            sim.call_at((r - 0.5) * period,
                        lambda r=r: publish(r, sim.now))
        sim.run_rounds(FAULTED_ROUNDS, round_duration=period)
        return sim, injector

    def publish_hook(round_no, s):
        if round_no <= FAULTED_PUBLISHES:
            publish(round_no, float(round_no))

    sim.add_round_hook(publish_hook)
    try:
        sim.run(FAULTED_ROUNDS)
    finally:
        close = getattr(sim, "close", None)
        if close is not None:
            close()
    return sim, injector


FAULTED_ENGINES = (("serial", {}), ("sharded", {"shards": 2}),
                   ("sharded", {"shards": 3}), ("async", {}))


class TestFaultedGoldenCounterRecord:
    @pytest.mark.parametrize("engine,kwargs", FAULTED_ENGINES)
    def test_engines_reproduce_the_faulted_golden_record(self, engine,
                                                         kwargs):
        sim, injector = faulted_run(engine, **kwargs)
        expected = (FAULTED_ASYNC_GOLDEN_SHA256 if engine == "async"
                    else FAULTED_GOLDEN_SHA256)
        assert golden_sha256(sim) == expected
        # Non-vacuity: every verdict the plan composes actually struck.
        stats = injector.stats
        for name in ("dropped", "partition_blocked", "duplicated",
                     "delayed", "crashes_applied", "recoveries_applied",
                     "equivocated", "replayed", "poisoned"):
            assert getattr(stats, name) > 0, name
        assert sim.telemetry.counter_total(
            "sim.sends", kind="RetransmitRequest") > 0


# -- fault-free async golden counter record ----------------------------------
# FAULTED_ASYNC_GOLDEN_SHA256 runs the async runtime at constant latency under
# a fault plan; this record pins the path the ledger's ``async_stream`` runs:
# uniform latency up to T/4, loss, publishes through ``call_at``, one
# ``join_at`` and one ``leave_at``, no fault plan.  The hash was taken on the
# revision before the event kernel dropped its per-event handles and
# closures, so it holds the kernel's (time, seq) order, not only the
# protocol.  Regenerate after an intentional protocol change with::
#
#     PYTHONPATH=src python - <<'EOF'
#     from tests.telemetry.test_engine_parity import async_run, golden_sha256
#     print(golden_sha256(async_run()))
#     EOF

ASYNC_N = 32
ASYNC_PERIODS = 30
ASYNC_SEED = 20261015
ASYNC_PUBLISHES = 8
ASYNC_GOLDEN_SHA256 = \
    "f778a1d50354035f24d83bddb5a8542de026fb96384691ebe0a817d995f8cfc7"


def async_run():
    cfg = LpbcastConfig(fanout=3, view_max=10)
    period = cfg.gossip_period
    nodes = build_lpbcast_nodes(ASYNC_N, cfg, seed=ASYNC_SEED)
    network = NetworkModel(loss_rate=0.05, rng=random.Random(ASYNC_SEED + 1),
                           latency=uniform_latency(0.0, period / 4))
    sim = create_simulation("async", network=network, seed=ASYNC_SEED)
    sim.add_nodes(nodes)
    for r in range(1, ASYNC_PUBLISHES + 1):
        sim.call_at((r - 0.5) * period,
                    lambda r=r: sim.nodes[nodes[r].pid].lpb_cast(
                        f"evt-{r}", sim.now))
    sim.join_at(LpbcastNode(ASYNC_N, cfg, random.Random(ASYNC_SEED + 2)),
                contact=nodes[0].pid, at=4.25 * period)
    sim.leave_at(nodes[ASYNC_N - 1].pid, at=10.5 * period)
    sim.run_rounds(ASYNC_PERIODS, round_duration=period)
    return sim


class TestAsyncGoldenCounterRecord:
    def test_async_runtime_reproduces_the_golden_record(self):
        sim = async_run()
        assert golden_sha256(sim) == ASYNC_GOLDEN_SHA256
        # Non-vacuity: the join and the leave took effect, and every
        # published event reached every process, the joiner included.
        assert sim.nodes[ASYNC_N].joined
        assert sim.nodes[ASYNC_N - 1].unsubscribed
        assert sum(node.stats.delivered for node in sim.nodes.values()) == \
            ASYNC_PUBLISHES * (ASYNC_N + 1)


class TestFaultVerdictTracing:
    """Every verdict that struck is traced, on every object engine, by the
    one ``_trace_verdict`` — and tracing never perturbs the counters."""

    @pytest.mark.parametrize("engine,kwargs", FAULTED_ENGINES)
    def test_traced_verdicts_match_injector_stats(self, engine, kwargs):
        traced, injector = faulted_run(engine, tracing=True, **kwargs)
        plain, _ = faulted_run(engine, **kwargs)
        assert golden_sha256(traced) == golden_sha256(plain)
        stats = injector.stats
        trace = traced.telemetry.trace
        assert len(trace.of_kind("fault.replay")) == stats.replayed > 0
        struck = stats.equivocated + stats.forged + stats.poisoned
        byzantine = trace.of_kind("fault.byzantine")
        assert len(byzantine) == struck > 0
        assert {e.data["mutation"] for e in byzantine} == \
            {"equivocate", "poison"}
        assert len(trace.of_kind("recovery")) == stats.recoveries_applied
        assert len(trace.of_kind("fault.drop")) == \
            stats.dropped + stats.partition_blocked
        assert len(trace.of_kind("fault.delay")) == stats.delayed
        # The network's own losses (ε = 0.05) complete the stream.
        assert len(trace.of_kind("net.drop")) == \
            traced.telemetry.counter_total("net.dropped") > 0

    def test_serial_and_sharded_trace_the_same_verdicts(self):
        serial, _ = faulted_run("serial", tracing=True)
        sharded, _ = faulted_run("sharded", shards=3, tracing=True)
        assert trace_multiset(serial) == trace_multiset(sharded)
        assert serial.telemetry.trace.of_kind("net.drop")

    def test_traced_byzantine_chaos_scenario_returns(self):
        # Used to raise TypeError: the event's data field was named
        # ``kind``, colliding with ``Telemetry.emit``'s first parameter.
        from repro.dst import ScenarioSpec
        from repro.sim.rng import derive_rng
        from repro.sim.scenarios import steady_state

        config = ScenarioSpec(seed=5, n=24, rounds=12, view_max=23,
                              double_echo=True).config()
        scenario = steady_state(n=24, config=config, seed=5)
        scenario.sim.telemetry.tracing = True
        scenario.sim.use_fault_plan(FaultPlan.random(
            list(range(24)), horizon=12, rng=derive_rng(5, "plan"),
            byzantine_rate=0.5, byzantine_nodes=2))
        for pid in range(5):
            scenario.nodes[pid].lpb_cast(f"x-{pid}", now=0.0)
        scenario.run(12)
        kinds = scenario.sim.telemetry.trace.counts()
        assert kinds["fault.byzantine"] > 0

    def test_every_emitted_fault_kind_is_registered(self):
        from repro.telemetry import NET_DROP, TRACE_KINDS

        for engine in ("serial", "async"):
            traced, _ = faulted_run(engine, tracing=True)  # lossy: ε = 0.05
            kinds = set(traced.telemetry.trace.counts())
            assert NET_DROP in kinds, engine
            assert kinds <= set(TRACE_KINDS), engine
