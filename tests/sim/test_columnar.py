"""ColumnarRoundSimulation: honoured parity, aggregates, early reads, scale.

The columnar engine's correctness story has two halves, and both are pinned
here: the **honoured** counter subset must match the serial engine
byte-for-byte (schedule-deterministic series), and everything else is a
**declared divergence** — which must stay declared, i.e. the full record
sets really do differ, so nobody quietly starts trusting an unhonoured
series for cross-engine comparison.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core import LpbcastConfig
from repro.faults.plan import FaultPlan
from repro.metrics.delivery import DeliveryLog
from repro.sim import (
    ColumnarRoundSimulation,
    NetworkModel,
    build_lpbcast_nodes,
    create_simulation,
    derive_rng,
)
from repro.sim.columnar_runner import (
    HONOURED_COUNTERS,
    honoured_fingerprint,
    honoured_records,
    is_honoured_record,
)
from repro.telemetry import counter_fingerprint, counter_records

#: Worker counts the parity checks run on (1 = the in-process round, whose
#: test id predates the removal of the second backend).
WORKERS = pytest.mark.parametrize("workers", [1, 2], ids=["numpy", "workers2"])


def fault_plan():
    """Crash + recovery + pause + partition + drop window, all honoured or
    delivery-shaping fault classes the columnar engine supports."""
    return (FaultPlan()
            .drop(rate=0.2, start=3, stop=9)
            .partition([0, 1, 2, 3], [4, 5, 6, 7], start=4, heal=8)
            .crash(2, at=2, recover_at=6)
            .crash(9, at=5)
            .pause(11, at=3, duration=4))


def run_engine(engine, *, workers=1, n=30, rounds=12, seed=17,
               loss=0.05, plan=None, publishes=4, ingest=None):
    cfg = LpbcastConfig(fanout=3, view_max=8)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    network = NetworkModel(loss_rate=loss, rng=derive_rng(seed, "dst-network"))
    if engine == "columnar":
        sim = ColumnarRoundSimulation(network=network, seed=seed,
                                      workers=workers)
    else:
        extra = {"shards": 2} if engine == "sharded" else {}
        sim = create_simulation(engine, network=network, seed=seed, **extra)
    if ingest is None:
        sim.add_nodes(nodes)
    else:
        ingest(sim, nodes)
    log = DeliveryLog().attach(sim.nodes.values())
    if plan is not None:
        sim.use_fault_plan(plan)
    pub_rng = derive_rng(seed, "dst-publish")
    pids = [node.pid for node in nodes]

    def hook(round_no, s):
        if round_no > publishes:
            return
        paused = getattr(s, "_fault_paused", frozenset())
        ready = [p for p in pids if s.alive(p) and p not in paused]
        if not ready:
            return
        pid = ready[pub_rng.randrange(len(ready))]
        s.nodes[pid].lpb_cast(f"evt-{round_no}", float(round_no))

    sim.add_round_hook(hook)
    try:
        sim.run(rounds)
        records = counter_records(sim.telemetry)
        aggregates = sim.node_aggregates()
        return records, log, sim.alive_count(), aggregates
    finally:
        close = getattr(sim, "close", None)
        if close is not None:
            close()


class TestHonouredParity:
    @WORKERS
    def test_fault_free_scenario_matches_serial(self, workers):
        serial, _, _, _ = run_engine("serial", plan=None, loss=0.0)
        columnar, _, _, _ = run_engine("columnar", workers=workers,
                                       plan=None, loss=0.0)
        assert honoured_records(serial) == honoured_records(columnar)

    @WORKERS
    def test_fault_plan_scenario_matches_serial(self, workers):
        serial, _, s_alive, _ = run_engine("serial", plan=fault_plan())
        columnar, _, c_alive, _ = run_engine("columnar", workers=workers,
                                             plan=fault_plan())
        assert honoured_records(serial) == honoured_records(columnar)
        assert s_alive == c_alive

    def test_reads_before_first_round_do_not_freeze_membership(self):
        # alive()/alive_count()/crash()/recover() of an unknown pid,
        # memory_bytes(), node_aggregates() and a handle's view used to
        # allocate the columns, after which add_nodes raised "frozen".
        def ingest_between_reads(sim, nodes):
            half = len(nodes) // 2
            assert not sim.alive(3)
            assert sim.alive_count() == 0
            sim.add_nodes(nodes[:half])
            assert sim.alive(3) and not sim.alive(half)
            assert sim.alive_count() == half
            sim.crash(999)
            assert not sim.recover(999) and not sim.recover(3)
            assert sim.memory_bytes() == 0
            assert sim.node_aggregates().count == half
            assert set(sim.nodes[3].view) <= set(range(half))
            sim.add_nodes(nodes[half:])

        plain, _, _, plain_agg = run_engine("columnar", plan=fault_plan())
        early, _, _, early_agg = run_engine("columnar", plan=fault_plan(),
                                            ingest=ingest_between_reads)
        assert honoured_fingerprint(early) == honoured_fingerprint(plain)
        assert early == plain  # the reads drew nothing either
        assert early_agg == plain_agg


class TestDeclaredDivergences:
    def test_honoured_filter_shape(self):
        assert HONOURED_COUNTERS == {
            "sim.rounds", "faults.crashes_applied",
            "faults.recoveries_applied", "faults.pause_rounds",
        }
        gossip = ("sim.sends",
                  (("kind", repr("GossipMessage")), ("round", repr(3))), 7)
        sub = ("sim.sends",
               (("kind", repr("SubscriptionRequest")), ("round", repr(3))), 1)
        assert is_honoured_record(gossip)
        assert not is_honoured_record(sub)
        assert is_honoured_record(("sim.rounds", (), 12))
        assert not is_honoured_record(("sim.delivered", (), 40))
        assert not is_honoured_record(("net.sent", (), 40))

    def test_divergences_stay_declared(self):
        # The columnar engine is NOT bit-identical outside the honoured
        # subset — this pin fails if the two engines ever agree on the full
        # record set, at which point the declared-divergence documentation
        # (docs/experiments-guide.md) and this contract should be revisited.
        serial, _, _, _ = run_engine("serial", plan=fault_plan())
        columnar, _, _, _ = run_engine("columnar", plan=fault_plan())
        assert honoured_records(serial) == honoured_records(columnar)
        assert serial != columnar

    def test_byzantine_plans_rejected(self):
        sim = ColumnarRoundSimulation(seed=1)
        sim.add_nodes(build_lpbcast_nodes(8, LpbcastConfig(view_max=4),
                                          seed=1))
        with pytest.raises(ValueError, match="Byzantine"):
            sim.use_fault_plan(FaultPlan().equivocate(1, rate=0.5))

    def test_causal_configs_rejected(self):
        # Declared divergence: the columnar engine keeps no per-notification
        # metadata, so the causal hold-back queue cannot be honoured.
        cfg = LpbcastConfig(view_max=4, causal_delivery=True,
                            digest_implies_delivery=False)
        sim = ColumnarRoundSimulation(seed=1)
        sim.add_nodes(build_lpbcast_nodes(8, cfg, seed=1))
        with pytest.raises(ValueError, match="causal"):
            sim.run_round()


class TestEngineBasics:
    def test_build_draws_distinct_views_without_self(self):
        cfg = LpbcastConfig(fanout=3, view_max=6)
        sim = ColumnarRoundSimulation.build(50, cfg, seed=3)
        for pid in range(50):
            view = sim.nodes[pid].view
            assert len(view) == 6
            assert len(set(view)) == 6
            assert pid not in view

    def test_build_small_system_views_cap_at_n_minus_one(self):
        cfg = LpbcastConfig(fanout=3, view_max=25)
        sim = ColumnarRoundSimulation.build(5, cfg, seed=3)
        assert len(sim.nodes[0].view) == 4

    def test_membership_freezes_after_first_round(self):
        sim = ColumnarRoundSimulation(seed=4)
        sim.add_nodes(build_lpbcast_nodes(6, LpbcastConfig(view_max=4),
                                          seed=4))
        sim.run_round()
        extra = build_lpbcast_nodes(1, LpbcastConfig(view_max=4), seed=5,
                                    first_pid=100)[0]
        with pytest.raises(RuntimeError, match="frozen"):
            sim.add_node(extra)

    def test_crash_recover_alive_count(self):
        sim = ColumnarRoundSimulation.build(10, LpbcastConfig(view_max=4),
                                            seed=6)
        assert sim.alive_count() == 10
        sim.crash(3)
        assert not sim.alive(3)
        assert sim.alive_count() == 9
        assert sim.recover(3)
        assert not sim.recover(3)  # already alive
        assert sim.alive_count() == 10

    def test_invalid_backend_rejected(self):
        for backend in ("python", "fortran"):
            with pytest.raises(ValueError, match="backend option was removed"):
                ColumnarRoundSimulation.build(10, seed=6, backend=backend)

    def test_backend_is_gone_from_constructor_and_factory(self):
        with pytest.raises(TypeError):
            ColumnarRoundSimulation(backend="numpy")
        with pytest.raises(ValueError, match="unknown create_simulation"):
            create_simulation("columnar", backend="numpy")

    def test_build_backend_numpy_selects_nothing(self):
        def fingerprint(**kwargs):
            sim = ColumnarRoundSimulation.build(
                200, LpbcastConfig(view_max=8), seed=12, **kwargs)
            sim.nodes[0].lpb_cast("x", 0.0)
            sim.run(6)
            return counter_fingerprint(sim.telemetry)

        assert fingerprint(backend="numpy") == fingerprint()

    def test_dissemination_reaches_everyone(self):
        sim = ColumnarRoundSimulation.build(200, LpbcastConfig(), seed=8)
        sim.nodes[0].lpb_cast("x", 0.0)
        sim.run(8)
        assert sim.delivery_ratio(0) == 1.0

    def test_delivery_listeners_fire_once_per_delivery(self):
        sim = ColumnarRoundSimulation.build(40, LpbcastConfig(view_max=8),
                                            seed=9)
        log = DeliveryLog().attach(sim.nodes.values())
        sim.nodes[0].lpb_cast("x", 0.0)
        sim.run(10)
        assert log.total_deliveries == 40
        assert log.redeliveries == 0
        (event_id,) = log.known_events()
        assert log.delivery_count(event_id) == 40

    def test_run_until_predicate(self):
        sim = ColumnarRoundSimulation.build(60, LpbcastConfig(view_max=8),
                                            seed=10)
        sim.nodes[0].lpb_cast("x", 0.0)
        stopped = sim.run_until(lambda s: s.delivery_ratio(0) >= 1.0,
                                max_rounds=30)
        assert 0 < stopped <= 30
        assert sim.round == stopped

    @pytest.mark.parametrize("events", [7, 8], ids=["spare-row", "full"])
    def test_delivery_ratio_refuses_negative_rows(self, events):
        # Event rows grow 8 at a time: with 7 events row -1 was the spare
        # row (ratio 0.0), with 8 it aliased event 7.
        sim = ColumnarRoundSimulation.build(40, LpbcastConfig(view_max=8),
                                            seed=9)
        for pid in range(events):
            sim.nodes[pid].lpb_cast(pid, 0.0)
        with pytest.raises(ValueError, match="event"):
            sim.delivery_ratio(-1)
        assert sim.delivery_ratio(events - 1) == 1 / 40
        assert sim.delivery_ratio(events) == sim.delivery_ratio(99) == 0.0


class TestBuildViews:
    #: SHA-256 of the int32 view matrices of build(200, seed 1),
    #: build(5 000, seed 2) and build(100 000, seed 3) at l = 25, taken
    #: before the exact per-row draw was added for small systems.
    VIEWS_SHA256 = ("dbf726117f37d9b33213696936e6d241"
                    "20d9a445e42b9d79000e3cab87b9bf96")

    def test_views_pinned_where_the_redraw_converges(self):
        digest = hashlib.sha256()
        for n, seed in ((200, 1), (5_000, 2), (100_000, 3)):
            sim = ColumnarRoundSimulation.build(
                n, LpbcastConfig(fanout=3, view_max=25), seed=seed)
            sim._ensure_started()
            digest.update(np.ascontiguousarray(sim._view_mat,
                                               dtype=np.int32).tobytes())
        assert digest.hexdigest() == self.VIEWS_SHA256

    @pytest.mark.parametrize("n, view_max", [(16, 15), (17, 15), (26, 25),
                                             (36, 25), (1000, 500), (5, 25)])
    def test_views_near_n_are_distinct_sorted_and_exclude_the_owner(
            self, n, view_max):
        # A duplicate-free row of l draws from n-1 is rare here: the
        # redraw-until-distinct loop never returned for most of these.
        sim = ColumnarRoundSimulation.build(
            n, LpbcastConfig(fanout=3, view_max=view_max), seed=5)
        size = min(view_max, n - 1)
        for owner in range(n):
            view = sim.nodes[owner].view
            assert len(view) == size
            assert view == sorted(set(view))
            assert owner not in view and 0 <= min(view) and max(view) < n


class TestPidLookup:
    """A built system's pids are ``range(n)``: every lookup must answer
    what a dict keyed by those pids answers.  The table was recorded on
    that dict."""

    N = 10
    VIEWS = {1: [4, 5, 8, 9], 2: [1, 7, 8, 9], 5: [0, 2, 3, 8]}  # seed 3
    #: key -> the node index it names (None: no such process)
    PINNED = [(5, 5), (np.int64(5), 5), (np.int32(5), 5), (True, 1),
              (1.0, 1), (np.float64(2.0), 2), (5.5, None), (-1, None),
              (-2, None), (2**61 + 4, None), (N, None), ("x", None),
              (None, None)]
    IDS = ["int", "int64", "int32", "bool", "float", "float64", "fraction",
           "minus-one", "minus-two", "hashes-to-5", "n", "str", "None"]

    @pytest.mark.parametrize("started", [False, True],
                             ids=["before-start", "started"])
    @pytest.mark.parametrize("key, index", PINNED, ids=IDS)
    def test_answers_as_the_dict_did(self, key, index, started):
        sim = ColumnarRoundSimulation.build(self.N, LpbcastConfig(view_max=4),
                                            seed=3)
        if started:
            sim.run_round()
        known = index is not None
        assert sim.alive(key) is known
        assert (key in sim.nodes) is known
        assert sim.node_aggregates(pids=[key]).count == known
        if known:
            view = sim.nodes[key].view
            assert view == self.VIEWS[index]
            assert all(type(peer) is int for peer in view)
        else:
            with pytest.raises(KeyError):
                sim.nodes[key]
        sim.crash(key)
        assert sim.alive_count() == self.N - known
        assert sim.recover(key) is known
        assert sim.alive_count() == self.N

    def test_unhashable_keys_raise_as_the_dict_did(self):
        sim = ColumnarRoundSimulation.build(self.N, seed=3)
        with pytest.raises(TypeError):
            sim.alive([5])


class TestBuildMemory:
    def test_build_holds_no_per_process_objects(self):
        # Peak traced bytes per process over build(200_000) and two rounds
        # (numpy buffers are traced; numpy 2.4, Python 3.11): 326.2 B with
        # a pid list and an identity dict, 251.9 B with range(n) and no
        # dict, 189.9 B once only the stat columns that cannot be derived
        # are stored and view lengths are one byte (memory_bytes() 146.8 B;
        # the view matrix alone is 100 B).
        n = 200_000
        tracemalloc.start()
        try:
            sim = ColumnarRoundSimulation.build(
                n, LpbcastConfig(fanout=3, view_max=25), seed=1)
            sim.nodes[0].lpb_cast("x", 0.0)
            sim.run(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 200, f"{peak / n:.1f} B per process"


class TestAggregatesMatrix:
    """node_aggregates across all four engines on one fixed-seed scenario.

    serial == sharded exactly (the PR 4 contract); async and columnar agree
    on the schedule-deterministic slice — process count and published sum
    for both, plus the per-tick ``gossips_sent`` sum for columnar (one tick
    per alive unpaused process per round on both round-based engines).
    """

    def _matrix(self, plan):
        out = {}
        for engine in ("serial", "sharded", "columnar"):
            *_, agg = run_engine(engine, n=24, rounds=8, plan=plan)
            out[engine] = agg
        # The async runtime shares the spec vocabulary via the DST harness.
        from repro.dst.harness import apply_scenario
        from repro.dst.spec import ScenarioSpec

        spec = ScenarioSpec(seed=17, n=24, rounds=8, publishes=4)
        outcome = apply_scenario(spec, "async")
        out["async_alive"] = outcome.alive
        return out

    def test_fault_free_matrix(self):
        m = self._matrix(None)
        serial, sharded, columnar = m["serial"], m["sharded"], m["columnar"]
        assert serial.count == sharded.count == columnar.count == 24
        assert serial.stat_sums == sharded.stat_sums
        assert serial.occupancy_sums == sharded.occupancy_sums
        assert serial.in_degree == sharded.in_degree
        assert (serial.stat_sums["published"]
                == columnar.stat_sums["published"] == 4)
        assert (serial.stat_sums["gossips_sent"]
                == columnar.stat_sums["gossips_sent"])
        assert m["async_alive"] == 24

    def test_crash_heavy_matrix(self):
        # A third of the system fail-stops mid-run; the alive populations
        # (and therefore every schedule-deterministic sum) must agree.
        plan = FaultPlan()
        for pid in range(8):
            plan.crash(pid, at=3 + (pid % 3))
        m = self._matrix(plan)
        serial, sharded, columnar = m["serial"], m["sharded"], m["columnar"]
        assert serial.count == sharded.count == columnar.count == 16
        assert serial.stat_sums == sharded.stat_sums
        assert (serial.stat_sums["published"]
                == columnar.stat_sums["published"])
        assert (serial.stat_sums["gossips_sent"]
                == columnar.stat_sums["gossips_sent"])


class TestInDegreeBincount:
    """``node_aggregates`` counts in-degrees with a bincount over the view
    matrix; the per-slot Python loop it replaced is the reference."""

    @staticmethod
    def loop_reference(sim, pids=None):
        graph_nodes, in_degree = set(), {}
        for pid in sim.nodes if pids is None else pids:
            if pid in sim.nodes and sim.alive(pid):
                graph_nodes.add(pid)
                for peer in sim.nodes[pid].view:
                    graph_nodes.add(peer)
                    in_degree[peer] = in_degree.get(peer, 0) + 1
        return graph_nodes, in_degree

    @pytest.mark.parametrize("ingest", [False, True],
                             ids=["build", "ragged-ingest"])
    def test_equals_the_loop_with_crashed_nodes(self, ingest):
        n = 2_000
        if ingest:
            cfg = LpbcastConfig(fanout=3, view_max=9)
            sim = ColumnarRoundSimulation(seed=5)
            sim.add_nodes(build_lpbcast_nodes(n, cfg, seed=5)[:n - 40])
        else:
            sim = ColumnarRoundSimulation.build(
                n, LpbcastConfig(fanout=3, view_max=12), seed=5)
        before = sim.node_aggregates()  # rows still hold pids
        assert (before.graph_nodes, before.in_degree) \
            == self.loop_reference(sim)
        sim.nodes[0].lpb_cast("x", 0.0)
        sim.run(2)
        for pid in range(0, 600, 3):
            sim.crash(pid)
        for pids in (None, list(range(100, 900)) + [10**6]):
            agg = sim.node_aggregates(pids)
            assert (agg.graph_nodes, agg.in_degree) \
                == self.loop_reference(sim, pids)
        assert sim.node_aggregates().count == n - 200 - (40 if ingest else 0)


@pytest.mark.slow
class TestScale:
    def test_mega_scale_run_within_budget(self):
        import time

        cfg = LpbcastConfig(fanout=3, view_max=25)
        begin = time.perf_counter()
        sim = ColumnarRoundSimulation.build(100_000, cfg, seed=1)
        sim.nodes[0].lpb_cast("mega", 0.0)
        sim.run(20)
        elapsed = time.perf_counter() - begin
        assert sim.round == 20
        assert sim.delivery_ratio(0) > 0.999
        assert elapsed < 60.0, f"n=100k x 20 rounds took {elapsed:.1f}s"

    def test_a_million_processes_fit_their_footprint(self):
        # build(10**6), one publish, three rounds, in a fresh interpreter so
        # ru_maxrss is this run's alone.  Measured (numpy 2.4, Python 3.11,
        # 2 vCPUs): 145.6 B per process and 186 MB peak RSS (207.6 B and
        # 229 MB while every stat column was stored and view lengths were
        # int64).
        import json
        import os
        import subprocess
        import sys

        import repro

        script = (
            "import json, resource, sys\n"
            "from repro.core import LpbcastConfig\n"
            "from repro.sim import ColumnarRoundSimulation\n"
            "n = 10**6\n"
            "sim = ColumnarRoundSimulation.build(\n"
            "    n, LpbcastConfig(fanout=3, view_max=25), seed=1)\n"
            "sim.nodes[0].lpb_cast('x', 0.0)\n"
            "sim.run(3)\n"
            "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "rss /= 2**20 if sys.platform == 'darwin' else 2**10\n"
            "print(json.dumps([sim.memory_bytes() / n, rss]))\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        per_process, peak_mb = json.loads(out.stdout.splitlines()[-1])
        assert per_process < 150, f"{per_process:.1f} B per process"
        assert peak_mb < 200, f"peak RSS {peak_mb:.0f} MB"
