"""Multi-core columnar engine: worker-count determinism and validation.

The shared-memory mode's contract is that honoured output is a pure
function of the scenario — the worker count partitions the *work*, never
the *result*.  These tests pin the honoured fingerprint across
workers=1/2/4 on a fuzzed scenario (and against the serial reference),
delivery listeners under the multi-core path, the shared-memory segment
lifecycle, and every surface where an explicit worker count is validated
(engine registry, DST harness, oracle, CLI).
"""

import os

import pytest

from repro.cli import build_parser, main
from repro.core import LpbcastConfig
from repro.dst.harness import apply_scenario
from repro.dst.oracle import check_scenario
from repro.dst.spec import ScenarioSpec, generate_spec
from repro.faults.plan import FaultPlan
from repro.metrics.delivery import DeliveryLog
from repro.sim import (
    ColumnarRoundSimulation,
    NetworkModel,
    build_lpbcast_nodes,
    create_simulation,
    derive_rng,
)
from repro.sim.columnar_runner import honoured_fingerprint, honoured_records
from repro.telemetry import counter_records


def run_columnar(workers, *, n=30, rounds=10, seed=23, loss=0.05,
                 plan=None, publishes=3):
    """A faulted columnar run at the given worker count, mirroring the
    DST harness wiring (same node build, network stream, publish draws)."""
    cfg = LpbcastConfig(fanout=3, view_max=8)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    network = NetworkModel(loss_rate=loss,
                           rng=derive_rng(seed, "dst-network"))
    sim = ColumnarRoundSimulation(network=network, seed=seed,
                                  workers=workers)
    sim.add_nodes(nodes)
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
        return counter_records(sim.telemetry), log, sim.alive_count()
    finally:
        sim.close()


def faulted_plan():
    return (FaultPlan()
            .drop(rate=0.15, start=2, stop=7)
            .partition([0, 1, 2], [3, 4, 5], start=3, heal=6)
            .crash(4, at=2, recover_at=5)
            .crash(7, at=4)
            .pause(9, at=3, duration=3))


class TestWorkerCountDeterminism:
    def test_fuzzed_scenario_fingerprint_identical_across_workers(self):
        # The headline contract: one fuzzed scenario, byte-identical
        # honoured fingerprint at every worker count, equal to serial's.
        spec = generate_spec(20260808, max_n=48, max_rounds=14)
        fingerprints = {
            w: apply_scenario(spec, "columnar", workers=w).fingerprint
            for w in (1, 2, 4)
        }
        assert len(set(fingerprints.values())) == 1, fingerprints
        serial = apply_scenario(spec, "serial")
        assert honoured_fingerprint(serial.records) == fingerprints[1]

    def test_faulted_run_matches_single_core_and_serial(self):
        plan = faulted_plan()
        single, _, alive_1 = run_columnar(1, plan=plan)
        multi, _, alive_2 = run_columnar(2, plan=plan)
        assert honoured_records(single) == honoured_records(multi)
        assert alive_1 == alive_2

    def test_delivery_listeners_fire_once_with_workers(self):
        sim = ColumnarRoundSimulation.build(40, LpbcastConfig(view_max=8),
                                            seed=9, workers=2)
        try:
            log = DeliveryLog().attach(sim.nodes.values())
            sim.nodes[0].lpb_cast("x", 0.0)
            sim.run(10)
            assert log.total_deliveries == 40
            assert log.redeliveries == 0
            (event_id,) = log.known_events()
            assert log.delivery_count(event_id) == 40
        finally:
            sim.close()


class TestShmLifecycle:
    def test_close_releases_shared_memory_segments(self):
        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):  # pragma: no cover - linux-only env
            pytest.skip("no /dev/shm to observe")
        before = set(os.listdir(shm_dir))
        sim = ColumnarRoundSimulation.build(200, LpbcastConfig(view_max=8),
                                            seed=3, workers=2)
        sim.nodes[0].lpb_cast("x", 0.0)
        sim.run(4)
        sim.close()
        leaked = {name for name in set(os.listdir(shm_dir)) - before
                  if name.startswith("psm_")}
        assert not leaked, f"leaked shm segments: {leaked}"

    def test_close_is_idempotent_and_state_survives(self):
        sim = ColumnarRoundSimulation.build(100, LpbcastConfig(view_max=8),
                                            seed=4, workers=2)
        sim.nodes[0].lpb_cast("x", 0.0)
        sim.run(6)
        ratio = sim.delivery_ratio(0)
        sim.close()
        sim.close()
        # Engine state was copied out of the segments before release.
        assert sim.delivery_ratio(0) == ratio
        assert sim.alive_count() == 100

    def test_context_manager_closes(self):
        with ColumnarRoundSimulation.build(60, LpbcastConfig(view_max=8),
                                           seed=5, workers=2) as sim:
            sim.nodes[0].lpb_cast("x", 0.0)
            sim.run(4)
        assert sim._shm is None


class TestWorkersValidation:
    def test_registry_rejects_workers_for_object_engines(self):
        with pytest.raises(ValueError, match="does not accept"):
            create_simulation("serial", workers=2)
        with pytest.raises(ValueError, match="does not accept"):
            create_simulation("sharded", shards=2, workers=2)

    @pytest.mark.parametrize("bad", [0, -1, True, 2.0, "2"])
    def test_workers_must_be_a_positive_int(self, bad):
        with pytest.raises((TypeError, ValueError)):
            ColumnarRoundSimulation(seed=1, workers=bad)

    def test_harness_rejects_workers_for_non_columnar_engines(self):
        spec = ScenarioSpec(seed=1, n=12, rounds=4, publishes=2)
        with pytest.raises(ValueError, match="'workers' applies to"):
            apply_scenario(spec, "serial", workers=2)
        with pytest.raises(ValueError, match="'workers' applies to"):
            apply_scenario(spec, "sharded", workers=4)

    def test_oracle_rejects_workers_without_a_columnar_run(self):
        spec = ScenarioSpec(seed=1, n=12, rounds=4, publishes=2)
        with pytest.raises(ValueError, match="'workers' applies to"):
            check_scenario(spec, engines=("serial", "sharded"), workers=2)

    def test_oracle_unknown_engine_error_names_the_real_knobs(self):
        # "workers" is a knob, not an engine — the error names the engines.
        spec = ScenarioSpec(seed=1, n=12, rounds=4, publishes=2)
        with pytest.raises(ValueError, match="unknown engine.*'columnar'"):
            check_scenario(spec, engines=("serial", "workers"))

    def test_oracle_runs_columnar_differential_with_workers(self):
        spec = ScenarioSpec(seed=6, n=24, rounds=8, publishes=3)
        report = check_scenario(spec, engines=("serial", "columnar"),
                                workers=2)
        assert report.ok, report.failures
        assert "columnar" in report.engines_run
        assert report.fingerprints["columnar"] == honoured_fingerprint(
            apply_scenario(spec, "serial").records)


class TestCliWorkers:
    def test_fuzz_parser_accepts_explicit_workers(self):
        args = build_parser().parse_args(
            ["fuzz", "--columnar", "--workers", "3"])
        assert args.workers == 3

    def test_fuzz_workers_default_is_single_core(self):
        args = build_parser().parse_args(["fuzz", "--columnar"])
        assert args.workers == 1

    def test_fuzz_rejects_non_positive_workers(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fuzz", "--columnar", "--workers", "0"])

    def test_fuzz_workers_without_columnar_is_an_option_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--workers", "2", "--count", "1"])
        err = capsys.readouterr().err
        assert "requires --columnar" in err

    def test_fuzz_columnar_campaign_runs_with_workers(self, capsys):
        assert main(["fuzz", "--columnar", "--workers", "2",
                     "--count", "2", "--seed", "2026", "--quiet"]) == 0
        assert "all scenarios passed" in capsys.readouterr().out
