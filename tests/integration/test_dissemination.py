"""End-to-end dissemination: simulation matches the paper's analysis."""

import random

import pytest

from repro.analysis import InfectionMarkovChain
from repro.core import LpbcastConfig
from repro.metrics import DeliveryLog, InfectionObserver, in_degree_stats
from repro.sim import NetworkModel, RoundSimulation, build_lpbcast_nodes


def run_infection(n, l, fanout=3, loss=0.05, seed=0, rounds=12):
    cfg = LpbcastConfig(fanout=fanout, view_max=l)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    sim = RoundSimulation(
        NetworkModel(loss_rate=loss, rng=random.Random(seed + 777)), seed=seed
    )
    sim.add_nodes(nodes)
    log = DeliveryLog().attach(nodes)
    event = nodes[0].lpb_cast("x", now=0.0)
    observer = InfectionObserver(log, event.event_id)
    sim.add_observer(observer.on_round)
    sim.run(rounds)
    return observer.curve(rounds), nodes


class TestFullInfection:
    def test_everyone_infected_n125(self):
        curve, _ = run_infection(125, l=25)
        assert curve[-1] == 125

    def test_everyone_infected_despite_losses(self):
        curve, _ = run_infection(60, l=12, loss=0.2, rounds=16)
        assert curve[-1] == 60

    def test_epidemic_grows_then_saturates(self):
        curve, _ = run_infection(125, l=25)
        growth = [b - a for a, b in zip(curve, curve[1:])]
        peak = growth.index(max(growth))
        assert 1 <= peak <= 6
        assert curve[-1] == curve[-2]  # saturated


class TestAnalysisCorrelation:
    @pytest.mark.slow
    @pytest.mark.parametrize("n", [125, 250])
    def test_simulation_tracks_markov_expectation(self, n):
        # Fig. 5(a): "a very good correlation" between analysis and sim.
        chain = InfectionMarkovChain(n, 3)
        expected = chain.expected_curve(10)
        curves = []
        for seed in range(5):
            curve, _ = run_infection(n, l=25, seed=seed, rounds=10)
            curves.append(curve)
        mean = [sum(c[r] for c in curves) / len(curves) for r in range(11)]
        # Compare at mid-epidemic rounds; allow generous tolerance (five runs).
        for r in range(3, 9):
            assert mean[r] == pytest.approx(expected[r], rel=0.35, abs=8)

    @pytest.mark.slow
    def test_view_size_has_weak_impact(self):
        # Fig. 5(b): l affects latency only slightly.  Compare rounds to
        # infect 99% (the paper's measure; rounds-to-100% is a noisy
        # last-straggler statistic).
        def rounds_to_99(l):
            totals = []
            for seed in range(5):
                curve, _ = run_infection(125, l=l, seed=seed, rounds=15)
                totals.append(next(r for r, v in enumerate(curve) if v >= 124))
            return sum(totals) / len(totals)

        slow = rounds_to_99(10)
        fast = rounds_to_99(25)
        assert abs(slow - fast) <= 1.5  # weak dependence


class TestViewMaintenance:
    def test_views_stay_full_and_uniformish(self):
        curve, nodes = run_infection(125, l=20, rounds=15)
        stats = in_degree_stats(nodes)
        assert stats.mean == pytest.approx(20.0, rel=0.01)
        assert stats.isolated == 0
        assert all(len(n.view) == 20 for n in nodes)

    def test_views_evolve_over_time(self):
        cfg = LpbcastConfig(fanout=3, view_max=10)
        nodes = build_lpbcast_nodes(60, cfg, seed=1)
        sim = RoundSimulation(seed=1)
        sim.add_nodes(nodes)
        before = {n.pid: set(n.view.snapshot()) for n in nodes}
        sim.run(10)
        changed = sum(
            1 for n in nodes if set(n.view.snapshot()) != before[n.pid]
        )
        assert changed > 30  # continuous randomized evolution


class TestLongStreamOnTheDefaultConfig:
    """Ids die.  With a FIFO ``eventIds`` at the default bound of 60, this
    160-id stream never ended: an evicted id was re-advertised, taken for
    new, re-delivered and re-inserted as newest — 1,104,143 deliveries for
    31,635 distinct pairs, 365 pairs never reached, 83,693 notifications
    purged from ``events``.  The per-sender store delivers each once."""

    N, PUBLISHERS, PUBLISH_ROUNDS, ROUNDS = 200, 4, 40, 60

    def test_every_pair_delivered_once_and_nothing_purged(self):
        nodes = build_lpbcast_nodes(self.N, LpbcastConfig(), seed=5)
        sim = RoundSimulation(
            NetworkModel(loss_rate=0.05, rng=random.Random(6)), seed=5)
        sim.add_nodes(nodes)
        deliveries = []
        for node in nodes:
            node.add_delivery_listener(
                lambda pid, n, now: deliveries.append((pid, n.event_id)))

        def publish(round_no, _sim):
            if round_no <= self.PUBLISH_ROUNDS:
                for node in nodes[:self.PUBLISHERS]:
                    node.lpb_cast(f"e{round_no}", float(round_no))

        sim.add_round_hook(publish)
        sim.run(self.ROUNDS)
        pairs = self.N * self.PUBLISHERS * self.PUBLISH_ROUNDS
        assert len(set(deliveries)) == pairs          # every pair delivered
        assert len(deliveries) == pairs               # 0 re-deliveries
        assert sum(node.stats.events_dropped for node in nodes) == 0
        assert sum(node.stats.event_ids_evicted for node in nodes) == 0
        assert max(len(node.event_ids) for node in nodes) <= 60
