"""Columnar infection curves against the serial engine's.

Delivery counts are a declared divergence of the columnar engine — its
draws come from its own streams — but the *curve* is what the engine is
for, so two things are held here: push-only spread actually spreads, and
the mean time to 99 % coverage stays within a stated distance of serial's
on every worker count.  A cheap precursor of a conformance
oracle, not a replacement.
"""

import pytest

from repro.core import LpbcastConfig
from repro.sim import (
    ColumnarRoundSimulation,
    build_lpbcast_nodes,
    create_simulation,
)

#: Worker counts each curve check runs on (1 = the in-process round, whose
#: test id predates the removal of the second backend).
WORKERS = pytest.mark.parametrize("workers", [1, 2], ids=["numpy", "workers2"])


def infection_curve(sim, rounds, count):
    sim.nodes[0].lpb_cast("x", 0.0)
    curve = []
    for _ in range(rounds):
        sim.run_round()
        curve.append(count(sim))
    return curve


def serial_count(sim):
    return sum(1 for node in sim.nodes.values() if node.stats.delivered)


class TestPushOnlySpread:
    """``digest_implies_delivery=False``: only the events buffer carries
    payloads, each process forwards once.  A process infected in round r
    has also *sent* in round r; its fresh buffer entry must survive that
    round's "events <- empty" (it used to be cleared, freezing the curve at
    the publisher's F targets)."""

    N, ROUNDS, SEED = 1000, 16, 7
    CFG = LpbcastConfig(fanout=3, view_max=25, digest_implies_delivery=False)

    @pytest.fixture(scope="class")
    def serial_final(self):
        sim = create_simulation("serial", seed=self.SEED)
        sim.add_nodes(build_lpbcast_nodes(self.N, self.CFG, seed=self.SEED))
        return infection_curve(sim, self.ROUNDS, serial_count)[-1]

    @WORKERS
    def test_curve_passes_half_and_lands_near_serial(self, workers,
                                                     serial_final):
        sim = ColumnarRoundSimulation(seed=self.SEED, workers=workers)
        with sim:
            sim.add_nodes(build_lpbcast_nodes(self.N, self.CFG,
                                              seed=self.SEED))
            curve = infection_curve(
                sim, self.ROUNDS, lambda s: round(s.delivery_ratio(0) * self.N))
        assert curve[0] == 4  # the publisher and its F targets
        assert curve[-1] > self.N // 2, curve
        # Forward-once push saturates near x = 1 - exp(-F x) (0.94 at F=3);
        # serial's evolving views land a few percent under the frozen
        # uniform ones here.
        assert abs(curve[-1] - serial_final) <= 0.05 * self.N, \
            (curve, serial_final)


def rounds_to_coverage(sim, count, target):
    """Round at which the curve crosses ``target``, interpolated inside the
    round that holds the crossing."""
    sim.nodes[0].lpb_cast("x", 0.0)
    before = count(sim)
    while True:
        sim.run_round()
        reached = count(sim)
        if reached >= target:
            return sim.round - 1 + (target - before) / (reached - before)
        before = reached


class TestCurveGuard:
    """Mean rounds to 99 % coverage, digest mode, n=1000, seeds 1-5: the
    columnar engine (any worker count) within 0.75 round of the
    serial engine.  Measured when the sampler changed: serial 7.50,
    columnar 6.96-7.03 — the gap is serial's evolving, not-quite-uniform
    views, and was the same with the old selection (7.05 by whole rounds)."""

    N, SEEDS, TOLERANCE = 1000, range(1, 6), 0.75
    CFG = LpbcastConfig(fanout=3, view_max=25)

    @pytest.fixture(scope="class")
    def serial_mean(self):
        total = 0.0
        for seed in self.SEEDS:
            sim = create_simulation("serial", seed=seed)
            sim.add_nodes(build_lpbcast_nodes(self.N, self.CFG, seed=seed))
            total += rounds_to_coverage(sim, serial_count, 0.99 * self.N)
        return total / len(self.SEEDS)

    @WORKERS
    def test_mean_rounds_to_99_percent_matches_serial(self, workers,
                                                      serial_mean):
        total = 0.0
        for seed in self.SEEDS:
            with ColumnarRoundSimulation.build(self.N, self.CFG, seed=seed,
                                               workers=workers) as sim:
                total += rounds_to_coverage(
                    sim, lambda s: s.delivery_ratio(0) * self.N,
                    0.99 * self.N)
        mean = total / len(self.SEEDS)
        assert abs(mean - serial_mean) <= self.TOLERANCE, (mean, serial_mean)
