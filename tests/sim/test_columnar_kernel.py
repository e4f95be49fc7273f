"""The columnar slab kernel: the O(F) fanout sampler and the one kernel
shared by the single-core pass and the shared-memory workers.

The sampler replaced a score-and-argsort over all ``l`` view slots, so its
distribution is pinned directly (fixed-seed chi-square); the kernel is one
function for both paths, so a seeded Generator must give both the same
arrays.  What the changed draws do to the infection curve is held in
``test_columnar_curves.py``.
"""

import copy

import numpy as np
import pytest

from repro.core import LpbcastConfig
from repro.sim import ColumnarRoundSimulation, NetworkModel, bitset
from repro.sim.columnar_runner import (
    sample_view_slots,
    slab_round,
    slab_senders,
)
from repro.sim.columnar_shm import _worker_round

#: Upper 0.1 % points of chi-square, by degrees of freedom.
CHI2_999 = {4: 18.47, 6: 22.46, 23: 49.73, 24: 51.18}


def chi_square(counts, expected):
    return float((((np.asarray(counts) - expected) ** 2) / expected).sum())


class TestSampler:
    @pytest.mark.parametrize("fanout, view_cap", [(3, 25), (3, 3), (1, 4),
                                                  (5, 5), (4, 9)])
    def test_counts_distinct_and_in_range(self, fanout, view_cap):
        # |view| = 0, 1, F-1, F and l, several senders of each, F == l too.
        sizes = sorted({0, 1, max(fanout - 1, 0), min(fanout, view_cap),
                        view_cap})
        view_len = np.repeat(np.array(sizes, dtype=np.int64), 40)
        n = view_len.size
        alive = np.ones(n, dtype=bool)
        s_idx, lens, k = slab_senders(alive, view_len, [], fanout, 0, n)
        assert s_idx.tolist() == np.flatnonzero(view_len > 0).tolist()
        assert k.tolist() == np.minimum(fanout, lens).tolist()
        take = int(k.max())
        slots = sample_view_slots(np.random.default_rng(3), lens, take)
        assert slots.shape == (take, s_idx.size)
        # Even the masked entries index inside a matrix `take` wide.
        assert slots.min() >= 0 and slots.max() < max(take, view_cap)
        for col in range(s_idx.size):
            picks = slots[:int(k[col]), col].tolist()
            assert len(set(picks)) == k[col] == min(fanout, lens[col])
            assert all(0 <= slot < lens[col] for slot in picks)

    def test_every_slot_equally_likely_in_every_position(self):
        for view, fanout in ((7, 3), (5, 5), (25, 3)):
            senders = 2000 * view
            lens = np.full(senders, view, dtype=np.int64)
            slots = sample_view_slots(np.random.default_rng(11), lens, fanout)
            for position in range(fanout):
                counts = np.bincount(slots[position], minlength=view)
                assert chi_square(counts, senders / view) \
                    < CHI2_999[view - 1], (view, position, counts)

    def test_ordered_triples_are_jointly_uniform(self):
        # l=4, F=3: all 24 ordered samples without replacement, equally.
        senders = 48_000
        lens = np.full(senders, 4, dtype=np.int64)
        slots = sample_view_slots(np.random.default_rng(5), lens, 3)
        codes = slots[0] * 16 + slots[1] * 4 + slots[2]
        counts = np.bincount(codes, minlength=64)
        assert np.count_nonzero(counts) == 24
        assert chi_square(counts[counts > 0], senders / 24) < CHI2_999[23]

    def test_mixed_view_sizes_share_one_call(self):
        rng = np.random.default_rng(2)
        lens = rng.integers(1, 10, size=60_000).astype(np.int64)
        slots = sample_view_slots(rng, lens, 3)
        five = lens == 5
        for position in range(3):
            counts = np.bincount(slots[position, five], minlength=5)
            assert chi_square(counts, five.sum() / 5) < CHI2_999[4]

    def test_paused_and_dead_processes_do_not_send(self):
        view_len = np.full(10, 4, dtype=np.int64)
        alive = np.ones(10, dtype=bool)
        alive[3] = False
        s_idx, _, _ = slab_senders(alive, view_len, [1, 7], 3, 0, 10)
        assert s_idx.tolist() == [0, 2, 4, 5, 6, 8, 9]
        low, _, _ = slab_senders(alive, view_len, [1, 7], 3, 0, 5)
        high, _, _ = slab_senders(alive, view_len, [1, 7], 3, 5, 10)
        assert low.tolist() + high.tolist() == s_idx.tolist()


class TestOneKernel:
    def test_single_core_round_and_one_slab_worker_are_the_same_call(self):
        cfg = LpbcastConfig(fanout=3, view_max=12)
        sim = ColumnarRoundSimulation.build(
            700, cfg, seed=31, network=NetworkModel(loss_rate=0.1))
        for publisher in (0, 350):
            sim.nodes[publisher].lpb_cast("x", 0.0)
        sim.run(4)  # mid-curve: fresh infections and duplicates both occur
        n, events = sim._n, 2
        before = {name: col.copy() for name, col in sim._stats.items()}
        delivered_before = sim._delivered.copy()
        admitted_before = sim.messages_delivered
        views = {
            "alive": sim._alive.copy(), "viewlen": sim._view_len,
            "viewmat": sim._view_mat, "delivered": delivered_before,
            "active": sim._active.copy(),
            "arrivals": np.zeros((1, n), dtype=np.int64),
            "dups": np.zeros((1, n), dtype=np.int64),
            "newmask": np.zeros((1, events, sim._words), dtype=np.uint64),
        }
        static = {"worker": 0, "lo": 0, "hi": n, "n": n, "fanout": 3,
                  "loss": sim.loss_rate, "digest": True}
        cmd = {"events": events, "paused": [], "drops": [], "partitions": []}
        worker_rng = copy.deepcopy(sim._rng)

        sim.run_round()
        admitted = _worker_round(views, cmd, static, worker_rng)

        assert admitted == sim.messages_delivered - admitted_before > 0
        assert (views["arrivals"][0] == sim._stats["gossips_received"]
                - before["gossips_received"]).all()
        assert (views["dups"][0] == sim._stats["duplicates"]
                - before["duplicates"]).all()
        assert views["dups"].sum() > 0
        gained = sim._delivered[:events] ^ delivered_before[:events]
        assert bitset.popcount_words(gained) > 0
        assert (views["newmask"][0] & ~delivered_before[:events]
                == gained).all()

    def test_kernel_writes_only_its_output_buffers(self):
        cfg = LpbcastConfig(fanout=3, view_max=6)
        sim = ColumnarRoundSimulation.build(200, cfg, seed=4)
        sim.nodes[0].lpb_cast("x", 0.0)
        sim.run(2)
        alive = bitset.unpack_bools(sim._alive, 200)
        delivered, view_mat = sim._delivered.copy(), sim._view_mat.copy()
        arrivals = np.zeros(200, dtype=np.int64)
        dups = np.zeros(200, dtype=np.int64)
        fresh = np.zeros((1, sim._words), dtype=np.uint64)
        senders = slab_senders(alive, sim._view_len, [], 3, 50, 150)
        admitted = slab_round(np.random.default_rng(0), senders,
                              sim._view_mat, alive, 0.0, [], [],
                              sim._delivered, sim._delivered, 1,
                              arrivals, dups, fresh)
        assert admitted == arrivals.sum() == 3 * 100
        assert (sim._delivered == delivered).all()
        assert (sim._view_mat == view_mat).all()
