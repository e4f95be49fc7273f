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
from repro.sim import columnar_runner
from repro.sim.columnar_runner import (
    sample_view_slots,
    slab_round,
    slab_senders,
)
from repro.sim.columnar_shm import _worker_round

from .test_columnar_state_golden import ragged_nodes

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


def faulted_sim(seed=9, n=900):
    """Mid-curve state with ragged views (pids = 10 000 + index), two
    events and a dead process."""
    cfg = LpbcastConfig(fanout=3, view_max=7, digest_implies_delivery=False)
    sim = ColumnarRoundSimulation(network=NetworkModel(loss_rate=0.1),
                                  seed=seed)
    sim.add_nodes(ragged_nodes(n, cfg, seed))
    for publisher in (10_001, 10_500):
        sim.nodes[publisher].lpb_cast("x", 0.0)
    sim.run(4)
    sim.crash(10_033)
    return sim


class TestBlocks:
    """The block size is a constant, not a behaviour: every output of the
    sampler and of the kernel is the same for any ``BLOCK``."""

    def kernel_outputs(self, sim):
        n = sim._n
        alive = bitset.unpack_bools(sim._alive, n)
        senders = slab_senders(alive, sim._view_len, [7], 3, 0, n)
        outs = (np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64),
                np.zeros((2, sim._words), dtype=np.uint64))
        drops = [(0.5, 17, None), (0.4, None, 40)]
        partitions = [(list(range(0, 200)), list(range(300, 600)), "b-to-a")]
        rng = np.random.default_rng(4)
        admitted = slab_round(rng, senders, sim._view_mat, alive, 0.1, drops,
                              partitions, sim._active, sim._delivered, 2,
                              *outs)
        return (admitted, rng.random(), *outs)

    def test_outputs_identical_for_any_block_size(self, monkeypatch):
        sim = faulted_sim()
        lens = sim._view_len[sim._view_len > 0]
        m = lens.size
        reference = None
        for block in (columnar_runner.BLOCK, 1, 7, 64, m):
            monkeypatch.setattr(columnar_runner, "BLOCK", block)
            slots = sample_view_slots(np.random.default_rng(8), lens, 3)
            got = (slots, *self.kernel_outputs(sim))
            if reference is None:
                reference = got
                assert got[1] > 0 and got[4].sum() > 0 and got[5].any()
            for mine, theirs in zip(got, reference):
                assert np.array_equal(mine, theirs), block

    def test_fault_free_fast_path_equals_the_masked_one(self):
        # Nothing can fail: no survive mask is built.  Killing a process
        # nobody knows forces the mask without changing any admission.
        sim = ColumnarRoundSimulation.build(
            400, LpbcastConfig(fanout=3, view_max=3), seed=2)
        sim.nodes[0].lpb_cast("x", 0.0)
        sim.run(3)
        stranger = int(np.setdiff1d(np.arange(400), sim._view_mat)[0])
        alive = np.ones(400, dtype=bool)
        senders = slab_senders(alive, sim._view_len, [stranger], 3, 0, 400)
        results = []
        for dead in (None, stranger):
            flags = alive.copy()
            if dead is not None:
                flags[dead] = False
            outs = (np.zeros(400, dtype=np.int64),
                    np.zeros(400, dtype=np.int64),
                    np.zeros((1, sim._words), dtype=np.uint64))
            slab_round(np.random.default_rng(1), senders, sim._view_mat,
                       flags, 0.0, [], [], sim._delivered, sim._delivered,
                       1, *outs)
            results.append(outs)
        for fast, masked in zip(*results):
            assert np.array_equal(fast, masked)


class TestSendersFollowTheSchedule:
    def test_crash_recovery_and_pause_each_change_the_next_round(self):
        from repro.faults.plan import FaultPlan

        sim = ColumnarRoundSimulation.build(
            300, LpbcastConfig(fanout=3, view_max=6), seed=6)
        sim.use_fault_plan(FaultPlan().pause(9, at=4, duration=1))
        sim.nodes[0].lpb_cast("x", 0.0)  # allocates the stat columns

        def senders_of_next_round():
            sent = sim._stats["gossips_sent"]  # +1 per sender per round
            before = sent.copy()
            sim.run_round()
            return set(np.flatnonzero(sent - before))

        everyone = set(range(300))
        assert senders_of_next_round() == everyone          # round 1
        sim.crash(5)
        assert senders_of_next_round() == everyone - {5}    # round 2
        assert sim.recover(5)
        assert senders_of_next_round() == everyone          # round 3
        assert senders_of_next_round() == everyone - {9}    # round 4: paused
        assert senders_of_next_round() == everyone          # round 5


class TestKernelBuffers:
    def test_memory_line_counts_them_and_close_drops_them(self):
        sim = ColumnarRoundSimulation.build(
            2_000, LpbcastConfig(fanout=3, view_max=8), seed=1)
        sim.nodes[0].lpb_cast("x", 0.0)
        columns = sim.memory_bytes()
        sim.run(2)
        held = sim._scratch.nbytes()
        # The [3, n] draw/target buffer alone, 8-byte items.
        assert held >= 3 * 2_000 * 8
        assert sim.memory_bytes() == columns + held
        sim.close()
        assert sim._scratch.nbytes() == 0
        assert sim.memory_bytes() == columns
        sim.run(1)  # single-core rounds still run; the buffers come back
        assert sim.memory_bytes() > columns + 3 * 2_000 * 8

    def test_nothing_module_global_holds_an_array(self):
        from repro.sim import columnar_shm

        with ColumnarRoundSimulation.build(
                500, LpbcastConfig(fanout=3, view_max=8), seed=1) as sim:
            sim.nodes[0].lpb_cast("x", 0.0)
            sim.run(2)
        for module in (columnar_runner, columnar_shm):
            for name, value in vars(module).items():
                assert not isinstance(
                    value, (np.ndarray, columnar_runner.SlabScratch,
                            list, dict, set)) or name.startswith("__"), name
