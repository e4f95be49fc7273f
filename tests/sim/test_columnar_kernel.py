"""The columnar slab kernel: the O(F) fanout sampler and the one kernel
shared by the single-core pass and the shared-memory workers.

The sampler replaced a score-and-argsort over all ``l`` view slots, so its
distribution is pinned directly (fixed-seed chi-square); the kernel is one
function for both paths, so a seeded Generator must give both the same
arrays.  What the changed draws do to the infection curve is held in
``test_columnar_curves.py``.
"""

import copy
import hashlib

import numpy as np
import pytest

from repro.core import LpbcastConfig
from repro.sim import ColumnarRoundSimulation, NetworkModel, bitset
from repro.sim import columnar_runner
from repro.sim.columnar_runner import (
    BLOCK,
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


class TestPinnedBits:
    """The sampler and the spread, bit for bit, outside the engine goldens."""

    #: SHA-256 of sample_view_slots(default_rng(take), lens, take), take
    #: 1..5, over m = BLOCK - 1, BLOCK, BLOCK + 1, 3 BLOCK + 7 senders with
    #: ragged |view| in 0..25, uniform 25 and uniform 3 (< take), taken
    #: before the sampler worked on whole [take, BLOCK] blocks.
    SAMPLER_SHA256 = ("360191e62daf080d4a598da6fbfbffb2"
                      "bf7c5233bf324d3a38d941ed0fca64db")

    def test_sampler_bits_pinned(self):
        digest = hashlib.sha256()
        for m in (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7):
            ragged = np.random.default_rng(m).integers(0, 26, size=m)
            for lens in (ragged, np.full(m, 25), np.full(m, 3)):
                for take in range(1, 6):
                    slots = sample_view_slots(np.random.default_rng(take),
                                              lens, take)
                    digest.update(slots.astype("<i8").tobytes())
        assert digest.hexdigest() == self.SAMPLER_SHA256

    @staticmethod
    def dense_spread(rng, senders, view_mat, alive, loss, spread, delivered):
        """The spread written densely from the kernel's own draws: the
        targets of the sampled slots, the loss draw, the dead receivers."""
        _, lens, k = senders
        n, take, events = alive.size, int(k.max()), len(spread)
        s_idx = np.arange(n)[senders[0]]  # a slice when every process sends
        targets = view_mat[s_idx, sample_view_slots(rng, lens, take)]
        survive = np.arange(take)[:, None] < k
        if loss > 0.0:
            survive &= rng.random(targets.shape) >= loss
        survive &= alive[targets]
        dups = np.zeros(n, dtype=np.int64)
        fresh = np.zeros((events, bitset.words_for(n)), dtype=np.uint64)
        for event in range(events):
            carriers = bitset.unpack_bools(spread[event], n)[s_idx]
            hits = np.bincount(targets[survive & carriers], minlength=n)
            had = bitset.unpack_bools(delivered[event], n)
            dups += np.where(had, hits, 0)
            fresh[event] = bitset.pack_bools((hits > 0) & ~had)
        return dups, fresh

    @pytest.mark.parametrize("digest", [True, False],
                             ids=["digest", "events-buffer"])
    @pytest.mark.parametrize("faulty", [False, True],
                             ids=["no-mask", "loss-and-dead"])
    def test_spread_equals_a_dense_reference(self, digest, faulty):
        n = 5_000  # two blocks
        sim = ColumnarRoundSimulation.build(
            n, LpbcastConfig(fanout=3, view_max=8), seed=12)
        sim._ensure_started()
        # An island: 30 processes that know only each other and whom nobody
        # else knows, so a row everybody else holds reaches none of them.
        view_mat = sim._view_mat.copy()
        island = np.arange(1_000, 1_030)
        view_mat[np.isin(view_mat, island)] += 30
        view_mat[island] = island[(np.arange(30)[:, None] + np.arange(1, 9))
                                  % 30]
        alive = np.ones(n, dtype=bool)
        if faulty:
            alive[int(view_mat[0, 0])] = False  # a known receiver
        senders = slab_senders(alive, sim._view_len, [], 3, 0, n)
        s_idx = np.arange(n)[senders[0]]  # a slice when every process sends
        m = s_idx.size
        # Carriers among the senders: 1, 40 (sparse hits), just under and
        # just over m / 2, every sender; among all processes: all but 40,
        # all but one, three rows every process holds (one shared
        # duplicates pass), every alive process (a dead one does not hold
        # it) and all but the island.
        picker = np.random.default_rng(7)
        carried = (1, 40, m // 2 - 1, m // 2 + 1, m, n - 40, n - 1, n, n, n)
        spread = np.zeros((len(carried) + 2, bitset.words_for(n)),
                          dtype=np.uint64)
        for event, count in enumerate(carried):
            flags = np.zeros(n, dtype=bool)
            pool = s_idx if event < 5 else np.arange(n)
            flags[picker.choice(pool, count, replace=False)] = True
            spread[event] = bitset.pack_bools(flags)
        spread[-2] = bitset.pack_bools(alive)
        spread[-1] = ~bitset.mask_from_indices(island, n)
        spread[-1, -1] &= np.uint64((1 << (n & 63)) - 1)  # no pad bits
        delivered = spread
        if not digest:  # the events buffer is a subset of the delivered
            delivered = spread | bitset.pack_bools(picker.random(n) < 0.3)
            delivered[3] = bitset.pack_bools(alive)  # by every alive one
        loss = 0.2 if faulty else 0.0
        dups = np.zeros(n, dtype=np.int64)
        fresh = np.zeros_like(spread)
        slab_round(np.random.default_rng(3), senders, view_mat, alive,
                   bitset.pack_bools(alive), loss, [], [], spread, delivered,
                   len(spread),
                   np.zeros(n, dtype=np.int64), dups, fresh)
        want_dups, want_fresh = self.dense_spread(
            np.random.default_rng(3), senders, view_mat, alive, loss,
            spread, delivered)
        assert np.array_equal(dups, want_dups)
        assert np.array_equal(fresh, want_fresh)
        assert not fresh[-1].any()  # the island heard only itself
        assert dups.sum() > 0 and bitset.popcount_words(fresh) > 0
        assert m == n - faulty

    def test_a_row_every_alive_process_delivered_packs_no_fresh_bits(
            self, monkeypatch):
        # Events buffer: half the senders still buffer the event, and every
        # alive process has delivered it, the dead one aside.  Its hits are
        # all duplicates, so the round packs no fresh row for it.
        n = 5_000
        sim = ColumnarRoundSimulation.build(
            n, LpbcastConfig(fanout=3, view_max=8), seed=12)
        sim._ensure_started()
        alive = np.ones(n, dtype=bool)
        alive[int(sim._view_mat[0, 0])] = False
        senders = slab_senders(alive, sim._view_len, [], 3, 0, n)
        flags = np.zeros(n, dtype=bool)
        flags[senders[0][::2]] = True
        spread = bitset.pack_bools(flags)[None, :]
        delivered = bitset.pack_bools(alive)[None, :]
        alive_words = bitset.pack_bools(alive)
        dups = np.zeros(n, dtype=np.int64)
        fresh = np.zeros_like(spread)
        packs = []
        with monkeypatch.context() as patch:
            real = bitset.pack_bools
            patch.setattr(bitset, "pack_bools",
                          lambda *args: packs.append(1) or real(*args))
            slab_round(np.random.default_rng(3), senders, sim._view_mat,
                       alive, alive_words, 0.0, [], [], spread, delivered, 1,
                       np.zeros(n, dtype=np.int64), dups, fresh)
        assert packs == []
        want_dups, want_fresh = self.dense_spread(
            np.random.default_rng(3), senders, sim._view_mat, alive, 0.0,
            spread, delivered)
        assert np.array_equal(dups, want_dups) and dups.sum() > 0
        assert np.array_equal(fresh, want_fresh) and not fresh.any()


def dense_truncate(active, events_max):
    """The events-buffer bound over every row, empty ones included:
    per node, the oldest entries past ``events_max`` are dropped."""
    newest_rank = np.cumsum(active[::-1], axis=0)[::-1]
    over = active.sum(axis=0) > events_max
    drop = active & (newest_rank > events_max) & over[None, :]
    return active & ~drop, drop.sum(axis=0)


class TestTruncation:
    @pytest.mark.parametrize("seed", range(4))
    def test_skipping_empty_rows_equals_the_dense_pass(self, seed):
        n, events, events_max = 300, 12, 3
        sim = ColumnarRoundSimulation.build(
            n, LpbcastConfig(fanout=3, view_max=8, events_max=events_max),
            seed=seed)
        for event in range(events):
            sim.nodes[event].lpb_cast(None, 0.0)
        rng = np.random.default_rng(seed)
        active = rng.random((events, n)) < rng.random((events, 1))
        active[rng.choice(events, 4, replace=False)] = False  # empty rows
        for event in range(events):
            sim._active[event] = bitset.pack_bools(active[event])
        want_active, want_dropped = dense_truncate(active, events_max)
        sim._truncate_events(list(range(events)))
        got = np.vstack([bitset.unpack_bools(sim._active[event], n)
                         for event in range(events)])
        assert np.array_equal(got, want_active)
        assert np.array_equal(sim._stats["events_dropped"], want_dropped)
        assert want_dropped.sum() > 0
        assert (got.sum(axis=0) <= events_max).all()


class TestFinishedEventsAreFree:
    """A round's n-wide work does not grow with events nobody spreads."""

    @staticmethod
    def finished(digest, events, crashed=()):
        """n = 2 000 after ``events`` publishes have run their course."""
        sim = ColumnarRoundSimulation.build(
            2_000, LpbcastConfig(fanout=3, view_max=8,
                                 digest_implies_delivery=digest), seed=5)
        for pid in crashed:
            sim.crash(pid)
        for event in range(events):
            sim.nodes[event * 50].lpb_cast(None, 0.0)
        sim.run(30)
        assert not sim._active[:events].any()  # nothing buffered
        return sim

    @staticmethod
    def n_wide_calls(monkeypatch, sim, rounds=3):
        """The bitset calls of ``rounds`` rounds of ``sim``, by name."""
        counts = {}
        with monkeypatch.context() as patch:
            for name in ("unpack_bools", "pack_bools", "popcount_words"):
                def counted(*args, _name=name, _real=getattr(bitset, name)):
                    counts[_name] = counts.get(_name, 0) + 1
                    return _real(*args)
                patch.setattr(bitset, name, counted)
            sim.run(rounds)
        return counts

    @pytest.mark.parametrize("digest", [True, False],
                             ids=["digest", "events-buffer"])
    def test_n_wide_calls_per_round_do_not_grow(self, monkeypatch, digest):
        calls = []
        for events in (1, 40):
            sim = self.finished(digest, events)
            if digest:  # every process holds every event
                assert bitset.popcount_rows(sim._delivered[:events]).min() \
                    == 2_000
            calls.append(self.n_wide_calls(monkeypatch, sim))
        assert calls[0] == calls[1]

    @pytest.mark.parametrize("digest", [True, False],
                             ids=["digest", "events-buffer"])
    def test_a_crashed_non_holder_brings_no_n_wide_call_back(
            self, monkeypatch, digest):
        # Crashed before the publishes, pid 1 never holds an event: a row
        # every alive process holds is still a finished one.
        calls = []
        for events in (1, 40):
            sim = self.finished(digest, events, crashed=(1,))
            if digest:
                assert (bitset.popcount_rows(sim._delivered[:events])
                        == 1_999).all()
            assert not (sim._delivered[:events, 0] & np.uint64(2)).any()
            calls.append(self.n_wide_calls(monkeypatch, sim))
        assert calls[0] == calls[1]


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
                              sim._view_mat, alive, sim._alive, 0.0, [], [],
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
        admitted = slab_round(rng, senders, sim._view_mat, alive, sim._alive,
                              0.1, drops, partitions, sim._active,
                              sim._delivered, 2, *outs)
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
                       flags, bitset.pack_bools(flags), 0.0, [], [],
                       sim._delivered, sim._delivered, 1, *outs)
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
            # +1 per sender per round; folded on read, so read it again.
            before = sim._stats["gossips_sent"].copy()
            sim.run_round()
            return set(np.flatnonzero(sim._stats["gossips_sent"] - before))

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
