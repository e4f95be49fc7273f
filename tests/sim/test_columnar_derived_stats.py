"""The columnar engine's stat columns against a reference kept round by round.

Only ``duplicates`` and ``gossips_received`` are stored from the start.
``published`` (from the publish counter) and ``delivered`` (each process's
bits over the delivered rows) are rebuilt on every read; ``gossips_sent`` is
kept as a round count per sender set and folded into a column when the set
changes or the column is read; ``events_dropped`` is stored from the events
buffer's first overflow on.  The reference here keeps all six the way the
engine once stored them: +1 a publish, +1 a delivery (delivery listeners on
a twin run with the same seed), +1 a sender a round (from the schedule), and
each truncation's per-process drops.
"""

import random

import numpy as np
import pytest

from repro.core import LpbcastConfig
from repro.sim import ColumnarRoundSimulation, NetworkModel, bitset

from .test_columnar_state_golden import PUBLISHES, fault_plan, ragged_nodes

N, ROUNDS, OFFSET = 3_000, 12, 10_000
NAMES = ("published", "delivered", "duplicates", "gossips_sent",
         "gossips_received", "events_dropped")
DERIVED = ("published", "delivered", "gossips_sent", "events_dropped")


def buffered(sim):
    """Per-process count of events-buffer entries."""
    counts = np.zeros(sim._n, dtype=np.int64)
    for row in sim._active[:len(sim._notifications)]:
        counts += bitset.unpack_bools(row, sim._n)
    return counts


def make_sim(ingest, seed=3):
    network = NetworkModel(loss_rate=0.05, rng=random.Random(seed))
    if not ingest:
        sim = ColumnarRoundSimulation.build(
            N, LpbcastConfig(fanout=3, view_max=25), seed=seed,
            network=network)
        return sim, 0
    cfg = LpbcastConfig(fanout=3, view_max=12, events_max=3,
                        digest_implies_delivery=False)
    sim = ColumnarRoundSimulation(network=network, seed=seed)
    sim.add_nodes(ragged_nodes(N, cfg, seed))
    sim.use_fault_plan(fault_plan(lambda i: OFFSET + i, N, True))
    return sim, OFFSET


def run(ingest, *, read_every_round, listeners=False):
    """Run the scenario; yields ``(sim, reference)`` after every round."""
    sim, offset = make_sim(ingest)
    ref = {name: np.zeros(N, dtype=np.int64) for name in DERIVED}
    sim._ensure_started()
    has_view = sim._view_len > 0
    if listeners:
        def listener(pid, note, now):
            ref["delivered"][pid - offset] += 1
        for index in range(N):
            sim.nodes[offset + index].add_delivery_listener(listener)

    def publish_and_count_senders(round_no, s):
        for index in PUBLISHES.get(round_no, ()):
            index = index * N // 5_000  # the golden's publishers, scaled
            if s.alive(offset + index):
                s.nodes[offset + index].lpb_cast(None, float(round_no))
                ref["published"][index] += 1
        paused = {pid - offset for pid in s._fault_paused}
        for index in np.flatnonzero(has_view).tolist():
            if s.alive(offset + index) and index not in paused:
                ref["gossips_sent"][index] += 1

    truncate = sim._truncate_events

    def counted_truncate(rows):
        before = buffered(sim)
        truncate(rows)
        ref["events_dropped"] += before - buffered(sim)

    sim._truncate_events = counted_truncate
    sim.add_round_hook(publish_and_count_senders)
    for _ in range(ROUNDS):
        sim.run_round()
        if read_every_round:
            yield sim, ref
    if not read_every_round:
        yield sim, ref


@pytest.fixture(scope="module", params=[False, True], ids=["build", "ingest"])
def delivered_by_listeners(request):
    """The twin run's listener counts after each round, by shape."""
    return request.param, [ref["delivered"].copy() for _, ref in run(
        request.param, read_every_round=True, listeners=True)]


class TestDerivedColumns:
    def test_every_column_equals_the_reference_every_round(
            self, delivered_by_listeners):
        ingest, delivered = delivered_by_listeners
        overflowed = False
        for r, (sim, ref) in enumerate(run(ingest, read_every_round=True)):
            ref["delivered"] = delivered[r]
            for name in DERIVED:
                assert np.array_equal(sim._stats[name], ref[name]), \
                    (r + 1, name)
            # The stored columns: admitted arrivals per receiver.
            assert sim._stats["gossips_received"].sum() == \
                sim.messages_delivered
            overflowed |= bool(ref["events_dropped"].any())
            assert ("events_dropped" in sim._columns) == overflowed
            alive = np.array([sim.alive(OFFSET * ingest + i)
                              for i in range(N)])
            sums = {name: int(sim._stats[name][alive].sum())
                    for name in NAMES}
            assert sim.node_aggregates().stat_sums == {
                name: total for name, total in sums.items() if total}
        assert overflowed == ingest  # events_max = 3 overflows; 30 does not
        assert ref["delivered"].sum() > N
        assert ref["gossips_sent"].max() == ROUNDS

    def test_folding_only_when_the_sender_set_changes_gives_the_same(
            self, delivered_by_listeners):
        ingest, delivered = delivered_by_listeners
        [(sim, ref)] = run(ingest, read_every_round=False)
        assert "gossips_sent" in sim._columns or not ingest  # crashes fold
        ref["delivered"] = delivered[-1]
        for name in DERIVED:
            assert np.array_equal(sim._stats[name], ref[name]), name


class TestStorage:
    @pytest.mark.parametrize("ingest", [False, True], ids=["build", "ingest"])
    def test_derived_columns_are_read_only_and_not_counted(self, ingest):
        [(sim, _)] = run(ingest, read_every_round=False)
        sim._stats  # a read folds gossips_sent in: stored from here on
        assert "gossips_sent" in sim._columns
        memory = sim.memory_bytes()
        stored = (sim._alive, sim._view_mat, sim._view_len, sim._delivered,
                  sim._active, *sim._columns.values())
        assert memory == (sum(array.nbytes for array in stored)
                          + sim._scratch.nbytes())
        assert sim._view_len.dtype == np.uint8
        derived = ["published", "delivered"] + (
            [] if ingest else ["events_dropped"])
        for name in derived:
            column = sim._stats[name]
            assert column.dtype == np.int64 and column.shape == (N,)
            with pytest.raises(ValueError, match="read-only"):
                column[0] += 1
            assert name not in sim._columns
        assert sim.memory_bytes() == memory  # reading stored nothing
        for name in ("duplicates", "gossips_received"):
            assert sim._stats[name] is sim._columns[name]
            assert sim._stats[name].flags.writeable
        assert sorted(sim._stats) == sorted(NAMES) and len(sim._stats) == 6
        with pytest.raises(KeyError):
            sim._stats["nonsense"]

    def test_every_process_sending_stores_no_index_array(self):
        sim, _ = make_sim(False)
        sim.nodes[0].lpb_cast(None, 0.0)
        sim.run(2)
        s_idx, lens, _ = sim._scratch.inputs[1]
        assert s_idx == slice(0, N) and lens.base is sim._view_len
        assert "gossips_sent" not in sim._columns  # one set, never read
        assert np.array_equal(sim._stats["gossips_sent"], np.full(N, 2))
        sim.crash(5)
        sim.run_round()
        assert isinstance(sim._scratch.inputs[1][0], np.ndarray)
        want = np.full(N, 3)
        want[5] = 2
        assert np.array_equal(sim._stats["gossips_sent"], want)
