"""The columnar engine's whole state, pinned bit for bit.

The honoured fingerprint covers three schedule-derived counter series; the
columnar engine's own output — who delivered what, whose events buffer holds
it, the six per-node stat columns — was pinned by nothing.  These hashes were
taken at the commit *before* the slab kernel was rewritten into cache-sized
blocks (PR 21) and must hold unedited across any change that claims "same
draws, same bits": the kernel's contract is its draw order (one
``rng.random((take, m))`` for the picks, then the loss array, then one array
per active drop window).

Two shapes, two seeds each: ``build()`` (uniform views, digest delivery, the
oldest events reaching every process) and the ingest path (ragged views from
empty to ``l``, references to strangers, non-index pids, payload-only spread
with an events buffer that overflows, a receiver that stays dead), both under
5 % loss, a src-scoped and a dst-scoped drop window, a one-way partition that
heals, two crash/recoveries and a pause.  One constant pins the two-worker
streams, one (slow) the same scenario at n = 200 000.
"""

import hashlib
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import LpbcastConfig
from repro.faults.plan import FaultPlan
from repro.sim import ColumnarRoundSimulation, NetworkModel

N, ROUNDS = 5_000, 12

#: round -> publishers (node *indices*); six events, one after the crashes.
PUBLISHES = {1: (11, 4_321), 2: (900,), 3: (42,), 5: (2_222,), 7: (3,)}


def fault_plan(pid_of, n, dead_for_good):
    third = n // 3
    plan = (FaultPlan()
            .drop(rate=0.6, start=2, stop=8, src=pid_of(17))
            .drop(rate=0.5, start=3, stop=10, dst=pid_of(40))
            .partition([pid_of(i) for i in range(0, third, 2)],
                       [pid_of(i) for i in range(third, 2 * third)],
                       start=4, heal=8, direction="a-to-b")
            .crash(pid_of(123), at=2, recover_at=6)
            .crash(pid_of(n // 2), at=3, recover_at=9)
            .pause(pid_of(77), at=3, duration=4))
    if dead_for_good:
        plan.crash(pid_of(n - 1), at=4)
    return plan


def ragged_nodes(n, cfg, seed):
    """Prebuilt-node stand-ins for ``add_nodes``: pids offset from indices,
    view lengths uniform in [0, l], one reference in fifty to a stranger."""
    rng = random.Random(seed)
    nodes = []
    for i in range(n):
        size = rng.randrange(cfg.view_max + 1)
        peers = rng.sample(range(n - 1), size)
        view = [10_000 + p + (p >= i) for p in peers]
        if size and rng.random() < 0.02:
            view[rng.randrange(size)] = 10_000 + n + 5
        nodes.append(SimpleNamespace(pid=10_000 + i, config=cfg, view=view))
    return nodes


def run_scenario(seed, *, ingest, workers=1, n=N, rounds=ROUNDS):
    network = NetworkModel(loss_rate=0.05, rng=random.Random(seed))
    if ingest:
        cfg = LpbcastConfig(fanout=3, view_max=12, events_max=3,
                            digest_implies_delivery=False)
        sim = ColumnarRoundSimulation(network=network, seed=seed,
                                      workers=workers)
        sim.add_nodes(ragged_nodes(n, cfg, seed))
        offset = 10_000
    else:
        cfg = LpbcastConfig(fanout=3, view_max=25)
        sim = ColumnarRoundSimulation.build(n, cfg, seed=seed,
                                            network=network, workers=workers)
        offset = 0
    scale = n / N
    sim.use_fault_plan(fault_plan(lambda i: offset + i, n, ingest))

    def publish(round_no, s):
        for index in PUBLISHES.get(round_no, ()):
            pid = offset + int(index * scale)
            if s.alive(pid):
                s.nodes[pid].lpb_cast(None, float(round_no))

    sim.add_round_hook(publish)
    with sim:
        sim.run(rounds)
        return state_hash(sim)


def state_hash(sim) -> str:
    events = len(sim._notifications)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(sim._delivered[:events]).tobytes())
    h.update(np.ascontiguousarray(sim._active[:events]).tobytes())
    for name in ("published", "delivered", "duplicates", "gossips_sent",
                 "gossips_received", "events_dropped"):
        h.update(sim._stats[name].tobytes())
    h.update(str(sim.messages_delivered).encode())
    return h.hexdigest()


#: (seed, ingest) -> SHA-256 of the state after 12 rounds at n = 5 000.
#: Committed from the parent of PR 21; never edit to make a kernel change pass.
GOLDEN = {
    (3, False):
        "d5828d188ecb3801899fc390d3e33d4b462d7e0e72ad77908f481fe527276ea6",
    (7, False):
        "31a8d64246e0ed5c53dc90b66c26b885dd397e6d161fc808ef059e9123faa6d3",
    (3, True):
        "d06f9230e27ed54421a1c55b1839ec683861b72cb4fcaed6d2fb031189f9c5c1",
    (7, True):
        "dcb622c164df800cf007a5da2efb79ba9ebb24f1149bc5283e4f943a9833273c",
}
GOLDEN_WORKERS2 = (
    "b057111c2a7b308177209fbc630d7b3e2ca37a738b6c0ba8fef060cb58ce9123")
GOLDEN_200K = (
    "1adfaa4bde584adc54e023ac42d895ccb4dc3d7372bb7413664e31b1a5e15617")


@pytest.mark.parametrize("seed, ingest", sorted(GOLDEN))
def test_state_after_twelve_rounds_is_pinned(seed, ingest):
    assert run_scenario(seed, ingest=ingest) == GOLDEN[seed, ingest]


def test_two_worker_state_is_pinned():
    assert run_scenario(3, ingest=False, workers=2) == GOLDEN_WORKERS2


@pytest.mark.slow
def test_state_is_pinned_at_200k():
    assert run_scenario(3, ingest=False, n=200_000) == GOLDEN_200K
