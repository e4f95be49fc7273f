"""Shared-memory multi-core round execution for the columnar engine.

``ColumnarRoundSimulation(workers=N)`` partitions the *sender* axis across
``N`` long-lived worker processes.  The packed columns (alive words, view
matrix/lengths, per-event delivered/active bitmaps) live in
``multiprocessing.shared_memory`` segments mapped by every process; each
round the coordinator broadcasts one command over a pipe, every worker
runs the engine's slab kernel (:func:`repro.sim.columnar_runner.slab_round`:
O(F) direct fanout sampling, admission, event spread) on its contiguous
sender slab ``[w*n//workers, (w+1)*n//workers)``, and the coordinator
merges the results behind a deterministic barrier.  There is no second
copy of the round here: the single-core pass is the same kernel on
``[0, n)`` and the same ``_merge_round``.

Determinism contract
--------------------
* **Honoured counters are worker-count-independent.**  The coordinator —
  never a worker — computes the senders and the schedule-determined
  ``sim.sends`` total (the engine's ``_gossip_round``), applies the
  fault schedule, and owns ``sim.rounds``/``faults.*``.  The honoured
  fingerprint is therefore byte-identical for any ``workers`` value and
  matches the serial engine.
* **Non-honoured output is deterministic per worker count.**  Worker ``w``
  draws from its own ``derive_seed(seed, "columnar-shm", w)`` stream and
  slab boundaries depend only on ``(n, workers)``, so two runs with the
  same seed and worker count are identical; runs with different worker
  counts diverge on exactly the counters already declared divergent
  between the serial and columnar engines.
* **The merge barrier is ordered.**  Per-worker results land in disjoint
  scratch rows (arrival/duplicate counts, per-event new-infection word
  masks); the coordinator folds them (sums and ORs — order-free) and
  hands them to the engine's ``_merge_round``, which clears forwarded
  buffers, applies infections, fires delivery listeners in ascending node
  order and truncates — the one merge the single-core pass uses.

Workers hold no protocol state of their own: everything they read is a
shared view, everything they write is their private scratch row, so the
only per-round traffic on the pipe is the command dict and a three-field
acknowledgement (status, admitted arrivals, private kernel-buffer bytes).
Event-capacity growth allocates fresh segments (names are broadcast with the
next command; workers re-attach lazily), keeping round-time allocation out
of the steady state.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import bitset
from .columnar_runner import SlabScratch, slab_round, slab_senders
from .rng import derive_seed

#: Roles whose segments are replaced when event capacity grows.
_DYNAMIC_ROLES = ("delivered", "active", "newmask")


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment.  The coordinator created it (and owns
    the resource-tracker registration plus unlinking); attaching does not
    re-register, so workers add no tracker state of their own."""
    return shared_memory.SharedMemory(name=name)


def _view(seg: shared_memory.SharedMemory, shape, dtype) -> np.ndarray:
    return np.ndarray(shape, dtype=dtype, buffer=seg.buf)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _refresh_segments(cache: Dict, segs: Dict) -> Dict[str, np.ndarray]:
    """(Re-)attach any segment whose name changed since the last round;
    returns role -> ndarray view (absent roles map to None)."""
    views = cache.setdefault("views", {})
    held = cache.setdefault("segs", {})
    for role, descriptor in segs.items():
        if descriptor is None:
            views[role] = None
            continue
        name, shape, dtype = descriptor
        old = held.get(role)
        if old is not None and old[0] == name:
            continue
        if old is not None:
            old[1].close()
        seg = _attach(name)
        held[role] = (name, seg)
        views[role] = _view(seg, shape, dtype)
    return views


def _worker_round(views: Dict[str, np.ndarray], cmd: Dict, static: Dict,
                  rng, scratch: Optional[SlabScratch] = None) -> int:
    """One worker's share of a gossip round: the engine's own
    :func:`~repro.sim.columnar_runner.slab_round` — the very function the
    single-core pass runs on ``[0, n)`` — on senders ``[lo, hi)`` with this
    worker's stream and persistent ``scratch``.  Writes land only in this
    worker's scratch rows; returns the admitted arrivals."""
    scratch = scratch or SlabScratch()
    alive = bitset.unpack_bools(views["alive"], static["n"])
    senders = slab_senders(alive, views["viewlen"], cmd["paused"],
                           static["fanout"], static["lo"], static["hi"],
                           scratch)
    if senders[0].size == 0:
        return 0
    wid = static["worker"]
    events = cmd["events"]
    delivered = views["delivered"]
    return slab_round(
        rng, senders, views["viewmat"], alive, static["loss"],
        cmd["drops"], cmd["partitions"],
        delivered if static["digest"] else views["active"], delivered,
        events, views["arrivals"][wid], views["dups"][wid],
        views["newmask"][wid] if events else None, scratch)


def _worker_main(conn, static: Dict) -> None:
    """Worker loop: receive a round command, run the slab pass, ack."""
    rng = np.random.default_rng(
        derive_seed(static["seed"], "columnar-shm", static["worker"]))
    cache: Dict = {}
    scratch = SlabScratch()
    try:
        while True:
            try:
                cmd = conn.recv()
            except EOFError:
                break
            if cmd is None or cmd.get("op") == "stop":
                break
            try:
                views = _refresh_segments(cache, cmd["segs"])
                admitted = _worker_round(views, cmd, static, rng, scratch)
                conn.send(("ok", admitted, scratch.nbytes()))
            except Exception as exc:  # pragma: no cover - crash relay
                try:
                    conn.send(("err", repr(exc)))
                except Exception:
                    pass
                break
    finally:
        views = cache.get("views", {})
        views.clear()
        for _name, seg in cache.get("segs", {}).values():
            try:
                seg.close()
            except Exception:  # pragma: no cover
                pass
        conn.close()


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class ShmRoundExecutor:
    """Owns the shared segments and the worker pool for one engine.

    Created by ``ColumnarRoundSimulation._start()`` when ``workers > 1``;
    the engine's column attributes are re-pointed at shared views so the
    coordinator-side code (publish, crash/recover, truncation, aggregates)
    is unchanged.  ``close()`` copies the columns back into private arrays,
    reaps the workers and unlinks every segment.
    """

    def __init__(self, sim, workers: int) -> None:
        self._sim = sim
        self.workers = workers
        self._n = sim._n
        self._words = sim._words
        self._closed = False
        self._blocks: Dict[str, Tuple[shared_memory.SharedMemory,
                                      np.ndarray]] = {}

        sim._alive = self._adopt("alive", sim._alive)
        sim._view_len = self._adopt("viewlen", sim._view_len)
        sim._view_mat = self._adopt("viewmat", sim._view_mat)
        # delivered/active stay engine-local until the first publish grows
        # event capacity (grow_events allocates their first segments).
        self._arrivals = self._alloc_block(
            "arrivals", (workers, self._n), np.int64)
        self._dups = self._alloc_block("dups", (workers, self._n), np.int64)
        self._newmask: Optional[np.ndarray] = None
        self._kernel_bytes = 0  # the workers' private SlabScratch, as acked

        ctx = multiprocessing.get_context(
            "fork" if hasattr(os, "fork") else "spawn")
        cfg = sim.config
        self._conns: List = []
        self._procs: List = []
        try:
            for w in range(workers):
                parent_conn, child_conn = ctx.Pipe()
                static = {
                    "worker": w,
                    "workers": workers,
                    "lo": w * self._n // workers,
                    "hi": (w + 1) * self._n // workers,
                    "n": self._n,
                    "seed": sim.seed,
                    "fanout": cfg.fanout,
                    "loss": sim.loss_rate,
                    "digest": cfg.digest_implies_delivery,
                }
                proc = ctx.Process(target=_worker_main,
                                   args=(child_conn, static), daemon=True)
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
        except Exception:
            self.close()
            raise

    # -- segment management --------------------------------------------------
    def _alloc(self, shape, dtype):
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        seg = shared_memory.SharedMemory(create=True, size=max(nbytes, 8))
        arr = _view(seg, shape, dtype)
        arr.fill(0)
        return seg, arr

    def _alloc_block(self, role: str, shape, dtype) -> np.ndarray:
        seg, arr = self._alloc(shape, dtype)
        self._blocks[role] = (seg, arr)
        return arr

    def _adopt(self, role: str, source: np.ndarray) -> np.ndarray:
        """Copy an engine column into a fresh segment; the shared view
        replaces the engine's attribute."""
        seg, arr = self._alloc(source.shape, source.dtype)
        arr[...] = source
        self._blocks[role] = (seg, arr)
        return arr

    def _descriptor(self) -> Dict[str, Optional[tuple]]:
        segs: Dict[str, Optional[tuple]] = {}
        for role in ("alive", "viewlen", "viewmat", "arrivals", "dups",
                     "delivered", "active", "newmask"):
            block = self._blocks.get(role)
            if block is None:
                segs[role] = None
            else:
                seg, arr = block
                segs[role] = (seg.name, arr.shape, arr.dtype.str)
        return segs

    def grow_events(self, new_cap: int) -> None:
        """Replace the event-bitmap segments with larger ones (called from
        the engine's ``_grow_events`` under the doubling policy)."""
        sim = self._sim
        seg_d, new_d = self._alloc((new_cap, self._words), np.uint64)
        seg_a, new_a = self._alloc((new_cap, self._words), np.uint64)
        seg_m, new_m = self._alloc((self.workers, new_cap, self._words),
                                   np.uint64)
        if sim._event_cap:
            used = len(sim._notifications) - 1
            new_d[:used] = sim._delivered[:used]
            new_a[:used] = sim._active[:used]
        sim._delivered = new_d
        sim._active = new_a
        self._newmask = new_m
        old = [self._blocks.pop(role) for role in _DYNAMIC_ROLES
               if role in self._blocks]
        self._blocks["delivered"] = (seg_d, new_d)
        self._blocks["active"] = (seg_a, new_a)
        self._blocks["newmask"] = (seg_m, new_m)
        for seg, _arr in old:
            seg.close()
            seg.unlink()

    def scratch_bytes(self) -> int:
        """Scratch footprint (for ``memory_bytes``): per-worker arrival and
        duplicate counters, new-infection masks, private kernel buffers."""
        total = self._arrivals.nbytes + self._dups.nbytes + self._kernel_bytes
        if self._newmask is not None:
            total += self._newmask.nbytes
        return int(total)

    # -- the round -----------------------------------------------------------
    def run_slabs(self, events: int, paused, drops, partitions):
        """Run the slab kernel for every slab in the worker pool and fold
        the scratch rows behind the barrier: per-node arrival/duplicate
        counts go into the engine's stat columns; the admitted-arrival
        total and the OR of the per-worker new-infection masks
        (``uint64[events, words]``) are returned for the engine's
        ``_merge_round``."""
        if self._closed:
            raise RuntimeError("columnar multi-core engine is closed")
        self._arrivals[:] = 0
        self._dups[:] = 0
        if events:
            self._newmask[:, :events, :] = 0
        cmd = {
            "op": "round",
            "events": events,
            "paused": paused,
            "drops": drops,
            "partitions": partitions,
            "segs": self._descriptor(),
        }
        for conn in self._conns:
            conn.send(cmd)
        admitted = self._kernel_bytes = 0
        for w, conn in enumerate(self._conns):
            reply = conn.recv()
            if reply[0] != "ok":
                raise RuntimeError(
                    f"columnar shm worker {w} failed: {reply[1]}")
            admitted += reply[1]
            self._kernel_bytes += reply[2]
        stats = self._sim._stats
        stats["gossips_received"] += self._arrivals.sum(axis=0)
        stats["duplicates"] += self._dups.sum(axis=0)
        fresh = (np.bitwise_or.reduce(self._newmask[:, :events, :], axis=0)
                 if events else None)
        return admitted, fresh

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in getattr(self, "_conns", []):
            try:
                conn.send({"op": "stop"})
            except Exception:
                pass
        for proc in getattr(self, "_procs", []):
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=10)
        for conn in getattr(self, "_conns", []):
            try:
                conn.close()
            except Exception:  # pragma: no cover
                pass
        self._conns = []
        self._procs = []
        # Re-point the engine at private copies, then drop every shared
        # view before closing the segments (close() refuses while buffer
        # exports exist).
        sim = self._sim
        for role, attr in (("alive", "_alive"), ("viewlen", "_view_len"),
                           ("viewmat", "_view_mat"),
                           ("delivered", "_delivered"),
                           ("active", "_active")):
            if role in self._blocks:
                setattr(sim, attr, np.array(getattr(sim, attr), copy=True))
        self._arrivals = None
        self._dups = None
        self._newmask = None
        blocks, self._blocks = self._blocks, {}
        segs = [seg for seg, _arr in blocks.values()]
        blocks.clear()  # the tuples hold the last array references
        for seg in segs:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
