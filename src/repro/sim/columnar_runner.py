"""Array-backed columnar round engine for mega-scale runs (n >= 100k).

The object-per-node engines walk ``n`` Python objects per round, which keeps
them to a few thousand nodes.  :class:`ColumnarRoundSimulation` keeps
the whole system in preallocated dense columns keyed by node *index* —
views, alive flags, per-event delivery/forwarding bitmaps, per-node stat
counters — and executes each gossip round as a handful of batched
vectorized passes (partner selection, loss admission, digest diff /
delivery, buffer truncation) instead of ``n`` per-node ticks.  The passes
are numpy array operations; numpy is a hard dependency of the package and
there is no other implementation of the round.  It is imported on the first
``_np`` read (:class:`~repro.sim.bitset.NumpyOnFirstUse`), not at import.

The round kernel: O(F) selection, no temporaries
------------------------------------------------
Fig. 1(b) says "choose F random members in view" and Sec. 4 shows the
infection probability ``p`` does not depend on the view size ``l``; neither
does a round here.  :func:`sample_view_slots` draws pick ``i`` uniformly in
``[0, |view| - i)`` and steps it past the ``i`` earlier picks — an exact
ordered sample without replacement, ``F`` uniforms per sender and no pass
over the ``l`` slots — the distribution of ``gossip_targets``'
``rng.sample``.  Selection, admission and event spread form one kernel,
:func:`slab_round`, that reads columns and writes three output buffers;
the single-core round runs it on ``[0, n)``, each shared-memory worker on
its slab, and one ``_merge_round`` applies the result.  A block of
``BLOCK`` senders is a few ``[take, w]`` passes in cache-resident scratch
(scale, cast, step past a sorted copy of the earlier picks) and one
``take`` of the view matrix, which puts its targets where its draws were;
an event few carry costs work in proportion to its hits, not to n.  The
``[take, m]`` buffer lives in the simulation's :class:`SlabScratch`, so a
steady-state round allocates only ``bincount``'s results.  **The draw order
is the contract** — the picks, then loss, then each active drop window, one
``random((take, m))`` each — so the block size changes no output bit
(``test_columnar_state_golden.py``).

Bit-packed state (n = 1,000,000)
--------------------------------
All boolean per-node columns — the alive flags and the per-event
delivery/forwarding bitmaps — are stored bit-packed, 64 nodes per word,
as ``uint64`` word arrays (:mod:`repro.sim.bitset`).  An event row costs
``n/8`` bytes instead of ``n``, and the round passes operate on words
(masked OR-propagation for infection spread, popcount for curve reads)
so a million-node system fits comfortably in memory: the dominant
remaining columns are the ``int32`` view matrix (``4 * n * view_cap``
bytes) and two ``int64`` stat columns.  :meth:`memory_bytes` reports
the resident column footprint for the bench harness.

Multi-core rounds (``workers=N``)
---------------------------------
With ``workers > 1`` the node axis is partitioned across long-lived
worker processes over ``multiprocessing.shared_memory`` views — see
:mod:`repro.sim.columnar_shm`.  Partition boundaries are fixed by
``(n, workers)`` alone and the honoured counter series (below) are
computed by the coordinator from schedule-deterministic state, so the
honoured fingerprint is byte-identical for *any* worker count, including
``workers=1`` and the serial engine.  Per-target randomness draws from
per-worker streams (``derive_seed(seed, "columnar-shm", w)``), so the
non-honoured counters vary with the worker count — the same declared
divergence already accepted between serial and columnar.  Call
:meth:`close` (or use the engine as a context manager) to reap workers and
shared-memory segments.

Honoured-metric contract
------------------------
The columnar engine is *not* bit-identical to the serial engine — it trades
per-message fidelity for scale.  It is validated by the DST differential
oracle on the **honoured metric subset**: counter series that depend only
on the fault-plan schedule and the protocol's deterministic emission rule,
never on any random draw.  For the same spec the serial and columnar runs
must produce byte-identical records for:

* ``sim.rounds`` — one increment per round;
* ``sim.sends{kind="GossipMessage", round=r}`` — every alive, non-paused
  process emits ``min(F, |view|) * (1 + membership_boost)`` gossip messages
  per tick, and views never shrink in the plain scenario family (no
  unsubscriptions), so the per-round count is schedule-determined;
* ``faults.crashes_applied`` / ``faults.recoveries_applied`` /
  ``faults.pause_rounds`` — counted by the shared
  :class:`~repro.faults.injector.FaultInjector` purely from the plan.

Declared divergences (everything else; pinned by
``tests/sim/test_columnar.py`` and documented in
``docs/experiments-guide.md``):

* delivery / receive / duplicate counters, ``net.*`` accounting and
  per-sender ledgers — partner selection and loss draw from the columnar
  engine's own (vectorized) stream;
* message-level fault classes: partitions and drop-rate windows are applied
  (vectorized, own stream), duplicate/delay windows are ignored (delivery
  is idempotent and round-granular here), Byzantine plans are rejected;
* recovery re-join: a recovered process resumes gossiping with its retained
  view but sends no Sec. 3.4 re-subscription handshake;
* membership traffic does not reshape views — views are frozen at
  bootstrap (sizes are constant either way in the plain family);
* trace events, reply generations, retransmission traffic and subs/unsubs
  buffer occupancy are not modelled.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from functools import partial
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from ..core.config import LpbcastConfig
from ..core.events import Notification, make_notification
from ..core.ids import ProcessId
from ..telemetry import Telemetry
from . import bitset
from .network import NetworkModel
from .rng import SeedSequence, derive_seed

_np = bitset.NumpyOnFirstUse(globals())


# ---------------------------------------------------------------------------
# Honoured-metric helpers (shared with the DST oracle)
# ---------------------------------------------------------------------------

#: Counter names honoured bit-identically regardless of labels.
HONOURED_COUNTERS = frozenset({
    "sim.rounds",
    "faults.crashes_applied",
    "faults.recoveries_applied",
    "faults.pause_rounds",
})

#: ``sim.sends`` is honoured for this message kind only (tick gossips);
#: join/retransmission traffic rides other kinds and is not modelled.
HONOURED_SEND_KIND = "GossipMessage"


def is_honoured_record(record) -> bool:
    """Whether one canonical counter record is part of the serial-vs-columnar
    bit-identity contract (see module docstring)."""
    name, labels, _value = record
    if name in HONOURED_COUNTERS:
        return True
    if name == "sim.sends":
        return ("kind", repr(HONOURED_SEND_KIND)) in labels
    return False


def honoured_records(records: Sequence) -> List:
    """The honoured subset of a canonical counter-record list."""
    return [record for record in records if is_honoured_record(record)]


def honoured_fingerprint(records: Sequence) -> str:
    """SHA-256 over the honoured subset — the honoured series consume no
    randomness, so it is the same for any engine, seed stream and worker
    count."""
    return hashlib.sha256(repr(honoured_records(records)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# The slab kernel: selection + admission + event spread for one
# contiguous sender range.  The single-core round calls it on [0, n) with
# the engine's stream; each shared-memory worker calls it on its slab with
# its own stream (repro.sim.columnar_shm).
# ---------------------------------------------------------------------------


#: Senders per kernel block (cache-sized); any value gives the same bits.
BLOCK = 4096


class SlabScratch:
    """A slab kernel's state between rounds: ``[take, m]`` draws and targets,
    a block of scratch rows, n-wide spread rows, the last round's inputs.
    Dropped with its owner."""

    def __init__(self) -> None:
        self._held: Dict[str, object] = {}
        self.seen = None  # (alive words, paused, view_len) of the inputs
        self.inputs = None  # slab_inputs' (alive, senders, sends, unsent)

    def array(self, role: str, shape, dtype):
        """``role``'s C-contiguous array, reallocated only when outgrown."""
        size = int(_np.prod(shape))
        held = self._held.get(role)
        if held is None or held.size < size or held.dtype != dtype:
            held = self._held[role] = _np.empty(size, dtype=dtype)
        return held[:size].reshape(shape)

    def nbytes(self) -> int:
        alive, senders, _, unsent = self.inputs or (None, (), 0, None)
        if senders and isinstance(senders[0], slice):  # |view|: view_len's
            senders = senders[2:]
        arrays = (*self._held.values(), *senders, alive, unsent)
        return sum(array.nbytes for array in arrays if array is not None)


def slab_senders(alive, view_len, paused, fanout: int, lo: int, hi: int):
    """Senders of slab ``[lo, hi)`` — alive, not paused, non-empty view —
    as ``(indices, |view|, min(F, |view|))``, indices ``slice(lo, hi)`` if
    all of them send.  Depends only on the schedule, so the coordinator's
    honoured ``sim.sends`` total is the third column summed over ``[0, n)``
    whatever the worker count."""
    mask = alive[lo:hi] & (view_len[lo:hi] > 0)
    for index in paused:
        if lo <= index < hi:
            mask[index - lo] = False
    s_idx = slice(lo, hi) if mask.all() else _np.flatnonzero(mask) + lo
    lens = view_len[s_idx]
    return s_idx, lens, _np.minimum(fanout, lens)


def _sender_ids(s_idx, lo: int, hi: int):
    """Senders ``[lo, hi)`` of :func:`slab_senders`' indices, as an array."""
    if isinstance(s_idx, slice):
        return _np.arange(s_idx.start + lo, s_idx.start + hi)
    return s_idx[lo:hi]


def slab_inputs(alive_words, n: int, view_len, paused, fanout: int, lo: int,
                hi: int, scratch: SlabScratch):
    """A round's unpacked alive flags, :func:`slab_senders`' triple, its
    ``sends`` total (the third column summed) and the words of the
    processes that did not send — recomputed only when the packed alive
    words (an n/64-word compare), the paused set or ``view_len`` differ
    from the last round's."""
    seen = scratch.seen
    if (seen is None or seen[1] != paused or seen[2] is not view_len
            or not _np.array_equal(seen[0], alive_words)):
        alive = bitset.unpack_bools(alive_words, n)
        senders = slab_senders(alive, view_len, paused, fanout, lo, hi)
        scratch.seen = alive_words.copy(), paused, view_len
        scratch.inputs = (alive, senders, int(senders[2].sum()),
                          ~bitset.mask_from_indices(senders[0], n))
    return scratch.inputs


def _sample_blocks(draws, lens, scratch: SlabScratch):
    """:func:`sample_view_slots` by ``BLOCK``s of senders, scaling ``draws``
    in place: yields ``(lo, hi, picks)``, ``picks[i]`` pick ``i``'s slots
    for senders ``[lo, hi)``, in scratch that the next block overwrites."""
    take, m = draws.shape
    shift = _np.arange(take, dtype=_np.float64)[:, None]
    spans = (_np.maximum(lens[:1] - shift, 1)  # max(|view| - i, 1), [take, 1]
             if lens.size and lens.min() == lens.max() else None)
    width = 0
    for lo in range(0, m, BLOCK):
        hi = min(lo + BLOCK, m)
        if hi - lo != width:  # the first block, and a short last one
            width = hi - lo
            rows = scratch.array("rows", (2 * take + 1, width), _np.intp)
            picks, ranked, spare = rows[:take], rows[take:], rows[-1]
            span = spans if spans is not None else scratch.array(
                "spans", (take, width), _np.float64)
        if spans is None:
            _np.maximum(_np.subtract(lens[lo:hi], shift, out=span), 1,
                        out=span)
        # Scale, cast (truncating), then step pick i past the earlier picks
        # in ascending order: a sorted copy keeps ``picks`` in draw order.
        picks[...] = _np.multiply(draws[:, lo:hi], span, out=draws[:, lo:hi])
        ranked[0] = picks[0]
        for i in range(1, take):
            pick = picks[i]
            for prev in ranked[:i]:
                _np.greater_equal(pick, prev, out=spare)
                pick += spare
            if i + 1 < take:  # insert: ranked[j] = max(r[j-1], min(r[j], p))
                _np.maximum(ranked[i - 1], pick, out=ranked[i])
                for j in range(i - 1, 0, -1):
                    _np.minimum(ranked[j], pick, out=ranked[j])
                    _np.maximum(ranked[j - 1], ranked[j], out=ranked[j])
                _np.minimum(ranked[0], pick, out=ranked[0])
        yield lo, hi, picks


def sample_view_slots(rng, lens, take: int):
    """Ordered uniform sample without replacement of view slots, O(take)
    per sender whatever ``|view|``: pick ``i`` is drawn in
    ``[0, |view| - i)`` — its rank among the slots still unpicked — and
    stepped past the ``i`` earlier picks in ascending order.  The same
    distribution as ``gossip_targets``' ``rng.sample``.

    Returns ``int64[take, len(lens)]``, one row per pick position; entry
    ``[i, s]`` is meaningful where ``i < lens[s]`` and otherwise some slot
    ``<= i`` (in bounds for any view matrix at least ``take`` wide)."""
    draws = rng.random((take, lens.size))
    slots = _np.empty(draws.shape, dtype=_np.int64)
    for lo, hi, picks in _sample_blocks(draws, lens, SlabScratch()):
        slots[:, lo:hi] = picks
    return slots


def slab_round(rng, senders, view_mat, alive, alive_words, loss: float,
               drops, partitions, spread, delivered, events: int,
               arrivals_out, dups_out, fresh_out,
               scratch: Optional[SlabScratch] = None) -> int:
    """One slab's share of a gossip round (Fig. 1(b), vectorised).

    ``senders`` is :func:`slab_senders`' triple and must be non-empty;
    ``alive`` the unpacked alive flags, ``alive_words`` the same packed;
    ``drops`` / ``partitions`` the round's active windows in index form
    (``_fault_windows``); ``spread`` the event rows whose set bits make a
    sender a carrier.  Per-node admitted arrivals and duplicate receptions
    are added to ``arrivals_out`` / ``dups_out``; targets hit by a carrier
    of event ``e`` that had not delivered it are OR-ed into
    ``fresh_out[e]``.  Reads no engine state, writes nothing else but
    ``scratch`` (fresh if omitted), returns the admitted arrivals.  Draws:
    picks, loss, each drop window."""
    s_idx, lens, k = senders
    scratch = scratch or SlabScratch()
    n, m, cap, take = alive.size, lens.size, view_mat.shape[1], int(k.max())
    draws = rng.random(out=scratch.array("draws", (take, m), _np.float64))
    targets = draws.view(_np.int64)  # a block's targets replace its draws
    peers = view_mat.reshape(-1)
    base = scratch.array("base", (min(BLOCK, m),), _np.intp)
    near = scratch.array("near", (take, min(BLOCK, m)), view_mat.dtype)
    for lo, hi, picks in _sample_blocks(draws, lens, scratch):
        picks += _np.multiply(_sender_ids(s_idx, lo, hi), cap,
                              out=base[:hi - lo])
        gathered = peers.take(picks, mode="clip", out=near[:, :hi - lo])
        targets[:, lo:hi] = gathered

    # Admission: i.i.d. network loss, drop-rate windows, partitions, crashed
    # receivers — and no mask at all in a round where nothing can fail.
    live, survive = int(_np.count_nonzero(alive)), None
    if (loss > 0.0 or drops or partitions or int(k.min()) < take
            or live < n):
        survive = _np.arange(take)[:, None] < k
        if loss > 0.0:
            survive &= rng.random(targets.shape) >= loss
        for rate, src_index, dst_index in drops:
            hit = rng.random(targets.shape) < rate
            if src_index is not None:
                hit &= _sender_ids(s_idx, 0, m) == src_index
            if dst_index is not None:
                hit &= targets == dst_index
            survive &= ~hit
        for a_indices, b_indices, direction in partitions:
            side_a, side_b = _np.zeros((2, n), dtype=bool)
            side_a[a_indices] = side_b[b_indices] = True
            if direction in ("both", "a-to-b"):
                survive &= ~(side_a[s_idx] & side_b[targets])
            if direction in ("both", "b-to-a"):
                survive &= ~(side_b[s_idx] & side_a[targets])
        survive &= alive[targets]
    arrivals = targets.reshape(-1) if survive is None else targets[survive]
    counts = _np.bincount(arrivals, minlength=n)
    arrivals_out += counts

    # Event spread: a gossip from a carrier of event e reaches the receiver
    # with e (digest or events buffer: the caller's ``spread``).  A row no
    # alive process carries is skipped, and the rows every alive process
    # holds (the events buffer is a subset of the delivered; senders are
    # alive; dead receivers count 0) add ``counts`` to the duplicates in one
    # pass after the loop; else the smaller side, carriers or the rest, is
    # gathered.  Hits under n / 16 are booked one by one (n-wide passes cost
    # ~n / 8 of them): a few carriers' as they land; a few non-carriers' as
    # if every process held e, less their hits and the share of those
    # without e (under n / 16 too).  The dense tail writes into ``scratch``.
    held, rows = 0, spread[:events]
    if live < n:
        rows = _np.bitwise_and(rows, alive_words, out=scratch.array(
            "rows_alive", rows.shape, rows.dtype))
    for event, carried in enumerate(bitset.popcount_rows(rows).tolist()):
        if not carried or carried == live:
            held += carried == live
            continue
        flags = bitset.unpack_bools(spread[event], n)
        had = (flags if spread is delivered
               else bitset.unpack_bools(delivered[event], n))
        carriers = flags if m == n else flags[s_idx]  # m == n: identity
        few = _np.count_nonzero(carriers) * 2 <= m
        cols = _np.flatnonzero(carriers if few else ~carriers)
        hits = counts
        if cols.size:
            hit = scratch.array("hit", (take, cols.size), _np.int64)
            targets.take(cols, axis=1, mode="clip", out=hit)
            hit = (hit.reshape(-1) if survive is None
                   else hit[survive.take(cols, axis=1)])
            if hit.size * 16 <= n and (few or (
                    outside := _np.flatnonzero(~had)).size * 16 <= n):
                known = had[hit]
                if few:
                    _np.add.at(dups_out, hit[known], 1)
                    new = hit[~known]
                else:
                    held += 1
                    _np.subtract.at(dups_out, hit[known], 1)
                    reached = counts[outside]
                    dups_out[outside] -= reached
                    reached -= _np.bincount(_np.searchsorted(
                        outside, hit[~known]), minlength=outside.size)
                    new = outside[reached > 0]
                bits = _np.uint64(1) << (new & 63).view(_np.uint64)
                _np.bitwise_or.at(fresh_out[event], new >> 6, bits)
                continue
            hits = _np.bincount(hit, minlength=n)
            if not few:
                _np.subtract(counts, hits, out=hits)
        elif few:  # no sender carries it
            continue
        if spread is not delivered and bitset.popcount_words(
                delivered[event] if live == n
                else delivered[event] & alive_words) == live:
            dups_out += hits
            continue
        reached = _np.greater(hits, 0,
                              out=scratch.array("reached", (n,), bool))
        fresh_out[event] |= bitset.pack_bools(
            _np.greater(reached, had, out=reached))  # reached and not had
        dups_out += _np.multiply(hits, had, out=hits if hits is not counts
                                 else scratch.array("hit", (n,), _np.int64))
    if held:
        dups_out += counts if held == 1 else _np.multiply(counts, held,
                                                          out=counts)
    return int(arrivals.size)


# ---------------------------------------------------------------------------
# Node handles
# ---------------------------------------------------------------------------


class ColumnarNodeHandle:
    """Lightweight ``sim.nodes[pid]`` stand-in over the columns.

    Exposes the entry points harnesses actually use on a node object —
    ``lpb_cast`` and ``add_delivery_listener`` — plus the identity/stat
    reads; full protocol state lives in the owning simulation's arrays.
    """

    __slots__ = ("pid", "_sim", "_index")

    def __init__(self, sim: "ColumnarRoundSimulation", pid: ProcessId,
                 index: int) -> None:
        self.pid = pid
        self._sim = sim
        self._index = index

    def lpb_cast(self, payload=None, now: float = 0.0) -> Notification:
        return self._sim._publish(self._index, payload, now)

    def add_delivery_listener(self, listener) -> None:
        self._sim._add_delivery_listener(self._index, listener)

    @property
    def view(self) -> List[ProcessId]:
        return self._sim._view_of(self._index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarNodeHandle(pid={self.pid})"


class _HandleMap(Mapping):
    """``sim.nodes``: a pid -> handle mapping that materialises handles
    lazily — a 1M-node run must not allocate 1M wrapper objects up front."""

    __slots__ = ("_sim", "_cache")

    def __init__(self, sim: "ColumnarRoundSimulation") -> None:
        self._sim = sim
        self._cache: Dict[ProcessId, ColumnarNodeHandle] = {}

    def __getitem__(self, pid: ProcessId) -> ColumnarNodeHandle:
        handle = self._cache.get(pid)
        if handle is None:
            index = self._sim._index_of(pid)
            if index is None:
                raise KeyError(pid)
            handle = self._cache[pid] = ColumnarNodeHandle(
                self._sim, pid, index)
        return handle

    def __iter__(self) -> Iterator[ProcessId]:
        return iter(self._sim._pids)

    def __len__(self) -> int:
        return len(self._sim._pids)

    def __contains__(self, pid: object) -> bool:
        return self._sim._index_of(pid) is not None


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ColumnarRoundSimulation:
    """Vectorized synchronous-round lpbcast over dense bit-packed columns.

    Build either by ingesting prebuilt nodes (``add_nodes`` — the DST
    harness path, bounded n) or directly at scale with :meth:`build`
    (column-native bootstrap, no per-node objects).  The run surface
    mirrors :class:`~repro.sim.round_runner.RoundSimulation`: ``run`` /
    ``run_round`` / ``run_until``, round hooks and observers, ``crash`` /
    ``recover`` / ``use_fault_plan``, ``node_aggregates`` and engine-native
    ``telemetry``.  ``workers > 1`` runs the round passes across that many
    shared-memory worker processes (see module docstring) — call
    :meth:`close` when done, or use ``with``.
    """

    def __init__(
        self,
        network: Optional[NetworkModel] = None,
        seed: int = 0,
        workers: int = 1,
    ) -> None:
        if not isinstance(workers, int) or isinstance(workers, bool):
            raise ValueError(f"workers must be a positive int, got "
                             f"{workers!r}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.seeds = SeedSequence(seed)
        self.seed = seed
        #: The network model contributes only its ``loss_rate`` — admission
        #: draws come from the columnar engine's own stream (declared
        #: divergence from the serial ``seeds.rng("network")`` stream).
        self.network = network if network is not None else NetworkModel(
            loss_rate=0.0, rng=self.seeds.rng("network"))
        self.loss_rate = float(getattr(self.network, "loss_rate", 0.0))
        self.telemetry = Telemetry()
        self.round = 0
        self.messages_delivered = 0  # gossip arrivals admitted, cumulative
        self.nodes: Mapping[ProcessId, ColumnarNodeHandle] = _HandleMap(self)
        self.config: Optional[LpbcastConfig] = None

        self._pids: Sequence[ProcessId] = []  # build(): range(n)
        self._index: Optional[Dict[ProcessId, int]] = {}  # build(): None
        self._view_rows: List[List[int]] = []   # node index -> peer indices
        self._started = False
        self._hooks: List[Callable] = []
        self._observers: List[Callable] = []
        self._fault_injector = None
        self._fault_paused: frozenset = frozenset()
        self._tele_baseline: Dict[str, int] = {}
        self._listeners: Dict[int, List[Callable]] = {}
        self._has_listeners = False

        # Event registry: one row per published notification.
        self._notifications: List[Notification] = []
        self._event_seq: Dict[int, int] = {}  # origin index -> last seq

        # Columns are allocated in _start() once membership is final.
        # Boolean per-node state is bit-packed into uint64 words
        # (repro.sim.bitset).
        self._n = 0
        self._words = 0          # words_for(n)
        self._alive = None       # uint64[words]
        self._view_mat = None    # int32 (n, view_cap)
        self._view_len = None
        self._delivered = None   # (E_cap, words) uint64
        self._active = None      # (E_cap, words) events-buffer bitmap
        self._event_cap = 0
        self._columns: Dict[str, object] = {}  # the stored _stats, see there
        self._sent_by, self._sent_rounds = None, 0  # not in gossips_sent yet
        self._shm = None         # ShmRoundExecutor when workers > 1
        self._scratch = SlabScratch()  # the kernel's persistent buffers

        self._rng = _np.random.default_rng(derive_seed(seed, "columnar"))

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls,
        n: int,
        config: Optional[LpbcastConfig] = None,
        seed: int = 0,
        network: Optional[NetworkModel] = None,
        backend: str = "auto",
        workers: int = 1,
    ) -> "ColumnarRoundSimulation":
        """Column-native bootstrap of ``n`` processes with uniform random
        initial views of size ``min(view_max, n - 1)`` — the Sec. 4.1
        assumption, drawn without building per-node objects.

        ``backend`` selects nothing: numpy is the only implementation.  The
        parameter is checked and otherwise ignored because the perf ledger
        (``benchmarks/ledger``) still passes ``backend="numpy"``; it goes
        when the ledger stops passing it."""
        if backend not in ("auto", "numpy"):
            raise ValueError(
                f"backend={backend!r}: the columnar backend option was "
                "removed (numpy is the only implementation); drop the "
                "argument")
        if n < 2:
            raise ValueError("need at least two processes")
        sim = cls(network=network, seed=seed, workers=workers)
        sim.config = config if config is not None else LpbcastConfig()
        sim._pids, sim._index = range(n), None
        sim._bootstrap_views(n, min(sim.config.view_max, n - 1))
        return sim

    def _index_of(self, pid, default=None) -> Optional[int]:
        """``pid``'s node index, as a dict keyed by the pids answers: it
        finds ``p`` iff ``hash(pid) == hash(p)`` and ``pid == p``, and a
        built system's ``p`` in ``range(n)`` has ``hash(p) == p``."""
        if self._index is not None:
            return self._index.get(pid, default)
        index = hash(pid)
        return index if 0 <= index < len(self._pids) and index == pid \
            else default

    def _indices_of(self, pids) -> List[int]:
        """The node indices of the known ``pids``, in their order."""
        return [i for i in map(self._index_of, pids) if i is not None]

    def _pids_at(self, indices) -> List[ProcessId]:
        """The pids of node index array ``indices``."""
        keys = indices.tolist()
        return keys if self._index is None else [self._pids[i] for i in keys]

    def _bootstrap_views(self, n: int, k: int) -> None:
        rng = _np.random.default_rng(derive_seed(self.seed, "columnar-views"))
        # Draw k peers per row from the other n-1 processes: sample in
        # [0, n-2], shift indices >= own row by one to skip self, then
        # redraw rows holding duplicates; if a row has none with chance
        # prod(1 - i/(n-1)), i < k, under 1 %, take its k least of n-1 keys.
        # int32 throughout and sorted in place — a view is a set, slot
        # order carries no meaning — so the only full-size allocation
        # is the matrix _start() keeps: at n=1M materialising per-row
        # lists, or int64 scratch copies, would cost more than every
        # packed column combined.
        if _np.prod(1 - _np.arange(k) / (n - 1)) < 0.01:
            mat = _np.empty((n, k), dtype=_np.int32)
            step = max(1, (1 << 20) // (n - 1))  # rows of keys per chunk
            for lo in range(0, n, step):
                keys = rng.random((min(step, n - lo), n - 1))
                mat[lo:lo + step] = _np.argpartition(keys, k - 1)[:, :k]
        else:
            mat = rng.integers(0, n - 1, size=(n, k), dtype=_np.int32)
        mat += mat >= _np.arange(n, dtype=_np.int32)[:, None]
        mat.sort(axis=1)
        bad = _np.flatnonzero((mat[:, 1:] == mat[:, :-1]).any(axis=1))
        while bad.size:
            redraw = rng.integers(0, n - 1, size=(bad.size, k),
                                  dtype=_np.int32)
            redraw += redraw >= bad[:, None]
            redraw.sort(axis=1)
            mat[bad] = redraw
            bad = bad[(redraw[:, 1:] == redraw[:, :-1]).any(axis=1)]
        self._view_rows = mat

    def add_node(self, node) -> None:
        """Ingest one prebuilt protocol node (pid, config, initial view);
        its state columns replace the object, which is discarded."""
        if self._started:
            raise RuntimeError("columnar membership is frozen once the "
                               "first round has run")
        pid = node.pid
        if self._index_of(pid) is not None:
            raise ValueError(f"duplicate process id {pid}")
        cfg = getattr(node, "config", None)
        if self.config is None:
            self.config = cfg if cfg is not None else LpbcastConfig()
        self._index[pid] = len(self._pids)
        self._pids.append(pid)
        view = getattr(node, "view", None)
        self._view_rows.append(list(view) if view is not None else [])

    def add_nodes(self, nodes: Sequence) -> None:
        for node in nodes:
            self.add_node(node)

    def _start(self) -> None:
        """Freeze membership and allocate the dense columns."""
        n = len(self._pids)
        if n == 0:
            self._started = True
            self._n = 0
            return
        if self.config is None:
            self.config = LpbcastConfig()
        if self.config.causal_delivery:
            # Declared divergence (PR 8 contract): the columnar engine keeps
            # no per-notification metadata, so the causal hold-back queue
            # has nothing to hang dependencies on.
            raise ValueError(
                "the columnar engine does not support causal-delivery "
                "configurations (causal_delivery=True); use the serial "
                "or sharded engine")
        self._words = bitset.words_for(n)
        self._alive = _np.full(self._words, _np.uint64(0xFFFFFFFFFFFFFFFF),
                               dtype=_np.uint64)
        tail = n & 63
        if tail:  # clear the pad bits past node n-1
            self._alive[-1] = _np.uint64((1 << tail) - 1)
        if isinstance(self._view_rows, _np.ndarray):
            # build() path: rows are already an index matrix of uniform
            # width with no out-of-system references.
            self._view_mat = self._view_rows
            lens = self._view_mat.shape[1]
        else:
            # Ingest path: view rows arrive as pids; normalise to indices,
            # dropping references to processes outside the system.
            index = self._index
            rows = [[index[p] for p in row if p in index]
                    for row in self._view_rows]
            lens = [len(row) for row in rows]
            mat = _np.zeros((n, max(max(lens), 1)), dtype=_np.int32)
            for i, row in enumerate(rows):
                if row:
                    mat[i, :len(row)] = row
            self._view_mat = mat
        # The narrowest unsigned type holding the width and F (uint8 for
        # l <= 255): slab_senders' min(F, |view|) stays in it.
        self._view_len = _np.full(n, lens, dtype=_np.min_scalar_type(
            max(self._view_mat.shape[1], self.config.fanout)))
        self._columns = defaultdict(partial(_np.zeros, n, dtype=_np.int64))
        self._columns.update(duplicates=_np.zeros(n, dtype=_np.int64),
                             gossips_received=_np.zeros(n, dtype=_np.int64))
        self._delivered = _np.zeros((0, self._words), dtype=_np.uint64)
        self._active = _np.zeros((0, self._words), dtype=_np.uint64)
        self._view_rows = []  # consumed
        self._event_cap = 0
        self._n = n
        self._started = True
        if self.workers > 1:
            from .columnar_shm import ShmRoundExecutor
            self._shm = ShmRoundExecutor(self, self.workers)

    def _ensure_started(self) -> None:
        if not self._started:
            self._start()

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Release the kernel's round buffers and reap worker processes
        and shared-memory segments.  The engine remains readable but cannot
        run further rounds in multi-core mode."""
        self._scratch = SlabScratch()
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def __enter__(self) -> "ColumnarRoundSimulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- event registry ----------------------------------------------------
    def _grow_events(self) -> None:
        new_cap = max(8, 2 * self._event_cap)
        if self._shm is not None:
            self._shm.grow_events(new_cap)
        else:
            grown_d = _np.zeros((new_cap, self._words), dtype=_np.uint64)
            grown_a = _np.zeros((new_cap, self._words), dtype=_np.uint64)
            if self._event_cap:
                used = len(self._notifications) - 1
                grown_d[:used] = self._delivered[:used]
                grown_a[:used] = self._active[:used]
            self._delivered = grown_d
            self._active = grown_a
        self._event_cap = new_cap

    def _publish(self, index: int, payload, now: float) -> Notification:
        self._ensure_started()
        origin = self._pids[index]
        seq = self._event_seq.get(index, 0) + 1
        self._event_seq[index] = seq
        note = make_notification(origin, seq, payload, created_at=now)
        self._notifications.append(note)
        event = len(self._notifications) - 1
        if event >= self._event_cap:
            self._grow_events()
        bit = _np.uint64(1) << _np.uint64(index & 63)
        self._delivered[event, index >> 6] |= bit
        self._active[event, index >> 6] |= bit
        self._notify_delivery(index, note, now)
        return note

    def _add_delivery_listener(self, index: int, listener) -> None:
        self._listeners.setdefault(index, []).append(listener)
        self._has_listeners = True

    def _notify_delivery(self, index: int, note: Notification,
                         now: float) -> None:
        if not self._has_listeners:
            return
        for listener in self._listeners.get(index, ()):
            listener(self._pids[index], note, now)

    # -- runtime control ---------------------------------------------------
    def use_fault_plan(self, plan):
        """Attach a :class:`~repro.faults.plan.FaultPlan`.

        Crash/recovery/pause schedules apply exactly (the shared injector
        counts them identically to the serial engine — part of the honoured
        contract).  Partition and drop-rate windows shape delivery through
        the columnar engine's own stream; duplicate/delay windows are
        ignored; Byzantine plans are rejected — the vectorized path models
        no payload mutation.  A second install raises ``ValueError``, as on
        the object engines.
        """
        from ..faults.injector import FaultInjector

        if self._fault_injector is not None:
            raise ValueError("a fault plan is already installed")
        if plan.byzantine_pids():
            raise ValueError(
                "the columnar engine does not support Byzantine fault "
                "plans (equivocate/forge/replay/poison); use the serial "
                "or sharded engine")
        self._fault_injector = FaultInjector(plan, self.seeds.rng("faults"))
        return self._fault_injector

    # Until the first round, publish or effective crash freezes membership
    # (``_start``), every ingested process is alive: the reads below answer
    # from ``_pids``/``_index_of`` and leave ``add_node`` open, as the serial
    # engine does.
    def _is_alive(self, index: int) -> bool:
        if not self._started:
            return True
        word = self._alive[index >> 6]
        return bool((word >> _np.uint64(index & 63)) & _np.uint64(1))

    def _set_alive(self, index: int, flag: bool) -> None:
        bit = _np.uint64(1) << _np.uint64(index & 63)
        if flag:
            self._alive[index >> 6] |= bit
        else:
            self._alive[index >> 6] &= ~bit

    def crash(self, pid: ProcessId) -> None:
        """Fail-stop ``pid`` immediately (Sec. 4.1)."""
        index = self._index_of(pid)
        if index is not None and self._is_alive(index):
            self._ensure_started()
            self._set_alive(index, False)
            self.telemetry.emit("crash", float(self.round), pid=pid)

    def recover(self, pid: ProcessId) -> bool:
        """Un-crash ``pid`` with its retained state; no re-join handshake
        (declared divergence from the serial recovery path)."""
        index = self._index_of(pid)
        if index is None or self._is_alive(index):
            return False
        self._set_alive(index, True)
        return True

    def alive(self, pid: ProcessId) -> bool:
        index = self._index_of(pid)
        return index is not None and self._is_alive(index)

    def alive_count(self) -> int:
        if self._n == 0:  # no columns (yet): every ingested process
            return len(self._pids)
        return bitset.popcount_words(self._alive)

    def add_round_hook(self, hook) -> None:
        self._hooks.append(hook)

    def add_observer(self, observer) -> None:
        self._observers.append(observer)

    # -- the round loop ----------------------------------------------------
    def run_round(self) -> None:
        with self.telemetry.time("time.round"):
            self._run_round_body()

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.run_round()

    def run_until(self, predicate, max_rounds: int = 1000) -> int:
        remaining = max_rounds
        while True:
            if predicate(self):
                return self.round
            if remaining <= 0:
                raise RuntimeError(
                    f"predicate not satisfied within {max_rounds} rounds")
            self.run_round()
            remaining -= 1

    def _run_round_body(self) -> None:
        self._ensure_started()
        self.round += 1
        now = float(self.round)
        if self._fault_injector is not None:
            actions = self._fault_injector.round_start(self.round)
            for fault in actions.crashes:
                self.crash(fault.pid)
            for fault in actions.recoveries:
                self.recover(fault.pid)
            self._fault_paused = actions.paused
        for hook in self._hooks:
            hook(self.round, self)
        if self._n:
            with self.telemetry.time("time.tick"):
                sends = self._gossip_round(now)
            if sends:
                # One batched increment; byte-identical to the serial
                # engine's per-message fast-path increments for this series.
                self.telemetry.inc("sim.sends", sends, round=self.round,
                                   kind=HONOURED_SEND_KIND)
        self._sync_engine_counters()
        with self.telemetry.time("time.observers"):
            for observer in self._observers:
                observer(self.round, self)

    # -- vectorized gossip -------------------------------------------------
    def _fault_windows(self):
        """The round's active drop-rate and partition windows in index
        form — what :func:`slab_round` takes and what crosses the pipe to
        the shared-memory workers."""
        if self._fault_injector is None:
            return [], []
        plan, r, find = self._fault_injector.plan, self.round, self._index_of
        drops = [
            (window.rate,
             find(window.src, -1) if window.src is not None else None,
             find(window.dst, -1) if window.dst is not None else None)
            for window in plan.drops if window.start <= r < window.stop
        ]
        partitions = [
            (self._indices_of(part.side_a), self._indices_of(part.side_b),
             getattr(part, "direction", "both"))
            for part in plan.partitions if part.start <= r < part.heal
        ]
        return drops, partitions

    def _gossip_round(self, now: float) -> int:
        """The coordinator's round, for any worker count: the schedule-
        determined senders and ``sim.sends`` total are computed here —
        never by a worker — so the honoured series cannot depend on
        ``workers``; the slab kernel runs in-process on ``[0, n)`` or in
        the worker pool; :meth:`_merge_round` applies what it found."""
        cfg = self.config
        paused = self._indices_of(self._fault_paused)
        alive, senders, sends, _ = slab_inputs(
            self._alive, self._n, self._view_len, paused, cfg.fanout, 0,
            self._n, self._scratch)
        if senders[0] is not self._sent_by:  # slab_inputs found a new set
            self._fold_sent()
            self._sent_by = senders[0]
        if senders[1].size == 0:
            return 0
        self._sent_rounds += 1
        events = len(self._notifications)
        drops, partitions = self._fault_windows()
        # With digest_implies_delivery (the plain-family default) a gossip
        # infects the receiver with everything in the sender's eventIds
        # digest — the delivered bitmap; otherwise only the events buffer
        # (forwarded once, then cleared) carries payloads.
        spread = (self._delivered if cfg.digest_implies_delivery
                  else self._active)
        if self._shm is not None:
            admitted, fresh = self._shm.run_slabs(events, paused, drops,
                                                  partitions)
        else:
            fresh = _np.zeros((events, self._words), dtype=_np.uint64)
            admitted = slab_round(
                self._rng, senders, self._view_mat, alive, self._alive,
                self.loss_rate, drops, partitions, spread, self._delivered,
                events, self._columns["gossips_received"],
                self._columns["duplicates"], fresh, self._scratch)
        self.messages_delivered += admitted
        if events:
            self._merge_round(fresh, events, now)
        return sends * (1 + cfg.membership_boost)

    def _merge_round(self, fresh, events: int, now: float) -> None:
        """Apply one round's slab results: "events <- empty" for carriers
        that gossiped (Fig. 1(b): buffered payloads are forwarded once),
        then the new infections in ``fresh`` (``uint64[events, words]``),
        delivery listeners in ascending node order, and truncation.  The
        senders' bits are cleared *before* the merge so a process infected
        this round keeps its fresh events-buffer entry for the next one
        even though it, too, gossiped this round.  An event with no fresh
        and no buffered bit — a finished one — is not visited."""
        unsent = self._scratch.inputs[3]
        live = _np.flatnonzero(fresh.any(axis=1)
                               | self._active[:events].any(axis=1)).tolist()
        for event in live:
            self._active[event] &= unsent
            new = fresh[event] & ~self._delivered[event] & self._alive
            if not new.any():
                continue
            self._delivered[event] |= new
            self._active[event] |= new
            if self._has_listeners and self._listeners:
                note = self._notifications[event]
                for index in bitset.bit_indices(new, self._n).tolist():
                    self._notify_delivery(index, note, now)
        self._truncate_events(live)

    def _truncate_events(self, rows) -> None:
        """Bound per-node events-buffer occupancy by ``events_max``,
        dropping oldest entries first (serial drops uniformly at random —
        a declared divergence that keeps the pass branch-free).

        Of the event ``rows`` (ascending) only those with a buffered bit
        count: an empty row changes no node's count or rank.  With at most
        ``events_max`` of them no node can be over budget — the mega-scale
        steady state, however many events have finished — so the pass
        exits before unpacking any row.  The overflow path needs per-node
        counts *across* event rows, which word-packed columns cannot give
        without a transpose, so it unpacks those rows to booleans, reuses
        the dense algorithm, and repacks."""
        events_max = self.config.events_max
        rows = [event for event in rows if self._active[event].any()]
        if len(rows) <= events_max:
            return
        active = _np.vstack([bitset.unpack_bools(self._active[e], self._n)
                             for e in rows])
        counts = active.sum(axis=0)
        over = counts > events_max
        if not over.any():
            return
        newest_rank = _np.cumsum(active[::-1], axis=0)[::-1]
        drop = active & (newest_rank > events_max) & over[None, :]
        self._columns["events_dropped"] += drop.sum(axis=0, dtype=_np.int64)
        active &= ~drop
        for row, event in enumerate(rows):
            self._active[event] = bitset.pack_bools(active[row])

    @property
    def _stats(self) -> Dict[str, object]:
        """The six per-process ``int64`` stat columns by name.  Stored ones
        (``_columns``: two from the start, ``gossips_sent`` from its first
        fold, ``events_dropped`` from the first overflow) come back as they
        are; the others are built for the read, read-only, so a write that
        would be lost raises: ``published`` from ``_event_seq``,
        ``delivered`` as each process's bits over the ``_delivered`` rows."""
        if not self._n:
            return {}
        self._fold_sent()
        stats, seq = {}, self._event_seq
        for name in ("published", "delivered", "duplicates", "gossips_sent",
                     "gossips_received", "events_dropped"):
            column = stats[name] = self._columns.get(name)
            if column is None:
                column = stats[name] = _np.zeros(self._n, dtype=_np.int64)
                if name == "published":
                    column[list(seq)] = list(seq.values())
                elif name == "delivered":
                    for row in self._delivered[:len(self._notifications)]:
                        column += bitset.unpack_bools(row, self._n)
                column.flags.writeable = False
        return stats

    def _fold_sent(self) -> None:
        """Add the rounds ``_sent_by`` sent since the last fold to the
        ``gossips_sent`` column: a round costs one increment, not n."""
        if self._sent_rounds:
            self._columns["gossips_sent"][self._sent_by] += self._sent_rounds
            self._sent_rounds = 0

    # -- telemetry ---------------------------------------------------------
    def _sync_engine_counters(self) -> None:
        """Per-round counter deltas, mirroring the serial engine's emission
        shape.  The ``faults.*`` schedule counters and ``sim.rounds`` are
        part of the honoured contract; ``sim.delivered`` is columnar-local
        accounting (declared divergence)."""
        updates = {"sim.delivered": self.messages_delivered}
        if self._fault_injector is not None:
            for name, value in self._fault_injector.stats.as_dict().items():
                updates[f"faults.{name}"] = value
        for name, value in updates.items():
            last = self._tele_baseline.get(name, 0)
            if value != last:
                self.telemetry.inc(name, value - last, round=self.round)
                self._tele_baseline[name] = value
        self.telemetry.set_gauge("sim.alive", float(self.alive_count()))
        self.telemetry.inc("sim.rounds", 1)

    # -- aggregates --------------------------------------------------------
    def _view_of(self, index: int) -> List[ProcessId]:
        if not self._started:
            # Rows still hold pids (build(): pid == index), unfiltered.
            return [int(p) for p in self._view_rows[index]
                    if self._index_of(p) is not None]
        return self._pids_at(self._view_mat[index, :self._view_len[index]])

    def memory_bytes(self) -> int:
        """Resident footprint of the dense columns (views, alive words,
        event bitmaps, stat counters) and the kernel's persistent buffers —
        the bench harness's bytes-per-node read.  Shared-memory segments are
        counted once (the coordinator's views; worker mappings alias the same
        pages).  Before the columns exist only ``build()``'s view matrix is."""
        if self._n == 0:
            return getattr(self._view_rows, "nbytes", 0)
        total = (self._alive.nbytes + self._view_mat.nbytes
                 + self._view_len.nbytes
                 + self._delivered.nbytes + self._active.nbytes)
        total += sum(col.nbytes for col in self._columns.values())
        if self._scratch.inputs is None:  # a sender array close() kept
            total += getattr(self._sent_by, "nbytes", 0)
        total += self._scratch.nbytes()
        if self._shm is not None:
            total += self._shm.scratch_bytes()
        return int(total)

    def node_aggregates(self, pids: Optional[Sequence[ProcessId]] = None):
        """Summed stats/occupancy/in-degree over the alive processes,
        computed from the columns — same :class:`NodeAggregates` shape as
        the object engines.  ``published``/``delivered``-family stats come
        from the stat columns; subs occupancy is not modelled (0)."""
        from .aggregates import NodeAggregates

        agg = NodeAggregates()
        n = len(self._pids)
        if n == 0:
            return agg
        if self._started:
            mask = bitset.unpack_bools(self._alive, n)
        else:  # no columns yet: everyone alive, no stats, no events
            mask = _np.ones(n, dtype=bool)
        if pids is not None:
            keep = _np.zeros(n, dtype=bool)
            keep[self._indices_of(pids)] = True
            mask &= keep
        idx = _np.flatnonzero(mask)
        agg.count = int(idx.size)
        stats = self._stats  # built once: derived columns are not stored
        for name, column in stats.items():
            total = int(column[idx].sum())
            if total:  # zero sums are absent, as in aggregate_nodes
                agg.stat_sums[name] = total
        events = len(self._notifications)
        if events and idx.size:
            mask_words = bitset.pack_bools(mask)
            occupancy = sum(
                bitset.popcount_words(self._active[e] & mask_words)
                for e in range(events))
            agg.occupancy_sums["events"] = int(occupancy)
            ids = stats["delivered"]
            agg.occupancy_sums["event_ids"] = int(
                _np.minimum(ids[idx], self.config.event_ids_max).sum())
        else:
            agg.occupancy_sums["events"] = 0
            agg.occupancy_sums["event_ids"] = 0
        agg.occupancy_sums["subs"] = 0
        if self._started:
            # The alive rows' filled slots, <= 64k rows to a bincount so
            # the gathered copy stays small at n = 1M.
            degree = _np.zeros(n, dtype=_np.int64)
            slots = _np.arange(self._view_mat.shape[1])
            for rows in _np.array_split(idx, (idx.size >> 16) + 1):
                filled = slots < self._view_len[rows, None]
                degree += _np.bincount(self._view_mat[rows][filled],
                                       minlength=n)
            known = _np.flatnonzero(degree)
            agg.in_degree = dict(zip(self._pids_at(known),
                                     degree[known].tolist()))
            idx = idx[degree[idx] == 0]  # the others are keys already
        else:  # rows still hold pids: the pre-run read, never at scale
            for i in idx.tolist():
                for pid in self._view_of(i):
                    agg.in_degree[pid] = agg.in_degree.get(pid, 0) + 1
        agg.graph_nodes = set(agg.in_degree)
        agg.graph_nodes.update(self._pids_at(idx))
        return agg

    # -- reliability reads -------------------------------------------------
    def delivery_ratio(self, event: int = 0) -> float:
        """Fraction of currently-alive processes that delivered event row
        ``event`` — the infection-curve read at scale."""
        if event < 0:
            raise ValueError(f"event row {event} is negative")
        if event >= len(self._notifications):
            return 0.0
        total = bitset.popcount_words(self._alive)
        if not total:
            return 0.0
        got = bitset.popcount_words(self._delivered[event] & self._alive)
        return got / total
