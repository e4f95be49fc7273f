"""Sharded, multi-process synchronous-round engine for large-n runs.

The paper's scalability story (Fig. 3, Sec. 5.1) is exactly where the
single-process :class:`~repro.sim.round_runner.RoundSimulation` tops out:
every round ticks all *n* nodes and shuffles the full message queue in one
interpreter.  :class:`ShardedRoundSimulation` partitions the nodes across
worker processes (*shards*), ticks each shard in parallel within a round,
and exchanges cross-shard messages through batched per-round mailboxes —
while staying **bit-for-bit identical** to the serial engine for the same
root seed.

Determinism by construction
---------------------------
All stochastic decisions consume exactly the streams the serial engine
consumes, in exactly the same order:

* each node's private stream lives inside the node object and travels with
  it to its shard — per-node draws are independent of where the node runs;
* the delivery shuffle uses the coordinator's ``seeds.rng("delivery-order")``
  stream over the *merged* queue: message metadata from every shard is
  re-assembled in the serial engine's canonical order (carryover first, then
  tick output in global node-insertion order) before the seeded shuffle;
* loss/crash admission runs in the coordinator with the single
  ``seeds.rng("network")`` stream, message by message, in shuffled order.

Message payloads never pass through the coordinator: workers keep produced
messages in a per-round outbox keyed by handle, the coordinator routes only
``(src, dst, handle)`` metadata, and surviving cross-shard payloads move as
pre-encoded blobs the coordinator forwards untouched.  Within a sync the
source shard dedups payloads by object identity and groups the unique
messages by their destination-shard signature, encoding each group exactly
once — so a gossip fanned out to targets on every other shard crosses the
serialization layer once total, not once per destination mailbox (the win
shows up in the ``time.shard.sync`` timer).  Batches travel in the compact
binary wire format of :mod:`repro.wire.shard`, with an automatic
whole-batch pickle fallback for messages the binary codec cannot carry
faithfully (there is no knob: the batch's content decides).

One round body
--------------
The round itself — order of crashes, hooks, tick, shuffle, fault verdicts,
generations, carryover, accounting — is :class:`RoundSimulation`'s, run
unmodified.  This engine supplies only what actually differs: where a
payload lives (the :class:`_Ref` queue entries and the four entry hooks the
verdict interpreter reads them through) and how it travels between
processes (``_tick_phase`` / ``_delivery_phase`` / ``_round_end``).  That is
what makes it the DST oracle's second opinion rather than a second copy.

Surface
-------
The engine exposes the same ``run_round`` / ``run`` / ``run_until`` / hook /
observer / ``inject`` / ``crash`` surface as :class:`RoundSimulation` (it is
a subclass), so workloads, churn scripts and benchmarks switch engines via
the single ``engine=`` knob of :func:`repro.sim.engines.create_simulation`.
After ``start()`` (implicit on the first round), ``sim.nodes[pid]`` holds a
:class:`NodeProxy`: mutating entry points (``lpb_cast``, ``start_join``,
``try_unsubscribe``, ``add_delivery_listener``, generic ``call``) are
forwarded to the owning shard; plain attribute reads serve the last synced
replica (see :meth:`ShardedRoundSimulation.refresh_nodes` and
:meth:`ShardedRoundSimulation.collect`).

Known divergence: with ``on_node_error="crash"``, a node failing *mid-batch*
cannot retroactively un-consume network draws the coordinator already made
for later messages of the same generation, so crash-converted runs may
diverge from serial within that round.  The default ``"raise"`` mode is
exact.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.ids import ProcessId
from ..core.message import Outgoing
from ..telemetry import Telemetry
from .aggregates import NodeAggregates, aggregate_nodes, merge_aggregates
from .network import NetworkModel
from .round_runner import GossipProcess, RoundSimulation

#: Default shard count: one worker per core, capped — beyond a handful of
#: shards the per-round mailbox exchange dominates over tick parallelism.
DEFAULT_SHARDS = max(1, min(4, os.cpu_count() or 1))

_MAIN = -1  # pseudo-shard owning coordinator-held payloads (inject/churn)

# Record phase ranks: replay order is (phase, index, worker append order).
_PHASE_OPS = 0
_PHASE_TICK = 1
_PHASE_GEN0 = 2


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _wire_codecs():
    """Late import of the cross-shard blob codec: :mod:`repro.wire` pulls in
    the whole message-type surface (``wire.binary`` → ``pbcast`` → this
    package), so a top-level import here would close an import cycle."""
    from ..wire import pack_messages, unpack_messages
    return pack_messages, unpack_messages


def _byzantine_codec():
    """Late import of the Byzantine mutation applier (the ``repro.faults``
    package init pulls in chaos → sim, the same cycle as above)."""
    from ..faults.byzantine import mutate_message
    return mutate_message


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class _ShardState:
    """Node storage and command execution inside one shard process."""

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.nodes: Dict[ProcessId, object] = {}
        self.gidx: Dict[ProcessId, int] = {}     # global insertion index
        self.recording: set = set()              # pids with main-side listeners
        self.outbox: Dict[int, Tuple[ProcessId, ProcessId, object]] = {}
        self.next_handle = 0
        self.records: List[tuple] = []           # (phase, index, pid, notif, now)
        self._ctx: Tuple[int, int] = (0, 0)
        #: Shard-local registry; drained into the coordinator after every
        #: recording command, so counters merge by summation and trace
        #: events carry their (phase, index) replay tags.
        self.telemetry = Telemetry()

    # -- node management ----------------------------------------------------
    def install(self, pid: ProcessId, node: object, record: bool,
                gidx: int) -> None:
        self.nodes[pid] = node
        self.gidx[pid] = gidx
        if record:
            self.listen(pid)

    def listen(self, pid: ProcessId) -> None:
        if pid in self.recording:
            return
        node = self.nodes[pid]
        if hasattr(node, "add_delivery_listener"):
            node.add_delivery_listener(self._record_delivery)
            self.recording.add(pid)

    def _record_delivery(self, pid, notification, now) -> None:
        phase, index = self._ctx
        self.records.append((phase, index, pid, notification, now))

    def _stash(self, src: ProcessId, out: Outgoing) -> int:
        handle = self.next_handle
        self.next_handle += 1
        self.outbox[handle] = (src, out.destination, out.message)
        return handle

    # -- command handlers ---------------------------------------------------
    def do_add(self, blob: bytes) -> None:
        for pid, node, record, gidx in pickle.loads(blob):
            self.install(pid, node, record, gidx)

    def apply_ops(self, ops: Sequence[tuple]) -> List[tuple]:
        """Apply queued coordinator ops in order; returns node errors."""
        errors: List[tuple] = []
        for op in ops:
            kind, op_index = op[0], op[1]
            self._ctx = (_PHASE_OPS, op_index)
            try:
                if kind == "publish":
                    _, _, pid, payload, now = op
                    self.nodes[pid].lpb_cast(payload, now)
                elif kind == "addnode":
                    self.do_add(op[2])
                elif kind == "listen":
                    self.listen(op[2])
                else:  # pragma: no cover - coordinator bug
                    raise ValueError(f"unknown op {kind!r}")
            except Exception as exc:  # noqa: BLE001 - forwarded to main
                pid = op[2] if kind in ("publish", "listen") else None
                errors.append((pid, f"op:{kind}", _picklable(exc)))
        return errors

    def do_ops(self, ops: Sequence[tuple]):
        """Standalone op flush (outside a tick): ops plus their records."""
        self.records = []
        errors = self.apply_ops(ops)
        return errors, self.records

    def do_tick(self, now: float, crashed: frozenset, retain: Sequence[int],
                ops: Sequence[tuple], tracing: bool,
                count_bytes: bool = False):
        self.records = []
        self.telemetry.tracing = tracing
        self.telemetry.count_wire_bytes = count_bytes
        keep = set(retain)
        self.outbox = {h: m for h, m in self.outbox.items() if h in keep}
        errors = self.apply_ops(ops)
        meta: List[tuple] = []
        round_no = int(now)
        for pid, node in self.nodes.items():
            if pid in crashed:
                continue
            self._ctx = (_PHASE_TICK, self.gidx[pid])
            try:
                ticked = node.on_tick(now)
            except Exception as exc:  # noqa: BLE001
                errors.append((pid, "on_tick", _picklable(exc)))
                continue
            self.telemetry.trace_tag = self._ctx
            self.telemetry.record_sends(round_no, pid, ticked)
            for emission, out in enumerate(ticked):
                handle = self._stash(pid, out)
                meta.append((handle, pid, out.destination, emission))
        return meta, self.records, errors, self.telemetry.drain_delta()

    def do_fetch(
        self, wants: Dict[int, Sequence[int]]
    ) -> Dict[int, Tuple[List[tuple], Dict[int, bytes]]]:
        """Serve cross-shard payload requests for one delivery sync.

        Payloads are deduplicated by object identity (a gossip fanned out to
        F targets is one message object behind F handles) and the unique
        messages are grouped by their destination-shard signature; each
        group is pickled exactly once and the same blob bytes ship to every
        shard in the signature.  Each destination receives
        ``(entries, blobs)`` where ``entries`` is ``[(handle, group, idx)]``
        and ``blobs`` maps group id to the encoded message list
        (:func:`~repro.wire.pack_messages` — compact binary with a pickle
        fallback).
        """
        outbox = self.outbox
        msg_obj: Dict[int, object] = {}
        msg_refs: Dict[int, List[Tuple[int, int]]] = {}
        for dst_shard, handles in wants.items():
            for handle in dict.fromkeys(handles):
                message = outbox[handle][2]
                mid = id(message)
                refs = msg_refs.get(mid)
                if refs is None:
                    msg_obj[mid] = message
                    refs = msg_refs[mid] = []
                refs.append((dst_shard, handle))
        groups: Dict[frozenset, List[int]] = {}
        for mid, refs in msg_refs.items():
            signature = frozenset(dst for dst, _h in refs)
            groups.setdefault(signature, []).append(mid)
        entries: Dict[int, List[tuple]] = {d: [] for d in wants}
        blobs: Dict[int, Dict[int, bytes]] = {d: {} for d in wants}
        pack_messages, _ = _wire_codecs()
        for group, (signature, mids) in enumerate(groups.items()):
            blob = pack_messages([msg_obj[mid] for mid in mids])
            for dst_shard in signature:
                blobs[dst_shard][group] = blob
            for idx, mid in enumerate(mids):
                for dst_shard, handle in msg_refs[mid]:
                    entries[dst_shard].append((handle, group, idx))
        return {d: (entries[d], blobs[d]) for d in wants}

    def do_deliver(self, now: float, generation: int, sequence: Sequence[tuple],
                   imports: Dict, inline: Dict[int, object],
                   tracing: bool, count_bytes: bool = False):
        self.records = []
        self.telemetry.tracing = tracing
        self.telemetry.count_wire_bytes = count_bytes
        imported: Dict[Tuple[int, int], object] = {}
        _, unpack_messages = _wire_codecs()
        for src_shard, (entries, blobs) in imports.items():
            loaded = {group: unpack_messages(blob)
                      for group, blob in blobs.items()}
            for handle, group, idx in entries:
                imported[(src_shard, handle)] = loaded[group][idx]
        replies_meta: List[tuple] = []
        errors: List[tuple] = []
        failed: set = set()
        skipped: List[int] = []
        phase = _PHASE_GEN0 + generation
        round_no = int(now)
        mutate = None
        for pos, src, dst, tag, mut in sequence:
            if dst in failed:
                skipped.append(pos)
                continue
            if tag[0] == "L":
                message = self.outbox[tag[1]][2]
            elif tag[0] == "I":
                message = imported[(tag[1], tag[2])]
            else:  # "M": coordinator-held payload
                message = inline[pos]
            if mut is not None:
                if mutate is None:
                    mutate = _byzantine_codec()
                message = mutate(message, mut, dst)
            self._ctx = (phase, pos)
            self.telemetry.trace_tag = self._ctx
            if tracing:
                self.telemetry.emit("receive", now, pid=dst, peer=src,
                                    message=type(message).__name__)
            try:
                replies = self.nodes[dst].handle_message(src, message, now)
            except Exception as exc:  # noqa: BLE001
                errors.append((dst, "handle_message", _picklable(exc)))
                failed.add(dst)
                continue
            self.telemetry.record_sends(round_no, dst, replies)
            for emission, reply in enumerate(replies):
                handle = self._stash(dst, reply)
                replies_meta.append(
                    (pos, emission, handle, dst, reply.destination)
                )
        return (replies_meta, self.records, errors, skipped,
                self.telemetry.drain_delta())

    def do_call(self, pid: ProcessId, method: str, args: tuple,
                kwargs: dict, op_index: int):
        self.records = []
        self._ctx = (_PHASE_OPS, op_index)
        result = getattr(self.nodes[pid], method)(*args, **kwargs)
        return result, self.records

    def do_pull(self, pids: Optional[Sequence[ProcessId]]) -> bytes:
        targets = self.nodes if pids is None else {
            pid: self.nodes[pid] for pid in pids if pid in self.nodes
        }
        stripped = []
        for node in targets.values():
            listeners = getattr(node, "_listeners", None)
            if listeners:
                stripped.append((node, listeners))
                node._listeners = []
        try:
            return _dumps(dict(targets))
        finally:
            for node, listeners in stripped:
                node._listeners = listeners

    def do_stats(self, pids: Optional[Sequence[ProcessId]],
                 crashed: frozenset) -> NodeAggregates:
        """Aggregate this shard's alive nodes locally — the cheap
        alternative to ``pull`` for per-round recorders (no node pickling;
        the returned aggregate is a few integers)."""
        if pids is None:
            targets = [node for pid, node in self.nodes.items()
                       if pid not in crashed]
        else:
            wanted = set(pids)
            targets = [node for pid, node in self.nodes.items()
                       if pid in wanted and pid not in crashed]
        return aggregate_nodes(targets)


def _picklable(exc: Exception) -> Exception:
    """The original exception when it pickles, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - exotic exception state
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _shard_main(conn, shard: int) -> None:
    """Command loop of one shard process (top-level for spawn support)."""
    state = _ShardState(shard)
    dispatch = {
        "add": lambda cmd: state.do_add(cmd[1]),
        "ops": lambda cmd: state.do_ops(cmd[1]),
        "tick": lambda cmd: state.do_tick(cmd[1], cmd[2], cmd[3], cmd[4],
                                          cmd[5], cmd[6]),
        "fetch": lambda cmd: state.do_fetch(cmd[1]),
        "deliver": lambda cmd: state.do_deliver(cmd[1], cmd[2], cmd[3],
                                                cmd[4], cmd[5], cmd[6],
                                                cmd[7]),
        "call": lambda cmd: state.do_call(cmd[1], cmd[2], cmd[3], cmd[4],
                                          cmd[5]),
        "pull": lambda cmd: state.do_pull(cmd[1]),
        "stats": lambda cmd: state.do_stats(cmd[1], cmd[2]),
    }
    while True:
        try:
            cmd = conn.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if cmd[0] == "close":
            conn.send(("ok", None))
            conn.close()
            return
        try:
            conn.send(("ok", dispatch[cmd[0]](cmd)))
        except Exception:  # noqa: BLE001 - report, keep serving
            conn.send(("err", traceback.format_exc()))


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------

class NodeProxy:
    """Main-process stand-in for a node living inside a shard worker.

    Mutating entry points are forwarded to the owning shard (queued until
    the next round for asynchronous ones, synchronously for calls needing a
    result); any other attribute read serves the most recently synced
    replica — a *snapshot*, refreshed by
    :meth:`ShardedRoundSimulation.refresh_nodes` or final
    :meth:`ShardedRoundSimulation.collect`.
    """

    __slots__ = ("pid", "_engine", "_shard")

    def __init__(self, pid: ProcessId, engine: "ShardedRoundSimulation",
                 shard: int) -> None:
        object.__setattr__(self, "pid", pid)
        object.__setattr__(self, "_engine", engine)
        object.__setattr__(self, "_shard", shard)

    # -- forwarded mutators -------------------------------------------------
    def lpb_cast(self, payload=None, now: float = 0.0):
        return self._engine._proxy_publish(self.pid, payload, now)

    def add_delivery_listener(self, listener) -> None:
        self._engine._proxy_listen(self.pid, listener)

    def try_unsubscribe(self, now: float) -> bool:
        return self.call("try_unsubscribe", now)

    def start_join(self, contact: ProcessId, now: float):
        return self.call("start_join", contact, now)

    def call(self, method: str, *args, **kwargs):
        """Synchronously invoke ``method`` on the live node in its shard."""
        return self._engine._proxy_call(self.pid, method, args, kwargs)

    # -- engine-driven entry points must not be invoked from outside --------
    def on_tick(self, now: float):
        raise RuntimeError("the sharded engine ticks nodes inside their "
                           "shard; do not call on_tick through a proxy")

    def handle_message(self, sender, message, now):
        raise RuntimeError("the sharded engine delivers messages inside "
                           "their shard; use sim.inject to enqueue traffic")

    # -- replica reads ------------------------------------------------------
    def __getattr__(self, name: str):
        replica = self._engine._replicas.get(self.pid)
        if replica is None:
            raise AttributeError(
                f"no replica for process {self.pid}; call "
                f"refresh_nodes()/collect() before reading node state"
            )
        return getattr(replica, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeProxy(pid={self.pid}, shard={self._shard})"


class _Ref:
    """Coordinator-side reference to a message payload held elsewhere.

    ``mut`` carries a Byzantine mutation spec drawn by the coordinator's
    fault injector; the owning shard applies it to its copy of the message
    at delivery time (the coordinator never sees the payload).
    """

    __slots__ = ("owner", "handle", "src", "dst", "mut")

    def __init__(self, owner: int, handle: int, src: ProcessId,
                 dst: ProcessId, mut: Optional[tuple] = None) -> None:
        self.owner = owner
        self.handle = handle
        self.src = src
        self.dst = dst
        self.mut = mut


class ShardedRoundSimulation(RoundSimulation):
    """Drop-in :class:`RoundSimulation` that executes each round across
    ``shards`` worker processes (see module docstring for the protocol)."""

    def __init__(
        self,
        network: Optional[NetworkModel] = None,
        seed: int = 0,
        max_reply_generations: int = 4,
        on_node_error: str = "raise",
        shards: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        super().__init__(network=network, seed=seed,
                         max_reply_generations=max_reply_generations,
                         on_node_error=on_node_error)
        shards = DEFAULT_SHARDS if shards is None else shards
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self._start_method = start_method
        self._started = False
        self._closed = False
        self._procs: List = []
        self._conns: List = []
        self._shard_of: Dict[ProcessId, int] = {}
        self._insertion: Dict[ProcessId, int] = {}
        self._insert_counter = 0
        self._listeners_by_pid: Dict[ProcessId, List[Callable]] = {}
        self._replicas: Dict[ProcessId, object] = {}
        self._next_seq_mirror: Dict[ProcessId, int] = {}
        self._staged: Dict[ProcessId, object] = {}
        self._pending_ops: Dict[int, List[tuple]] = {}
        self._op_counter = 0
        self._main_messages: Dict[int, object] = {}
        self._main_counter = 0
        self._record_buffer: List[tuple] = []
        #: Worker-recorded trace events of the current round, still carrying
        #: their (phase, index) tags; flushed in canonical order with the
        #: delivery records at round end.
        self._staged_trace: List[tuple] = []

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Spawn the shard workers and distribute the current node set."""
        if self._started:
            return
        if self._closed:
            raise RuntimeError("engine already closed/collected")
        method = self._start_method
        if method is None:
            method = ("fork" if "fork" in
                      multiprocessing.get_all_start_methods() else None)
        ctx = multiprocessing.get_context(method)
        for shard in range(self.shards):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_shard_main, args=(child, shard),
                               daemon=True,
                               name=f"repro-shard-{shard}")
            proc.start()
            child.close()
            self._procs.append(proc)
            self._conns.append(parent)
        batches: Dict[int, List[tuple]] = {s: [] for s in range(self.shards)}
        for pid, node in self.nodes.items():
            shard = self._register(pid)
            batches[shard].append(self._detach(pid, node))
        for shard, batch in batches.items():
            if batch:
                self._conns[shard].send(("add", _dumps(batch)))
        for shard, batch in batches.items():
            if batch:
                self._await(shard)
        for pid, node in list(self.nodes.items()):
            self._adopt(pid, node)
        self._started = True

    def close(self) -> None:
        """Terminate the shard workers (without pulling node state back)."""
        if not self._conns:
            self._closed = True
            return
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (OSError, ValueError):
                pass
        for conn in self._conns:
            try:
                if conn.poll(1.0):
                    conn.recv()
            except (OSError, EOFError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        self._conns = []
        self._procs = []
        self._closed = True

    def __enter__(self) -> "ShardedRoundSimulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            if self._conns and not self._closed:
                self.close()
        except Exception:  # noqa: BLE001
            pass

    # -- distribution helpers ----------------------------------------------
    def _register(self, pid: ProcessId) -> int:
        idx = self._insert_counter
        self._insert_counter += 1
        self._insertion[pid] = idx
        shard = idx % self.shards
        self._shard_of[pid] = shard
        return shard

    def _detach(self, pid: ProcessId, node: object) -> tuple:
        """Strip main-side listeners off ``node`` and describe it for its
        shard; returns an ``("add", ...)`` batch entry."""
        listeners = getattr(node, "_listeners", None)
        saved = list(listeners) if listeners else []
        if listeners:
            node._listeners = []
        self._listeners_by_pid[pid] = saved
        self._next_seq_mirror[pid] = getattr(node, "_next_seq", 0)
        return (pid, node, bool(saved), self._insertion[pid])

    def _adopt(self, pid: ProcessId, node: object) -> None:
        """Swap the (now shipped) main copy for a proxy + tripwire."""
        self._replicas[pid] = node
        self.nodes[pid] = NodeProxy(pid, self, self._shard_of[pid])
        self._tether(node, pid)

    def _tether(self, node: object, pid: ProcessId) -> None:
        """Externally held references to the shipped main copy must fail
        loudly, not silently mutate a stale object."""
        def _tethered(*_args, **_kwargs):
            raise RuntimeError(
                f"process {pid} now lives in a shard worker; go through "
                f"sim.nodes[{pid}] (its proxy) instead of the original "
                f"node object"
            )
        for name in ("lpb_cast", "on_tick", "handle_message", "start_join",
                     "try_unsubscribe", "publish"):
            if hasattr(node, name):
                try:
                    setattr(node, name, _tethered)
                except (AttributeError, TypeError):  # pragma: no cover
                    pass

    # -- RoundSimulation surface overrides ----------------------------------
    def add_node(self, node: GossipProcess) -> None:
        if not self._started:
            super().add_node(node)
            return
        pid = node.pid
        if pid in self.nodes:
            raise ValueError(f"duplicate process id {pid}")
        shard = self._register(pid)
        self.nodes[pid] = node       # real until shipped at the next flush
        self._staged[pid] = node
        self._queue_op(shard, ("addnode", None, pid))

    def inject(self, src: ProcessId, outgoings: Sequence[Outgoing]) -> None:
        for out in outgoings:
            self._carryover.append(_Ref(_MAIN, self._hold(out.message),
                                        src, out.destination))

    def _hold(self, message: object) -> int:
        """Keep a coordinator-held payload; returns its fresh handle."""
        handle = self._main_counter
        self._main_counter += 1
        self._main_messages[handle] = message
        return handle

    # -- queue-entry hooks: entries are refs, payloads stay where they are ----
    def _endpoints(self, ref: _Ref) -> Tuple[ProcessId, ProcessId]:
        return ref.src, ref.dst

    def _copy_of(self, ref: _Ref) -> _Ref:
        handle = ref.handle
        if ref.owner == _MAIN:
            # The inline delivery path pops coordinator-held payloads, so
            # every extra copy needs a handle of its own.
            handle = self._hold(self._main_messages[handle])
        return _Ref(ref.owner, handle, ref.src, ref.dst, ref.mut)

    def _mutated(self, ref: _Ref, mutation: tuple) -> _Ref:
        ref.mut = mutation  # applied by the owning shard at delivery time
        return ref

    def _discard(self, ref: _Ref) -> None:
        if ref.owner == _MAIN:
            self._main_messages.pop(ref.handle, None)

    # -- proxy services -----------------------------------------------------
    def _queue_op(self, shard: int, op: tuple) -> None:
        op = (op[0], self._op_counter) + op[2:]
        self._op_counter += 1
        self._pending_ops.setdefault(shard, []).append(op)

    def _proxy_publish(self, pid: ProcessId, payload, now: float):
        from ..core.events import Notification
        from ..core.ids import EventId

        self._next_seq_mirror[pid] += 1
        self._queue_op(self._shard_of[pid], ("publish", None, pid, payload, now))
        return Notification(EventId(pid, self._next_seq_mirror[pid]),
                            payload, now)

    def _proxy_listen(self, pid: ProcessId, listener) -> None:
        had = bool(self._listeners_by_pid.get(pid))
        self._listeners_by_pid.setdefault(pid, []).append(listener)
        if not had:
            self._queue_op(self._shard_of[pid], ("listen", None, pid))

    def _proxy_call(self, pid: ProcessId, method: str, args: tuple,
                    kwargs: dict):
        shard = self._shard_of[pid]
        self._flush_ops(shard)
        op_index = self._op_counter
        self._op_counter += 1
        self._conns[shard].send(("call", pid, method, args, kwargs, op_index))
        result, records = self._await(shard)
        # A sync call may run between rounds or mid-hook, when the round's
        # record buffer is not live — dispatch its records immediately (they
        # arrive in invocation order, matching the serial listener timing).
        self._dispatch_records(records)
        return result

    def _flush_ops(self, shard: int) -> None:
        """Materialize staged nodes and push this shard's queued ops now."""
        ops = [self._materialize(op)
               for op in self._pending_ops.pop(shard, [])]
        if ops:
            self._conns[shard].send(("ops", ops))
            errors, records = self._await(shard)
            self._raise_op_errors(errors)
            self._dispatch_records(records)

    def _materialize(self, op: tuple) -> tuple:
        """Late-pickle staged nodes so hook-time mutations (e.g. a
        ``start_join`` issued after ``add_node``) ship with the node."""
        if op[0] != "addnode":
            return op
        pid = op[2]
        node = self._staged.pop(pid)
        blob = _dumps([self._detach(pid, node)])
        self._adopt(pid, node)  # after pickling: adoption tethers the node
        return ("addnode", op[1], blob)

    def _raise_op_errors(self, errors: Sequence[tuple]) -> None:
        for pid, where, exc in errors or ():
            raise RuntimeError(
                f"queued operation {where} on process {pid} failed"
            ) from exc

    # -- worker I/O ----------------------------------------------------------
    def _await(self, shard: int):
        try:
            status, payload = self._conns[shard].recv()
        except EOFError:
            raise RuntimeError(f"shard worker {shard} died unexpectedly")
        if status == "err":
            raise RuntimeError(f"shard worker {shard} failed:\n{payload}")
        return payload

    # -- the round loop ------------------------------------------------------
    def run_round(self) -> None:
        if not self._started:
            self.start()
        if self._closed:
            raise RuntimeError("engine already closed/collected")
        super().run_round()  # wraps _run_round_body in the time.round timer

    def _tick_phase(self, now: float) -> List[_Ref]:
        retain: Dict[int, List[int]] = {s: [] for s in range(self.shards)}
        for ref in self._carryover:
            if ref.owner != _MAIN:
                retain[ref.owner].append(ref.handle)
        # Messages held back by delay faults still live in shard outboxes;
        # keep their handles alive until they come due.
        for _due, ref in self._delayed_faults:
            if ref.owner != _MAIN:
                retain[ref.owner].append(ref.handle)
        # Workers use this set only to decide who ticks, so folding the
        # fault-paused pids in silences their gossip without blocking
        # reception — exactly the serial engine's pause semantics.
        crashed = frozenset(self.crashed | self._fault_paused)
        pending = {s: [self._materialize(op) for op in
                       self._pending_ops.pop(s, [])]
                   for s in range(self.shards)}
        tracing = self.telemetry.tracing
        count_bytes = self.telemetry.count_wire_bytes
        for shard, conn in enumerate(self._conns):
            conn.send(("tick", now, crashed, retain[shard], pending[shard],
                       tracing, count_bytes))
        tick_meta: List[tuple] = []
        errors: List[tuple] = []
        for shard in range(self.shards):
            meta, records, errs, delta = self._await(shard)
            self._record_buffer.extend(records)
            self._staged_trace.extend(self.telemetry.absorb_counters(delta))
            for handle, src, dst, emission in meta:
                tick_meta.append((self._insertion[src], emission,
                                  shard, handle, src, dst))
            errors.extend(errs)
        self._handle_worker_errors(errors, op_phase=True)
        tick_meta.sort(key=lambda t: (t[0], t[1]))
        queue = self._carryover
        self._carryover = []
        queue.extend(_Ref(shard, handle, src, dst)
                     for _, _, shard, handle, src, dst in tick_meta)
        self._op_counter = 0
        return queue

    def _delivery_phase(self, now: float, generation: int,
                        queue: List[_Ref]) -> List[_Ref]:
        deliveries: Dict[int, List[tuple]] = {s: [] for s in range(self.shards)}
        exports: Dict[int, Dict[int, List[int]]] = {
            s: {} for s in range(self.shards)
        }
        inline: Dict[int, Dict[int, object]] = {s: {} for s in range(self.shards)}
        for pos, ref in enumerate(queue):
            if not self._admit(ref.src, ref.dst):
                if ref.owner == _MAIN:
                    self._main_messages.pop(ref.handle, None)
                continue
            dst_shard = self._shard_of[ref.dst]
            if ref.owner == dst_shard:
                tag = ("L", ref.handle)
            elif ref.owner != _MAIN:
                exports[ref.owner].setdefault(dst_shard, []).append(ref.handle)
                tag = ("I", ref.owner, ref.handle)
            else:
                inline[dst_shard][pos] = self._main_messages.pop(ref.handle)
                tag = ("M",)
            deliveries[dst_shard].append((pos, ref.src, ref.dst, tag,
                                          ref.mut))

        # Cross-shard mailboxes: each source shard dedups its wanted
        # payloads by identity, pickles each unique group once (see
        # ``_ShardState.do_fetch``) and the coordinator forwards the
        # resulting ``(entries, blobs)`` pairs untouched.
        with self.telemetry.time("time.shard.sync"):
            fetching = [s for s in range(self.shards) if exports[s]]
            for shard in fetching:
                self._conns[shard].send(("fetch", exports[shard]))
            mailboxes: Dict[int, Dict[int, tuple]] = {
                s: {} for s in range(self.shards)
            }
            for shard in fetching:
                for dst_shard, mailbox in self._await(shard).items():
                    mailboxes[dst_shard][shard] = mailbox

        active = [s for s in range(self.shards) if deliveries[s]]
        tracing = self.telemetry.tracing
        count_bytes = self.telemetry.count_wire_bytes
        for shard in active:
            self._conns[shard].send(("deliver", now, generation,
                                     deliveries[shard], mailboxes[shard],
                                     inline[shard], tracing, count_bytes))
        replies_meta: List[tuple] = []
        errors: List[tuple] = []
        for shard in active:
            rmeta, records, errs, skipped, delta = self._await(shard)
            self._record_buffer.extend(records)
            self._staged_trace.extend(self.telemetry.absorb_counters(delta))
            for pos, emission, handle, src, dst in rmeta:
                replies_meta.append((pos, emission, shard, handle, src, dst))
            errors.extend(errs)
            # Messages the worker skipped because their destination failed
            # mid-batch were admitted (and counted) optimistically; restate
            # them as deliveries to a crashed process.
            self.messages_delivered -= len(skipped)
            self.messages_to_crashed += len(skipped)
        self._handle_worker_errors(errors, op_phase=False)
        replies_meta.sort(key=lambda t: (t[0], t[1]))
        return [_Ref(shard, handle, src, dst)
                for _, _, shard, handle, src, dst in replies_meta]

    def _handle_worker_errors(self, errors: Sequence[tuple],
                              op_phase: bool) -> None:
        for pid, where, exc in errors:
            if where.startswith("op:"):
                self._raise_op_errors([(pid, where, exc)])
            if self.on_node_error == "raise":
                raise exc
            self.node_errors.append((pid, where, exc))
            self.crash(pid)

    def _dispatch_records(self, records: Sequence[tuple]) -> None:
        for _phase, _index, pid, notification, at in records:
            for listener in self._listeners_by_pid.get(pid, ()):
                listener(pid, notification, at)

    def _round_end(self) -> None:
        """Replay the round's worker-side delivery records through the
        saved main-side listeners, and its worker-side trace events, in the
        canonical (phase, position) order the serial engine would have
        produced them; then the shared accounting."""
        self._record_buffer.sort(key=lambda r: (r[0], r[1]))
        self._dispatch_records(self._record_buffer)
        self._record_buffer = []
        self.telemetry.append_trace_ordered(self._staged_trace)
        self._staged_trace = []
        super()._round_end()

    # -- state access --------------------------------------------------------
    def node_aggregates(self, pids: Optional[Sequence[ProcessId]] = None
                        ) -> NodeAggregates:
        """Shard-local aggregation of alive-node stats (see
        :mod:`repro.sim.aggregates`): each worker sums its own nodes and
        ships a few integers, so per-round recorders never trigger the full
        node pickle that :meth:`refresh_nodes` costs.  Totals equal the
        serial engine's for the same seed."""
        if not self._started or self._closed:
            return super().node_aggregates(pids)
        for shard in range(self.shards):
            self._flush_ops(shard)
        wanted = None if pids is None else list(pids)
        crashed = frozenset(self.crashed)
        for conn in self._conns:
            conn.send(("stats", wanted, crashed))
        return merge_aggregates(
            [self._await(shard) for shard in range(self.shards)]
        )

    def refresh_nodes(self, pids: Optional[Sequence[ProcessId]] = None) -> None:
        """Pull fresh node snapshots from the workers into the replica set.

        Expensive (full node pickle); intended for per-round observers on
        modest system sizes — see docs/api.md for guidance.
        """
        if not self._started or self._closed:
            return
        for conn in self._conns:
            conn.send(("pull", list(pids) if pids is not None else None))
        for shard in range(self.shards):
            for pid, node in pickle.loads(self._await(shard)).items():
                self._replicas[pid] = node

    def collect(self) -> Dict[ProcessId, object]:
        """Pull every node back to the main process, reattach the original
        delivery listeners, restore ``sim.nodes`` to real objects and shut
        the workers down.  Call once, after the run, before reading node
        state with the metrics layer."""
        if self._started and not self._closed:
            for conn in self._conns:
                conn.send(("pull", None))
            merged: Dict[ProcessId, object] = {}
            for shard in range(self.shards):
                merged.update(pickle.loads(self._await(shard)))
            for pid, node in merged.items():
                if hasattr(node, "_listeners"):
                    node._listeners = list(self._listeners_by_pid.get(pid, []))
                self._replicas[pid] = node
                self.nodes[pid] = node
            self.close()
        return dict(self.nodes)
