"""Spans recorded from outside the program, and the per-layer numbers
computed from them.

Nothing under ``src/`` knows about this file.  A traced run replaces the
public functions and methods listed in :data:`OPS` (class attributes, and
module attributes wherever a ``repro`` module holds a reference) with
wrappers that record one span per call:

    (name, start, end, parent, pid, round)

``parent`` is the index of the span that was open on the same thread when
the call started (-1 for a root), ``pid`` the protocol process the call
acted on (-1 when the op has none), ``round`` the workload's current
round or period.  Spans stay in per-thread lists in memory and are written
once, by :meth:`Tracer.dump`, after the run; :func:`layer_totals` reads
that file back.  A layer's busy time is *self* time: its spans' duration
minus the part their child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter


def _pid_attr(args) -> int:
    return args[0].pid


def _owner_attr(args) -> int:
    return args[0].owner


def _src_arg(args) -> int:            # decide(self, src, dst, ...)
    return args[1]


def _no_pid(args) -> int:
    return -1


#: span name -> [(module, class or None, attribute, pid getter)].  The
#: names are the ledger's contract; several program entry points may feed
#: one name (the three halves of the join handshake).
OPS: Dict[str, List[Tuple[str, Optional[str], str, Callable]]] = {
    "core.node.tick": [("repro.core.node", "LpbcastNode", "on_tick", _pid_attr)],
    "core.node.receive": [("repro.core.node", "LpbcastNode", "handle_message", _pid_attr)],
    "core.node.publish": [("repro.core.node", "LpbcastNode", "lpb_cast", _pid_attr)],
    "core.view.truncate": [("repro.core.view", "PartialView", "truncate", _owner_attr)],
    "core.view.choose_gossip_targets": [
        ("repro.core.view", "PartialView", "choose_gossip_targets", _owner_attr)],
    "core.view.select_for_subs": [
        ("repro.core.view", "PartialView", "select_for_subs", _owner_attr)],
    "core.retransmit.request": [
        ("repro.core.node", "LpbcastNode", "on_retransmit_request", _pid_attr)],
    "core.retransmit.response": [
        ("repro.core.node", "LpbcastNode", "on_retransmit_response", _pid_attr)],
    "core.subscription.join": [
        ("repro.core.node", "LpbcastNode", "start_join", _pid_attr),
        ("repro.core.node", "LpbcastNode", "on_subscription_request", _pid_attr),
        ("repro.core.node", "LpbcastNode", "on_subscription_ack", _pid_attr)],
    "core.subscription.leave": [
        ("repro.core.node", "LpbcastNode", "try_unsubscribe", _pid_attr)],
    "wire.binary.encode": [("repro.wire.binary", None, "encode_binary", _no_pid)],
    "wire.binary.decode": [("repro.wire.binary", None, "decode_binary", _no_pid)],
    "wire.frame.pack_datagrams": [("repro.wire.frame", None, "pack_datagrams", _no_pid)],
    "wire.frame.decode_frame": [("repro.wire.frame", None, "decode_frame", _no_pid)],
    "faults.injector.decide": [("repro.faults.injector", "FaultInjector", "decide", _src_arg)],
    "faults.injector.round_start": [
        ("repro.faults.injector", "FaultInjector", "round_start", _no_pid)],
    "faults.wire.decide": [("repro.faults.wire", "DatagramFaultInjector", "decide", _src_arg)],
    "telemetry.record_sends": [
        ("repro.telemetry.registry", "Telemetry", "record_sends", _no_pid)],
    "telemetry.inc": [("repro.telemetry.registry", "Telemetry", "inc", _no_pid)],
    "sim.network.deliverable": [("repro.sim.network", "NetworkModel", "deliverable", _src_arg)],
    "sim.topology.build_lpbcast_nodes": [
        ("repro.sim.topology", None, "build_lpbcast_nodes", _no_pid)],
    "sim.round_runner.run_round": [
        ("repro.sim.round_runner", "RoundSimulation", "run_round", _no_pid)],
    "sim.async_runner.run_until": [
        ("repro.sim.async_runner", "AsyncGossipRuntime", "run_until", _no_pid)],
    "sim.columnar_runner.build": [
        ("repro.sim.columnar_runner", "ColumnarRoundSimulation", "build", _no_pid)],
    "sim.columnar_runner.run_round": [
        ("repro.sim.columnar_runner", "ColumnarRoundSimulation", "run_round", _no_pid)],
    "sim.columnar_runner.lpb_cast": [
        ("repro.sim.columnar_runner", "ColumnarNodeHandle", "lpb_cast", _pid_attr)],
    "sim.columnar_runner.delivery_ratio": [
        ("repro.sim.columnar_runner", "ColumnarRoundSimulation", "delivery_ratio", _no_pid)],
}

#: ``Telemetry.time`` is a context manager: wrapping the call would time
#: only its creation, and a span over the ``with`` body would charge the
#: timed phase to telemetry.  It gets two spans, around ``__enter__`` and
#: ``__exit__``; the second carries this suffix and folds into the first.
TIME_OP = "telemetry.time"
EXIT_SUFFIX = ".exit"

#: Every op name a traced run reports ``<name>.calls`` / ``<name>.busy_s``
#: for (the harness's own listener included).
LISTENER_OP = "bench.listener"
CAPTURED_DATAGRAMS = 2000
OP_NAMES: Tuple[str, ...] = tuple(OPS) + (TIME_OP, LISTENER_OP)


def _patch_sites(module_name: str, class_name: Optional[str], attr: str):
    """``(holder, attribute, original)`` for every place the program reads
    the target from: the class, or each loaded ``repro`` module that bound
    the function by name (``from .binary import decode_binary``)."""
    module = importlib.import_module(module_name)
    if class_name is not None:
        cls = getattr(module, class_name)
        return [(cls, attr, cls.__dict__[attr])]
    original = getattr(module, attr)
    sites = []
    for name, candidate in list(sys.modules.items()):
        if candidate is None or not name.startswith("repro"):
            continue
        if candidate.__dict__.get(attr) is original:
            sites.append((candidate, attr, original))
    return sites


def _plain(original):
    """The callable inside a ``classmethod``/``staticmethod`` slot."""
    return getattr(original, "__func__", original)


def _rewrap(original, fn):
    """Put ``fn`` back into the kind of slot ``original`` occupied."""
    if isinstance(original, classmethod):
        return classmethod(fn)
    if isinstance(original, staticmethod):
        return staticmethod(fn)
    return fn


class Patches:
    """Attribute replacements that can be undone in one call."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, holder, attr: str, original, wrapper) -> None:
        self._undo.append((holder, attr, original))
        setattr(holder, attr, _rewrap(original, wrapper))

    def replace_target(self, module_name: str, class_name: Optional[str],
                       attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace one :data:`OPS` target everywhere the program reads it
        from, with the *same* ``make(original)`` object at every site — so
        a later pass (the tracer, after a planted delay) still recognises
        the sites as one function."""
        sites = _patch_sites(module_name, class_name, attr)
        wrapper = make(_plain(sites[0][2]))
        for holder, slot, original in sites:
            self.replace(holder, slot, original, wrapper)

    def undo(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)


def plant_delay(op: str, micros: float) -> Patches:
    """Busy-wait ``micros`` inside every call of ``op`` (attribution
    self-test only).  A busy wait, not a sleep: a planted slowdown must
    cost CPU as a real one would, or the CPU metrics could not see it.
    Installed *before* the tracer so the delay lands inside the op's span.
    """
    delay = micros / 1e6

    def slowed(fn: Callable) -> Callable:
        def call(*args, **kwargs):
            until = _perf() + delay
            while _perf() < until:
                pass
            return fn(*args, **kwargs)
        return call

    patches = Patches()
    for module_name, class_name, attr, _ in OPS[op]:
        patches.replace_target(module_name, class_name, attr, slowed)
    return patches


class _ThreadSpans(threading.local):
    """Per-thread span list, result-derived counts and the index of the
    span open on top — nothing here is shared, so recording takes no lock."""

    def __init__(self) -> None:
        self.spans: Optional[list] = None
        self.counts: Dict[str, int] = {}
        self.top = -1


class Tracer:
    """Records spans around :data:`OPS` while installed."""

    def __init__(self) -> None:
        self.round = 0
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._local = _ThreadSpans()
        self._threads: List[Tuple[list, dict]] = []
        self._threads_lock = threading.Lock()
        self._patches = Patches()
        #: The workload's delivery recorder; lets the receive hook tell a
        #: reception that delivered something new from one that did not.
        self.recorder = None
        #: The first datagrams the run decoded — the corpus the varint
        #: replay draws its integers from.
        self.captured_datagrams: List[bytes] = []

    # -- recording ---------------------------------------------------------
    def name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _spans(self) -> list:
        local = self._local
        if local.spans is None:
            local.spans = []
            with self._threads_lock:
                self._threads.append((local.spans, local.counts))
        return local.spans

    def wrap(self, fn: Callable, name: str, pid_of: Callable = _no_pid,
             hooks: Optional[Tuple[Callable, Callable]] = None) -> Callable:
        """``fn`` with one span per call.  ``hooks`` is a ``(before,
        after)`` pair kept outside the span: ``after(args, result,
        before(args))`` turns results into counts (bytes encoded, leaves
        refused, ...) at the boundary where the work happens."""
        before, after = hooks if hooks is not None else (None, None)
        ident = self.name_id(name)
        local = self._local
        spans_of = self._spans
        tracer = self

        def traced(*args, **kwargs):
            spans = local.spans
            if spans is None:
                spans = spans_of()
            token = before(args) if before is not None else None
            index = len(spans)
            spans.append(None)
            parent = local.top
            local.top = index
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                local.top = parent
                spans[index] = (ident, start, end, parent, pid_of(args),
                                tracer.round)
            if after is not None:
                after(args, result, token)
            return result

        return traced

    def _bump(self, key: str, amount: int) -> None:
        counts = self._local.counts
        counts[key] = counts.get(key, 0) + amount

    def _result_hooks(self) -> Dict[str, Tuple[Optional[Callable], Callable]]:
        bump = self._bump
        tracer = self

        def encoded(args, blob, _token) -> None:
            bump("wire.binary.encoded_bytes", len(blob))

        def packed(args, plan, _token) -> None:
            bump("wire.frame.messages", len(args[1]))
            bump("wire.frame.datagrams", len(plan.datagrams))

        def left(args, accepted, _token) -> None:
            if not accepted:
                bump("core.subscription.leave_refusals", 1)

        def new_before(args):
            recorder = tracer.recorder
            return None if recorder is None else recorder.new_by_pid[args[0].pid]

        def received(args, _replies, new_before_call) -> None:
            if (new_before_call is not None
                    and tracer.recorder.new_by_pid[args[0].pid] == new_before_call):
                bump("core.node.useless_receives", 1)

        captured = self.captured_datagrams

        def capture(args) -> None:
            if len(captured) < CAPTURED_DATAGRAMS:
                captured.append(bytes(args[0]))

        return {"wire.frame.decode_frame": (capture, None),
                "wire.binary.encode": (None, encoded),
                "wire.frame.pack_datagrams": (None, packed),
                "core.subscription.leave": (None, left),
                "core.node.receive": (new_before, received)}

    def _traced_time(self, original: Callable) -> Callable:
        enter_id = self.name_id(TIME_OP)
        exit_id = self.name_id(TIME_OP + EXIT_SUFFIX)
        spans_of = self._spans
        local = self._local
        tracer = self

        @contextmanager
        def time_(telemetry, name, **labels):
            spans = spans_of()
            start = _perf()
            manager = original(telemetry, name, **labels)
            manager.__enter__()
            spans.append((enter_id, start, _perf(), local.top, -1, tracer.round))
            try:
                yield
            finally:
                start = _perf()
                manager.__exit__(None, None, None)
                spans.append((exit_id, start, _perf(), local.top, -1,
                              tracer.round))

        return time_

    # -- install / uninstall ------------------------------------------------
    def install(self) -> None:
        hooks = self._result_hooks()
        for name, targets in OPS.items():
            for module_name, class_name, attr, pid_of in targets:
                self._patches.replace_target(
                    module_name, class_name, attr,
                    lambda fn, name=name, pid_of=pid_of: self.wrap(
                        fn, name, pid_of, hooks.get(name)))
        from repro.telemetry.registry import Telemetry

        original = Telemetry.__dict__["time"]
        self._patches.replace(Telemetry, "time", original,
                              self._traced_time(original))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- output --------------------------------------------------------------
    def dump(self, path) -> int:
        """Write every span, column-wise, to ``path``; returns the count.
        Parent indices are rebased from per-thread to file-wide."""
        columns: Dict[str, list] = {key: [] for key in
                                    ("name", "start", "end", "parent",
                                     "pid", "round")}
        with self._threads_lock:
            threads = list(self._threads)
        counts: Dict[str, int] = {}
        for spans, thread_counts in threads:
            for key, value in thread_counts.items():
                counts[key] = counts.get(key, 0) + value
            base = len(columns["name"])
            for span in spans:
                if span is None:      # a call still open when the run ended
                    span = (self.name_id("bench.unfinished"), 0.0, 0.0, -1, -1, 0)
                ident, start, end, parent, pid, round_no = span
                columns["name"].append(ident)
                columns["start"].append(start)
                columns["end"].append(end)
                columns["parent"].append(parent + base if parent >= 0 else -1)
                columns["pid"].append(pid)
                columns["round"].append(round_no)
        document = {"format": "ledger-spans-1", "names": self.names,
                    "counts": counts, "spans": columns}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return len(columns["name"])


def load_spans(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("format") != "ledger-spans-1":
        raise ValueError(f"{path}: not a ledger span file")
    return document


def layer_totals(document: dict) -> Dict[str, Dict[str, float]]:
    """``{op: {"calls": n, "busy_s": self time, "total_s": span time}}``
    from a span file.  Self time subtracts from every span the duration of
    its direct children (which are sequential on one thread, so they never
    overlap each other)."""
    names = document["names"]
    spans = document["spans"]
    ident, start, end, parent = (spans["name"], spans["start"], spans["end"],
                                 spans["parent"])
    self_time = [e - s for s, e in zip(start, end)]
    for index, up in enumerate(parent):
        if up >= 0:
            self_time[up] -= end[index] - start[index]
    totals: Dict[str, Dict[str, float]] = {
        name: {"calls": 0, "busy_s": 0.0, "total_s": 0.0} for name in OP_NAMES}
    for index, name_id in enumerate(ident):
        name = names[name_id]
        is_exit = name.endswith(EXIT_SUFFIX)
        if is_exit:
            name = name[:-len(EXIT_SUFFIX)]
        entry = totals.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "total_s": 0.0})
        if not is_exit:
            entry["calls"] += 1
        entry["busy_s"] += self_time[index]
        entry["total_s"] += end[index] - start[index]
    return totals


def span_rows(document: dict, name: str):
    """``(start, end, pid, round)`` of every span called ``name``."""
    names = document["names"]
    if name not in names:
        return []
    wanted = names.index(name)
    spans = document["spans"]
    return [(spans["start"][i], spans["end"][i], spans["pid"][i],
             spans["round"][i])
            for i, ident in enumerate(spans["name"]) if ident == wanted]
