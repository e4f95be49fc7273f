"""The metric registry engines and nodes write into directly.

One :class:`Telemetry` instance belongs to one execution context: a serial
simulation, the coordinator of a sharded run, one shard worker, an async
runtime, or a UDP deployment.  It holds three metric families plus the
trace stream:

* **counters** — monotone, labelled integers (``inc``); the unit of the
  serial/sharded identity contract: shard-local counters merge into the
  coordinator by summation, which is order-independent, so for the same
  seed the merged totals equal the serial engine's exactly;
* **gauges** — last-written labelled values (``set_gauge``), e.g. the alive
  count after each round;
* **histograms** — ``(count, sum, min, max)`` aggregates (``observe``),
  used for the ``perf_counter`` phase timers exposed by :meth:`time` and
  summarized by :func:`profile_summary`.

Trace events (:mod:`repro.telemetry.events`) are recorded through
:meth:`emit`, gated by the ``tracing`` flag so the per-message stream costs
nothing when off; rare, critical events (invariant violations) pass
``force=True``.

Wall-clock histograms are *profile* data: they merge like counters but are
not part of the bit-identity contract (two runs never time identically).
"""

from __future__ import annotations

import threading
import time as _time
from contextlib import nullcontext
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .events import TraceBuffer, TraceEvent, TraceTag

#: Canonical label identity: sorted ``(key, value)`` pairs.
LabelKey = Tuple[Tuple[str, object], ...]


def _label_key(labels: Dict) -> LabelKey:
    return tuple(sorted(labels.items()))


def labels_of(key: LabelKey) -> Dict[str, object]:
    """Back from the canonical tuple to a plain dict (for exports)."""
    return dict(key)


class _Hist:
    """Mergeable ``count/sum/min/max`` aggregate."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, count: int, total: float, minimum: float,
              maximum: float) -> None:
        self.count += count
        self.total += total
        if minimum < self.minimum:
            self.minimum = minimum
        if maximum > self.maximum:
            self.maximum = maximum

    def as_tuple(self) -> Tuple[int, float, float, float]:
        return (self.count, self.total, self.minimum, self.maximum)


class _Timer:
    """What :meth:`Telemetry.time` returns: a slotted object, not a
    generator — there is one per datagram, encode, tick and delivery."""

    __slots__ = ("_observe", "_name", "_labels", "_started")

    def __init__(self, observe, name: str, labels: Dict) -> None:
        self._observe, self._name, self._labels = observe, name, labels

    def __enter__(self) -> None:
        self._started = _time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> None:
        self._observe(self._name, _time.perf_counter() - self._started,
                      **self._labels)


class Telemetry:
    """Counter/gauge/histogram registry plus the trace-event stream.

    ``thread_safe=True`` guards every write with a lock — required when
    several threads share one registry (the UDP runtime); simulations are
    single-threaded and skip the lock entirely.
    """

    def __init__(self, thread_safe: bool = False,
                 trace_capacity: int = 100_000) -> None:
        self._counters: Dict[Tuple[str, LabelKey], int] = {}
        self._gauges: Dict[Tuple[str, LabelKey], float] = {}
        self._hists: Dict[Tuple[str, LabelKey], _Hist] = {}
        self._lock: Optional[threading.Lock] = (
            threading.Lock() if thread_safe else None
        )
        self.trace = TraceBuffer(capacity=trace_capacity)
        #: Per-message trace events are recorded only while this is True.
        self.tracing = False
        #: Opt-in byte-accurate bandwidth accounting: when True,
        #: :meth:`record_send` also sizes each message with the binary wire
        #: codec into ``sim.send_bytes``.  Off by default — the extra
        #: counters would otherwise enter every fingerprint
        #: (:func:`~repro.telemetry.fingerprint.counter_records` covers all
        #: counters), perturbing pinned goldens.  The sharded coordinator
        #: ships this flag to its workers with every tick/deliver command,
        #: so both engines always account symmetrically.
        self.count_wire_bytes = False
        #: Ordering tag attached to emitted events (shard workers set it to
        #: the engine's (phase, index) replay coordinates).
        self.trace_tag: Optional[TraceTag] = None
        self._tagged_trace: List[Tuple[TraceTag, TraceEvent]] = []
        #: Per-round cache of prebuilt ``sim.sends*`` counter keys, used by
        #: the :meth:`record_sends` fast path (see its docstring).
        self._send_cache_round: Optional[int] = None
        self._send_kind_keys: Dict[str, Tuple[str, LabelKey]] = {}
        self._send_elements_key: Tuple[str, LabelKey] = ("", ())
        self._send_unsized_key: Tuple[str, LabelKey] = ("", ())

    # -- writes --------------------------------------------------------------
    def inc(self, name: str, value: int = 1, **labels) -> None:
        key = (name, _label_key(labels))
        if self._lock is None:
            self._counters[key] = self._counters.get(key, 0) + value
        else:
            with self._lock:
                self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        key = (name, _label_key(labels))
        if self._lock is None:
            self._gauges[key] = value
        else:
            with self._lock:
                self._gauges[key] = value

    def observe(self, name: str, value: float, **labels) -> None:
        key = (name, _label_key(labels))
        if self._lock is None:
            hist = self._hists.get(key)
            if hist is None:
                hist = self._hists[key] = _Hist()
            hist.observe(value)
        else:
            with self._lock:
                hist = self._hists.get(key)
                if hist is None:
                    hist = self._hists[key] = _Hist()
                hist.observe(value)

    def time(self, name: str, **labels) -> _Timer:
        """``perf_counter`` phase timer: ``with telemetry.time(name):``
        observes the block's elapsed seconds into the histogram ``name``."""
        return _Timer(self.observe, name, labels)

    def emit(self, kind: str, at: float, pid: Optional[int] = None,
             peer: Optional[int] = None, force: bool = False,
             **data) -> None:
        """Record one trace event (no-op unless ``tracing`` or ``force``)."""
        if not (self.tracing or force):
            return
        event = TraceEvent(kind=kind, at=at, pid=pid, peer=peer, data=data)
        if self.trace_tag is not None:
            self._tagged_trace.append((self.trace_tag, event))
        else:
            self.trace.append(event)

    # -- engine conveniences -------------------------------------------------
    def record_send(self, round_no: int, src, out,
                    sizes: Optional[Dict[int, int]] = None) -> None:
        """Account one outgoing protocol message at emission time.

        Updates the ``sim.sends`` family (per round and kind), the element
        volume (``size_estimate`` when the message offers one, with a
        separate ``sim.sends_unsized`` count otherwise — control messages
        must not inflate element totals), and the per-sender ledger.  With
        :attr:`count_wire_bytes` on, each message is additionally sized with
        the binary wire codec into ``sim.send_bytes`` (messages without a
        binary form count into ``sim.send_bytes_unsized`` instead);
        ``sizes`` memoises that by message identity across one batch, where
        a tick's gossip is a single object for all F targets.
        """
        message = out.message
        kind = type(message).__name__
        self.inc("sim.sends", 1, round=round_no, kind=kind)
        size = getattr(message, "size_estimate", None)
        if callable(size):
            self.inc("sim.send_elements", size(), round=round_no)
        else:
            self.inc("sim.sends_unsized", 1, round=round_no)
        self.inc("sim.sends_by_sender", 1, src=src)
        if self.count_wire_bytes:
            if sizes is None:
                sizes = {}
            wire_size = sizes.get(id(message))
            if wire_size is None:
                # Imported here: the wire package imports core modules, so
                # a module-level import would risk a cycle.
                from ..wire import wire_bytes_of
                wire_size = sizes[id(message)] = wire_bytes_of(message)
            if wire_size < 0:
                self.inc("sim.send_bytes_unsized", 1, round=round_no)
            else:
                self.inc("sim.send_bytes", wire_size, round=round_no)
        if self.tracing:
            # The message class goes under the ``message`` data key — the
            # event's own ``kind`` field is the trace-event kind ("send").
            self.emit("send", float(round_no), pid=src,
                      peer=out.destination, message=kind)

    def record_sends(self, round_no: int, src, outgoings: Sequence) -> None:
        """Batch form of :meth:`record_send`, called once per tick/handler.

        This is the engine's per-message accounting entry point, so when the
        expensive features are off (no tracing, no lock, no byte accounting)
        it takes a fast path: counter keys for the round are prebuilt once
        and the dict updates are inlined.  The keys match
        :func:`_label_key`'s canonical sorted form exactly, so the recorded
        counter state is byte-identical to the plain path — the
        engine-parity golden test pins this.
        """
        if not outgoings:
            return
        if self.tracing or self._lock is not None or self.count_wire_bytes:
            sizes: Dict[int, int] = {}
            for out in outgoings:
                self.record_send(round_no, src, out, sizes)
            return
        counters = self._counters
        if round_no != self._send_cache_round:
            self._send_cache_round = round_no
            self._send_kind_keys = {}
            self._send_elements_key = (
                "sim.send_elements", (("round", round_no),))
            self._send_unsized_key = (
                "sim.sends_unsized", (("round", round_no),))
        kind_keys = self._send_kind_keys
        elements_key = self._send_elements_key
        unsized_key = self._send_unsized_key
        sender_key = ("sim.sends_by_sender", (("src", src),))
        get = counters.get
        sized, elements = None, 0  # a tick's gossip is one object, F targets
        for out in outgoings:
            message = out.message
            kind = type(message).__name__
            skey = kind_keys.get(kind)
            if skey is None:
                skey = kind_keys[kind] = (
                    "sim.sends", (("kind", kind), ("round", round_no)))
            counters[skey] = get(skey, 0) + 1
            if message is not sized:
                size = getattr(message, "size_estimate", None)
                sized, elements = message, size() if callable(size) else None
            if elements is not None:
                counters[elements_key] = get(elements_key, 0) + elements
            else:
                counters[unsized_key] = get(unsized_key, 0) + 1
            counters[sender_key] = get(sender_key, 0) + 1

    # -- reads ---------------------------------------------------------------
    def counter_value(self, name: str, **labels) -> int:
        return self._counters.get((name, _label_key(labels)), 0)

    def counter_total(self, name: str, **match) -> int:
        """Sum of all ``name`` series whose labels include ``match``."""
        wanted = match.items()
        total = 0
        for (metric, key), value in self._counters.items():
            if metric != name:
                continue
            if match and not all(pair in key for pair in sorted(wanted)):
                continue
            total += value
        return total

    def counter_series(self, name: str) -> Dict[LabelKey, int]:
        """All label sets of counter ``name`` with their values."""
        return {key: value for (metric, key), value in self._counters.items()
                if metric == name}

    def label_values(self, name: str, label: str) -> List:
        """Distinct values of ``label`` across counter ``name``'s series."""
        seen = set()
        for (metric, key) in self._counters:
            if metric != name:
                continue
            for k, v in key:
                if k == label:
                    seen.add(v)
        return sorted(seen)

    def gauge_value(self, name: str, **labels) -> Optional[float]:
        return self._gauges.get((name, _label_key(labels)))

    def histogram_stats(self, name: str, **labels
                        ) -> Optional[Tuple[int, float, float, float]]:
        hist = self._hists.get((name, _label_key(labels)))
        return hist.as_tuple() if hist is not None else None

    def counter_names(self) -> List[str]:
        return sorted({metric for metric, _ in self._counters})

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict view of every metric (export layer input) — one
        consistent read: a thread-safe registry copies under its lock."""
        with self._lock or nullcontext():
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {key: h.as_tuple()
                               for key, h in self._hists.items()},
            }

    # -- shard merge ---------------------------------------------------------
    def drain_delta(self) -> tuple:
        """Detach and return everything recorded since the last drain, as a
        picklable ``(counters, hists, tagged_trace, dropped)`` tuple.

        Shard workers call this at the end of every command that can record;
        the coordinator folds the result in with :meth:`absorb_delta`.  The
        registry is empty afterwards, so deltas never double-count.
        """
        counters = [(name, key, value)
                    for (name, key), value in self._counters.items()]
        hists = [(name, key) + hist.as_tuple()
                 for (name, key), hist in self._hists.items()]
        tagged = list(self._tagged_trace)
        tagged.extend((None, event) for event in self.trace.events)
        dropped = self.trace.dropped
        self._counters.clear()
        self._hists.clear()
        self._tagged_trace.clear()
        self.trace.events.clear()
        self.trace.dropped = 0
        return (counters, hists, tagged, dropped)

    def absorb_counters(self, delta: tuple) -> List[tuple]:
        """Merge a drained delta's counters and histograms (summation —
        deterministic regardless of shard interleaving); returns the delta's
        tagged trace events for the caller to order and append."""
        counters, hists, tagged, dropped = delta
        for name, key, value in counters:
            full = (name, key)
            self._counters[full] = self._counters.get(full, 0) + value
        for name, key, count, total, minimum, maximum in hists:
            full = (name, key)
            hist = self._hists.get(full)
            if hist is None:
                hist = self._hists[full] = _Hist()
            hist.merge(count, total, minimum, maximum)
        self.trace.dropped += dropped
        return tagged

    def append_trace_ordered(
        self, tagged: Iterable[Tuple[Optional[TraceTag], TraceEvent]]
    ) -> None:
        """Append shard-recorded events in canonical order: stable sort by
        the ``(phase, index)`` tag (untagged events keep arrival order,
        first)."""
        batch = list(tagged)
        batch.sort(key=lambda pair: pair[0] if pair[0] is not None else (-1, -1))
        self.trace.extend(event for _tag, event in batch)
