"""A real deployment: the async runtime with loopback UDP as its transport.

:class:`LocalDeployment` is an
:class:`~repro.sim.async_runner.AsyncGossipRuntime` on the wall clock — the
laptop-scale analogue of the paper's Sec. 5.2 testbed — so timers, fault
verdicts, crashes, recoveries and pauses are the runtime's own.  Its
``_carry`` packs binary frames onto the sender's socket; one thread's
:mod:`selectors` loop advances the agenda and feeds each datagram to the
runtime's deliver path.  A wakeup of that loop serves every agenda entry
due within T/16 (``_AHEAD`` gossip periods), in due order, reading every
waiting datagram before each: a tick, plan-round boundary or held copy may
run up to T/16 early.  A node method that raises crashes its process
(``udp.node_errors``, traced ``node.error``).

``time.codec{op=decode}`` is observed once per datagram a host reads, but
the frame's bytes are decoded once per deployment: the hosts that receive
one frame share its decoded (frozen) messages, as the in-process runtime
hands every target one message object.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
import traceback
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from ..core.ids import ProcessId
from ..core.message import Outgoing
from ..sim.async_runner import AsyncGossipRuntime
from ..telemetry import Telemetry
from ..wire import decode_frame, pack_datagrams
from ..wire.binary import check_payload

_MAX_DATAGRAM = 65_000
#: One byte past the send cap: a legal datagram is never cut short by
#: ``recv``, and a longer one is counted as truncated, never parsed.
_RECV_BUFSIZE = _MAX_DATAGRAM + 1
_MAX_WAIT = 0.05            # the longest select: how soon stop() is seen
#: A wakeup runs every entry due within this many periods: a sleep costs
#: CPU, and the first tick after one runs twice as slow as the next.  It
#: is also how early an entry may run: T/8 saved ~5 % more CPU than T/16
#: at n = 16 (EXPERIMENTS.md), at twice that timing error.
_AHEAD = 1 / 16
#: Decoded frames a deployment keeps, cleared when full: a gossip's F
#: targets and a tick that resends its last frame find theirs here.
_DECODED_MAX = 64

#: Per-pid ``udp.*`` counter -> its ``datagram_counters()`` key.
_DATAGRAM_COUNTERS = {
    "udp.datagrams_sent": "sent",
    "udp.datagrams_received": "received",
    "udp.datagrams_lost_injected": "lost_injected",
    "udp.datagrams_oversize": "oversize",
    "udp.gossips_split": "split",
    "udp.datagrams_truncated": "truncated",
    "udp.datagrams_send_errors": "send_errors",
    "udp.datagrams_to_unknown": "to_unknown",
    "udp.decode_errors": "decode_errors",
    "udp.node_errors": "node_errors",
    "udp.bytes_sent": "bytes_sent",
    "udp.bytes_received": "bytes_received",
}


def _datagram_totals(telemetry: Telemetry,
                     pid: Optional[ProcessId] = None) -> Dict[str, int]:
    """The ``udp.*`` counters of one snapshot, summed over every pid or kept
    to one, plus ``dropped``: the send-side drops of all three causes."""
    totals = dict.fromkeys(_DATAGRAM_COUNTERS.values(), 0)
    for (name, labels), value in telemetry.snapshot()["counters"].items():
        key = _DATAGRAM_COUNTERS.get(name)
        if key is not None and (pid is None or ("pid", pid) in labels):
            totals[key] += value
    totals["dropped"] = (totals["lost_injected"] + totals["oversize"]
                         + totals["send_errors"])
    return totals


class UdpProcessHost:
    """One node's loopback socket, made by :meth:`LocalDeployment.add_node`;
    :meth:`publish` and :meth:`with_node` take the deployment's lock."""

    def __init__(self, node, deployment: "LocalDeployment") -> None:
        self.node = node
        self.telemetry = deployment.telemetry
        self._deployment = deployment
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.setblocking(False)
        self.address = self._sock.getsockname()
        # Resolved once: a datagram costs one registry call per direction
        # and one perf_counter pair per codec pass.
        self._keys = {name: self.telemetry.counter_key(name, pid=node.pid)
                      for name in _DATAGRAM_COUNTERS}
        self._encode_time = self.telemetry.histogram("time.codec", op="encode")
        self._decode_time = self.telemetry.histogram("time.codec", op="decode")

    def _count(self, name: str, value: int = 1) -> None:
        self.telemetry.add(self._keys[name], value)

    def datagram_counters(self) -> Dict[str, int]:
        """The deployment's ``datagram_counters()`` keys, for this pid."""
        with self._deployment._lock:
            return _datagram_totals(self.telemetry, self.node.pid)

    def with_node(self, fn: Callable):
        """``fn(node)`` under the lock; a returned Outgoing list is sent."""
        with self._deployment._lock:
            result = fn(self.node)
            if isinstance(result, list):
                return self._deployment.send(self.node.pid, result)
        return result

    def publish(self, payload=None):
        """``lpb_cast`` on the node.  A payload no record can carry raises
        :class:`~repro.wire.WireEncodeError` before it takes an event id."""
        check_payload(payload)
        with self._deployment._lock:
            return self.node.lpb_cast(payload, now=time.monotonic())

    def _drain(self) -> None:
        """One waiting datagram to the runtime's deliver path (the selector
        is level-triggered: it reports the socket again while more wait)."""
        try:
            data = self._sock.recv(_RECV_BUFSIZE)
        except OSError:             # BlockingIOError: nothing waits after all
            return
        deployment, pid = self._deployment, self.node.pid
        if pid in deployment.crashed:
            return
        if len(data) > _MAX_DATAGRAM:
            return self._count("udp.datagrams_truncated")
        decoded = deployment._decoded
        started = perf_counter()
        frame = decoded.get(data)
        if frame is None:
            try:
                frame = decode_frame(data)
            except ValueError:  # CodecError is one; the loop must survive
                pass
            else:
                if len(decoded) >= _DECODED_MAX:
                    decoded.clear()
                decoded[data] = frame
        self._decode_time.observe(perf_counter() - started)
        if frame is None:
            return self._count("udp.decode_errors")
        sender, messages = frame
        keys = self._keys
        self.telemetry.add(keys["udp.datagrams_received"], 1,
                           keys["udp.bytes_received"], len(data))
        try:
            for message in messages:
                deployment._deliver(sender, pid, message)
        except Exception as exc:
            deployment._node_error(pid, exc)

    def _transmit(self, datagram: bytes, address: tuple) -> None:
        try:
            self._sock.sendto(datagram, address)
        except OSError:
            return self._count("udp.datagrams_send_errors")
        keys = self._keys
        self.telemetry.add(keys["udp.datagrams_sent"], 1,
                           keys["udp.bytes_sent"], len(datagram))

    def _datagrams(self, messages: List[object], plans: dict) -> List[bytes]:
        """One destination's capped datagrams, packed on first sight within
        the calling ``send``.  Per destination, a split or an unsendable
        message is counted and traced (forced: the only record of a loss)."""
        key = tuple(map(id, messages))
        plan = plans.get(key)
        if plan is None:
            started = perf_counter()
            try:
                plan = plans[key] = pack_datagrams(
                    self.node.pid, messages, max_bytes=_MAX_DATAGRAM)
            finally:
                self._encode_time.observe(perf_counter() - started)
        pid, emit = self.node.pid, self.telemetry.emit
        for message, size in plan.oversize:
            self._count("udp.datagrams_oversize")
            emit("wire.oversize", time.monotonic(), pid=pid, force=True,
                 message_kind=type(message).__name__, wire_size=size)
        for message, size, parts in plan.splits:
            self._count("udp.gossips_split")
            emit("wire.split", time.monotonic(), pid=pid, parts=parts,
                 message_kind=type(message).__name__, wire_size=size)
        return plan.datagrams


class LocalDeployment(AsyncGossipRuntime):
    """Loopback :class:`UdpProcessHost`\\ s run by one selector loop.  The
    agenda's time is wall-clock seconds since construction, advanced by that
    loop: drive a deployment with :meth:`run_for` / :meth:`wait_until`, not
    ``run_until`` (``examples/udp_deployment.py`` shows one end to end)."""

    def __init__(self, nodes: Sequence, gossip_period: float = 0.05,
                 seed: int = 0, fault_plan=None,
                 wire_format: str = "binary") -> None:
        # The only format; the keyword stays for the perf ledger's callers.
        if wire_format != "binary":
            raise ValueError(
                f"wire_format must be 'binary', got {wire_format!r}")
        if gossip_period <= 0:
            raise ValueError("gossip_period must be positive")
        super().__init__(seed=seed, default_period=gossip_period)
        self.gossip_period = gossip_period
        self.directory: Dict[ProcessId, tuple] = {}
        #: Guards nodes, agenda, registry and selector; re-entrant, so a
        #: delivery listener may publish on any host.
        self._lock = threading.RLock()
        self._selector = selectors.DefaultSelector()
        self._t0 = time.monotonic()
        self._loop_thread: Optional[threading.Thread] = None
        self._stopping = False
        self._frames: Dict[tuple, List[object]] = {}
        self._decoded: Dict[bytes, tuple] = {}    # bytes -> (sender, messages)
        self.hosts: List[UdpProcessHost] = []
        self._by_pid: Dict[ProcessId, UdpProcessHost] = {}
        if fault_plan is not None:
            self.use_fault_plan(fault_plan)
        for node in nodes:
            self.add_node(node)

    _clock = staticmethod(time.monotonic)      # what every node is handed

    def _fault_round(self, at: float) -> int:
        return int((at - self._t0) / self._fault_round_duration) + 1

    def _period_of(self, node) -> float:
        return self.gossip_period

    def add_node(self, node) -> None:
        """Host ``node`` on a fresh socket, on a running deployment too."""
        with self._lock:
            super().add_node(node)
            host = self._by_pid[node.pid] = UdpProcessHost(node, self)
            self.directory[node.pid] = host.address
            self._selector.register(host._sock, selectors.EVENT_READ, host)
            self.hosts.append(host)

    def host(self, pid: ProcessId) -> UdpProcessHost:
        return self._by_pid[pid]

    def send(self, src: ProcessId, outgoings: Sequence[Outgoing]) -> None:
        """The runtime's verdicts, then one frame per destination, copy count
        and hold-back.  An unknown destination is counted before its
        verdict: the seeded fault stream never sees it."""
        host = self._by_pid[src]
        directory = self.directory
        known = [out for out in outgoings if out.destination in directory]
        if len(known) < len(outgoings):
            host._count("udp.datagrams_to_unknown",
                        len(outgoings) - len(known))
        stats = getattr(self._fault_injector, "stats", None)
        struck = stats.dropped + stats.partition_blocked if stats else 0
        try:
            super().send(src, known)
        finally:
            frames, self._frames = self._frames, {}
        if stats and stats.dropped + stats.partition_blocked > struck:
            host._count("udp.datagrams_lost_injected",
                        stats.dropped + stats.partition_blocked - struck)
        # A tick's F targets share one gossip object and a frame never
        # names its destination: each distinct group is packed once.
        plans: dict = {}
        for (dst, copies, delay), messages in frames.items():
            address = directory[dst]
            for datagram in host._datagrams(messages, plans):
                for _ in range(copies):
                    if delay > 0:       # the agenda may run ahead
                        self.sim.schedule_at(
                            max(self.sim.now,
                                time.monotonic() - self._t0 + delay),
                            host._transmit, datagram, address)
                    else:
                        host._transmit(datagram, address)

    def _carry(self, src: ProcessId, out: Outgoing, copies: int,
               delay: float) -> None:
        self._frames.setdefault((out.destination, copies, delay),
                                []).append(out.message)

    def _record_sends(self, pid: ProcessId, outgoings) -> None:
        """Nothing per message: the sockets count datagrams (``udp.*``)."""

    def _tick(self, pid: ProcessId, period: float, epoch: int) -> None:
        try:
            super()._tick(pid, period, epoch)
        except Exception as exc:
            self._node_error(pid, exc)

    def _node_error(self, pid: ProcessId, exc: Exception) -> None:
        self._by_pid[pid]._count("udp.node_errors")
        self.telemetry.emit("node.error", time.monotonic(), pid=pid,
                            force=True, error=repr(exc),
                            traceback=traceback.format_exc())
        self.crash(pid)

    def start(self) -> None:
        """Start the loop thread: once, and never after :meth:`stop`."""
        if self._loop_thread is not None or self._stopping:
            raise RuntimeError("a LocalDeployment starts once, before stop()")
        self._loop_thread = threading.Thread(
            target=self._loop, name="udp-deployment", daemon=True)
        self._loop_thread.start()

    def _loop(self) -> None:
        """A wakeup runs every entry due within ``_AHEAD`` periods, in due
        order (``sim.run_until``: no telemetry), reading every waiting
        datagram before each, so ticks and receptions keep the wall clock's
        order; an entry may run ``_AHEAD`` periods early.  Then it sleeps
        until the next entry or a datagram."""
        sim, selector, lock = self.sim, self._selector, self._lock
        t0, ahead = self._t0, _AHEAD * self.gossip_period
        sleeps = self.telemetry.counter_key("loop.sleeps")
        ready = []
        while not self._stopping:
            with lock:
                self._read(ready)
                wall = time.monotonic() - t0
                while (due := sim.next_time()) is not None \
                        and due <= wall + ahead:
                    sim.run_until(due)
                    self._read(selector.select(0))
                sim.run_until(max(sim.now, wall))
                wait = _MAX_WAIT if due is None else min(
                    _MAX_WAIT, max(0.0, due - (time.monotonic() - t0)))
                if wait > 0:
                    self.telemetry.add(sleeps)
            ready = selector.select(wait)

    def _read(self, ready: list) -> None:
        """Read the ready sockets, then every datagram still waiting."""
        while ready:
            for key, _events in ready:
                key.data._drain()
            ready = self._selector.select(0)

    def run_for(self, seconds: float) -> None:
        time.sleep(seconds)

    def wait_until(self, predicate: Callable[[], bool], timeout: float = 10.0,
                   poll: float = 0.05) -> bool:
        """Poll ``predicate`` until it holds or ``timeout`` elapses."""
        deadline = time.monotonic() + timeout
        while not predicate():
            if time.monotonic() >= deadline:
                return False
            time.sleep(poll)
        return True

    def stop(self) -> None:
        """Stop the loop and close every socket (also when never started)."""
        self._stopping = True
        if self._loop_thread is not None:
            self._loop_thread.join()
        with self._lock:
            for host in self.hosts:
                host._sock.close()
            self._selector.close()

    def __enter__(self) -> "LocalDeployment":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def datagram_counters(self) -> Dict[str, int]:
        """Cluster-wide accounting, read under the lock: a datagram is
        counted sent before anyone can read it, so received <= sent."""
        with self._lock:
            return _datagram_totals(self.telemetry)
