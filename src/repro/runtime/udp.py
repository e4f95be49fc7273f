"""A real deployment runtime: UDP datagrams on one selector loop.

The paper's Sec. 5.2 numbers come from an actual deployment (125 Solaris
workstations); this module is the laptop-scale equivalent.  Every process
is a :class:`UdpProcessHost` on a loopback UDP socket, messages cross a real
serialization boundary (:mod:`repro.wire`) and unsynchronized wall-clock
timers drive the gossip — the protocol objects the simulators run, deployed
for real.  A :class:`LocalDeployment` runs all its hosts on one thread: a
:mod:`selectors` loop over every socket and one
:class:`~repro.sim.engine.Simulator` agenda on the wall clock, holding each
host's ticks (a seeded random phase, then a fixed rate T, as on
:class:`~repro.sim.async_runner.AsyncGossipRuntime`) and the datagrams a
delay verdict holds back.  A node method that raises fail-stops its own
host only, counted as ``udp.node_errors`` and traced as ``node.error``.

Loopback UDP practically never drops, so ``fault_plan=FaultPlan().drop(p)``
injects the paper's ε at the send boundary: one seeded
:class:`~repro.faults.wire.DatagramFaultInjector` shared by every host, as
for any message-level plan; verdicts that strike are traced as on every
simulator.  Messages to one destination batch into one binary frame; a
payload the codec cannot carry is refused by :meth:`UdpProcessHost.publish`.
A datagram :func:`~repro.wire.decode_frame` rejects is a counted
``udp.decode_errors``, never a parsed message; a gossip too big for one
datagram is *split*, and whatever still cannot fit is counted **and**
traced.  ``datagram_counters()`` on a host or the deployment reads these.
"""

from __future__ import annotations

import random
import selectors
import socket
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.ids import ProcessId
from ..core.message import Outgoing
from ..faults.injector import trace_verdict
from ..sim.engine import Simulator
from ..telemetry import Telemetry
from ..wire import DatagramPlan, decode_frame, pack_datagrams
from ..wire.binary import check_payload

Address = Tuple[str, int]

_MAX_DATAGRAM = 65_000
#: Receive buffer, deliberately one byte *past* the send cap: a legal-size
#: datagram can never be silently truncated by ``recvfrom``, and anything
#: longer than the cap is detected (and counted) instead of being parsed
#: as if it were complete.
_RECV_BUFSIZE = _MAX_DATAGRAM + 1
#: The longest the loop waits in ``select``: how soon ``stop()`` is seen.
_MAX_WAIT = 0.05

#: Per-pid ``udp.*`` counter -> its :meth:`UdpProcessHost.datagram_counters`
#: and :meth:`LocalDeployment.datagram_counters` key.
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
    """The ``udp.*`` counters of one :meth:`Telemetry.snapshot` (so all keys
    are read at the same instant), summed over every pid or kept to one,
    plus ``dropped``: the send-side drops of all three causes."""
    totals = dict.fromkeys(_DATAGRAM_COUNTERS.values(), 0)
    for (name, labels), value in telemetry.snapshot()["counters"].items():
        key = _DATAGRAM_COUNTERS.get(name)
        if key is not None and (pid is None or ("pid", pid) in labels):
            totals[key] += value
    totals["dropped"] = (totals["lost_injected"] + totals["oversize"]
                         + totals["send_errors"])
    return totals


class UdpProcessHost:
    """One protocol node on a loopback UDP socket, made by
    :meth:`LocalDeployment.add_node`.  The deployment's loop runs the node's
    ``on_tick`` and ``handle_message`` under the deployment's lock, which
    :meth:`publish` and :meth:`with_node` take as well."""

    def __init__(self, node, deployment: "LocalDeployment") -> None:
        self.node = node
        #: Every send-side fault goes through this one injector, shared by
        #: the deployment's hosts; None sends everything.
        self.fault_injector = deployment.fault_injector
        self.telemetry = deployment.telemetry
        self._deployment = deployment
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.setblocking(False)
        self.address: Address = self._sock.getsockname()
        deployment.directory[node.pid] = self.address
        self._failed = False        # fail-stopped: its pending tick returns

    def _count(self, name: str, value: int = 1) -> None:
        self.telemetry.inc(name, value, pid=self.node.pid)

    def datagram_counters(self) -> Dict[str, int]:
        """This host's datagram accounting: the keys of
        :meth:`LocalDeployment.datagram_counters`, scoped to its pid."""
        with self._deployment._lock:
            return _datagram_totals(self.telemetry, self.node.pid)

    # -- application access ------------------------------------------------------
    def with_node(self, fn: Callable):
        """Run ``fn(node)`` under the deployment's lock and ship any returned
        :class:`Outgoing` list."""
        with self._deployment._lock:
            result = fn(self.node)
            if isinstance(result, list):
                self._send_all(result)
                return None
        return result

    def publish(self, payload=None):
        """Publish on the hosted node (lpbcast interface).

        A payload no binary record can carry raises
        :class:`~repro.wire.WireEncodeError` here, before the node assigns
        it an event id — past this point it would fail every gossip that
        carried it, on the deployment's loop.
        """
        check_payload(payload)
        with self._deployment._lock:
            return self.node.lpb_cast(payload, now=time.monotonic())

    # -- the deployment's loop, with its lock held ---------------------------
    def _tick(self) -> None:
        """Gossip, then again T after this tick was due (a fixed rate)."""
        if self._failed:
            return
        try:
            self._send_all(self.node.on_tick(time.monotonic()))
        except Exception as exc:
            return self._fail_stop(exc)
        self._deployment._agenda.schedule(self._deployment.gossip_period,
                                          self._tick)

    def _drain(self) -> None:
        """Every waiting datagram, through the frame layer, to the node."""
        while True:
            try:
                data, _addr = self._sock.recvfrom(_RECV_BUFSIZE)
            except OSError:         # BlockingIOError: drained
                return
            if len(data) > _MAX_DATAGRAM:
                # Over the cap our senders honour — the tail may already be
                # gone, so never parse it as if it were complete.
                self._count("udp.datagrams_truncated")
                continue
            try:
                with self.telemetry.time("time.codec", op="decode"):
                    sender, messages = decode_frame(data)
            except ValueError:  # CodecError is one; the loop must survive
                self._count("udp.decode_errors")
                continue
            self._count("udp.datagrams_received")
            self._count("udp.bytes_received", len(data))
            try:
                for message in messages:
                    self._send_all(self.node.handle_message(
                        sender, message, time.monotonic()))
            except Exception as exc:
                return self._fail_stop(exc)

    def _fail_stop(self, exc: Exception) -> None:
        """Silence this host alone (no reads, no ticks) and record why."""
        self._deployment._selector.unregister(self._sock)
        self._failed = True
        self._count("udp.node_errors")
        self.telemetry.emit(
            "node.error", time.monotonic(), pid=self.node.pid, force=True,
            error=repr(exc), traceback=traceback.format_exc(),
        )

    def _send_all(self, outgoings: Sequence[Outgoing]) -> None:
        if not outgoings:
            return
        telemetry, deployment = self.telemetry, self._deployment
        # Fault verdicts are taken per outgoing message, in iteration order:
        # the injector's seeded stream must consume the same sequence of
        # decisions regardless of how survivors later batch into frames.
        groups: Dict[Tuple[Address, int, float], List[object]] = {}
        for out in outgoings:
            address = deployment.directory.get(out.destination)
            if address is None:
                # Counted (the engines' ``sim.to_unknown``), before a verdict.
                self._count("udp.datagrams_to_unknown")
                continue
            copies, delay_s = 1, 0.0
            if self.fault_injector is not None:
                now = time.monotonic()
                verdict, delay_s = self.fault_injector.decide(
                    self.node.pid, out.destination, now)
                if telemetry.tracing:
                    trace_verdict(telemetry, now, verdict, self.node.pid,
                                  out.destination)
                if verdict.action == "drop":
                    self._count("udp.datagrams_lost_injected")
                    continue
                copies = verdict.copies
            groups.setdefault((address, copies, delay_s), []).append(
                out.message
            )
        # A tick's F targets share one gossip object and a frame never names
        # its destination: pack each distinct group of objects once per call.
        plans: Dict[Tuple[int, ...], DatagramPlan] = {}
        for (address, copies, delay_s), messages in groups.items():
            for datagram in self._encode_datagrams(messages, plans):
                for _ in range(copies):
                    if delay_s > 0:
                        deployment._agenda.schedule_at(
                            deployment._clock() + delay_s,
                            self._transmit, datagram, address)
                    else:
                        self._transmit(datagram, address)

    def _encode_datagrams(self, messages: List[object],
                          plans: dict) -> List[bytes]:
        """One destination's messages as capped datagrams, packed on first
        sight within the calling ``_send_all``; splits and undeliverable
        oversize messages are counted and traced per destination."""
        key = tuple(map(id, messages))
        plan = plans.get(key)
        if plan is None:
            with self.telemetry.time("time.codec", op="encode"):
                plan = plans[key] = pack_datagrams(
                    self.node.pid, messages, max_bytes=_MAX_DATAGRAM)
        for message, size in plan.oversize:
            self._count("udp.datagrams_oversize")
            # Forced past the tracing gate: a destroyed message must never be
            # invisible — this event is the only record of what was lost.
            self.telemetry.emit(
                "wire.oversize", time.monotonic(), pid=self.node.pid,
                force=True, message_kind=type(message).__name__,
                wire_size=size)
        for message, size, parts in plan.splits:
            self._count("udp.gossips_split")
            self.telemetry.emit(
                "wire.split", time.monotonic(), pid=self.node.pid,
                message_kind=type(message).__name__, wire_size=size,
                parts=parts)
        return plan.datagrams

    def _transmit(self, datagram: bytes, address: Address) -> None:
        try:
            self._sock.sendto(datagram, address)
            self._count("udp.datagrams_sent")
            self._count("udp.bytes_sent", len(datagram))
        except OSError:
            self._count("udp.datagrams_send_errors")


class LocalDeployment:
    """A cluster of :class:`UdpProcessHost`\\ s on the loopback interface,
    run by one selector loop on one thread.

    >>> from repro.sim import build_lpbcast_nodes
    >>> nodes = build_lpbcast_nodes(8, seed=1)
    >>> cluster = LocalDeployment(nodes, gossip_period=0.05)
    >>> cluster.start()
    >>> event = cluster.host(nodes[0].pid).publish("hello")
    >>> cluster.run_for(1.0)
    >>> cluster.stop()
    """

    def __init__(
        self,
        nodes: Sequence,
        gossip_period: float = 0.05,
        seed: int = 0,
        fault_plan=None,
        wire_format: str = "binary",
    ) -> None:
        # Binary frames are the only format; the keyword stays because the
        # perf ledger's UDP workloads still pass it.
        if wire_format != "binary":
            raise ValueError(
                f"wire_format must be 'binary', got {wire_format!r}")
        if gossip_period <= 0:
            raise ValueError("gossip_period must be positive")
        self.gossip_period = gossip_period
        self.directory: Dict[ProcessId, Address] = {}
        #: One registry for the whole cluster, written under the lock;
        #: every host's ``udp.*`` series is labelled with its pid.
        self.telemetry = Telemetry()
        self._root = random.Random(seed)
        # One injector shared by every host: partitions and scoped drops
        # must see traffic from all senders against one schedule and one
        # seeded stream.
        self.fault_injector = None
        if fault_plan is not None:
            from ..faults.wire import DatagramFaultInjector

            self.fault_injector = DatagramFaultInjector(
                fault_plan, rng=random.Random(self._root.getrandbits(64)),
                round_duration=gossip_period,
            )
        #: Guards the nodes, the agenda, the registry and the selector for
        #: the loop and for application calls; re-entrant, so a delivery
        #: listener may publish on any host.
        self._lock = threading.RLock()
        self._selector = selectors.DefaultSelector()
        self._agenda = Simulator()
        self._t0 = time.monotonic()
        self._loop_thread: Optional[threading.Thread] = None
        self._stopping = False
        self.hosts: List[UdpProcessHost] = []
        self._by_pid: Dict[ProcessId, UdpProcessHost] = {}
        for node in nodes:
            self.add_node(node)

    def _clock(self) -> float:
        """The agenda's time: wall-clock seconds since construction."""
        return time.monotonic() - self._t0

    def add_node(self, node) -> None:
        """Host ``node`` on a fresh socket, gossiping from a seeded random
        phase of one period from now; on a running deployment too."""
        with self._lock:
            phase = random.Random(self._root.getrandbits(64)).uniform(
                0.0, self.gossip_period)
            host = UdpProcessHost(node, self)
            self._selector.register(host._sock, selectors.EVENT_READ, host)
            self._agenda.schedule_at(self._clock() + phase, host._tick)
            self.hosts.append(host)
            self._by_pid[node.pid] = host

    def host(self, pid: ProcessId) -> UdpProcessHost:
        return self._by_pid[pid]

    def start(self) -> None:
        self._loop_thread = threading.Thread(
            target=self._loop, name="udp-deployment", daemon=True)
        self._loop_thread.start()

    def _loop(self) -> None:
        """Run what is due, wait for a datagram, drain the ready sockets."""
        agenda, selector, lock = self._agenda, self._selector, self._lock
        while not self._stopping:
            with lock:
                agenda.run_until(self._clock())
                due = agenda.next_time()
            wait = _MAX_WAIT if due is None else min(
                _MAX_WAIT, max(0.0, due - self._clock()))
            ready = selector.select(wait)
            with lock:
                for key, _events in ready:
                    key.data._drain()

    def run_for(self, seconds: float) -> None:
        time.sleep(seconds)

    def wait_until(
        self,
        predicate: Callable[[], bool],
        timeout: float = 10.0,
        poll: float = 0.05,
    ) -> bool:
        """Poll ``predicate`` until it holds or ``timeout`` elapses."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(poll)
        return predicate()

    def stop(self) -> None:
        """Stop the loop and close every socket — also when ``start()``
        never ran; a second call does nothing more."""
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
        """Cluster-wide datagram accounting with drop causes kept distinct,
        read under the lock: a datagram is counted sent before any host can
        read it, so ``received <= sent`` holds at every read."""
        with self._lock:
            return _datagram_totals(self.telemetry)
