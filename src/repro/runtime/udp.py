"""A real deployment runtime: UDP datagrams, threads and wall-clock timers.

The paper's Sec. 5.2 numbers come from an actual deployment (125 Solaris
workstations).  This module is the in-repo equivalent at laptop scale: every
process is hosted by a thread pair (receive loop + gossip timer) bound to a
loopback UDP socket, messages cross a real serialization boundary
(:mod:`repro.wire`) and real (unsynchronized) wall-clock timers drive
the periodic gossip — the same protocol objects the simulators run, deployed
for real.

Loopback UDP practically never drops, so the deployment injects loss at the
send boundary to recreate the paper's ε — via the unified fault layer: a
``loss_rate`` is sugar for a one-fault :class:`~repro.faults.plan.FaultPlan`,
and any richer plan (duplication, delay spikes, partitions) can be supplied
through a :class:`~repro.faults.wire.DatagramFaultInjector`.

The datagram format is the versioned frame layer of :mod:`repro.wire`:
messages to the same destination batch into one compact binary frame
(``wire_format="binary"``, the default), with the JSON codec available
behind its own version byte for debugging (``wire_format="json"``).  Every
received datagram goes through :func:`~repro.wire.decode_frame`; anything
else — a bad version byte, a truncated frame — is a counted
``udp.decode_errors``, never a parsed message.  A gossip
whose single-message frame would exceed the datagram cap is *split* across
several datagrams instead of silently destroyed; whatever still cannot fit
is counted **and** traced with its kind and wire size.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.ids import ProcessId
from ..core.message import Outgoing
from ..telemetry import Telemetry
from ..wire import DatagramPlan, decode_frame, pack_datagrams

Address = Tuple[str, int]

_MAX_DATAGRAM = 65_000
#: Receive buffer, deliberately one byte *past* the send cap: a legal-size
#: datagram can never be silently truncated by ``recvfrom``, and anything
#: longer than the cap is detected (and counted) instead of being parsed
#: as if it were complete.
_RECV_BUFSIZE = _MAX_DATAGRAM + 1
_RECV_TIMEOUT = 0.05

_WIRE_FORMATS = ("binary", "json")

#: Per-pid ``udp.*`` counter -> its :meth:`LocalDeployment.datagram_counters` key.
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
    "udp.bytes_sent": "bytes_sent",
    "udp.bytes_received": "bytes_received",
}


class UdpProcessHost:
    """Hosts one protocol node on a loopback UDP socket.

    The node is accessed under a lock from two threads: the receive loop
    (``handle_message``) and the gossip timer (``on_tick``); application
    calls (publishing) must go through :meth:`with_node`.
    """

    def __init__(
        self,
        node,
        directory: Dict[ProcessId, Address],
        gossip_period: float = 0.05,
        loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
        fault_injector=None,
        telemetry: Optional[Telemetry] = None,
        wire_format: str = "binary",
    ) -> None:
        if gossip_period <= 0:
            raise ValueError("gossip_period must be positive")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if wire_format not in _WIRE_FORMATS:
            raise ValueError(f"wire_format must be one of {_WIRE_FORMATS}")
        self.node = node
        self.wire_format = wire_format
        self.directory = directory
        self.gossip_period = gossip_period
        self.loss_rate = loss_rate
        self.rng = rng if rng is not None else random.Random()
        # All send-side faults go through one injector: an explicit one
        # (possibly shared across hosts, e.g. for partitions), or one built
        # from the plain loss_rate knob.
        if fault_injector is None and loss_rate:
            from ..faults.plan import FaultPlan
            from ..faults.wire import DatagramFaultInjector

            fault_injector = DatagramFaultInjector(
                FaultPlan().drop(loss_rate), rng=self.rng,
                round_duration=gossip_period,
            )
        self.fault_injector = fault_injector

        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.settimeout(_RECV_TIMEOUT)
        self.address: Address = self._sock.getsockname()
        directory[node.pid] = self.address

        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._receiver = threading.Thread(
            target=self._receive_loop, name=f"recv-{node.pid}", daemon=True
        )
        self._timer = threading.Thread(
            target=self._timer_loop, name=f"tick-{node.pid}", daemon=True
        )
        #: Registry the counter properties below read from — shared and
        #: thread-safe across a deployment (receive loop, gossip timer and
        #: delay timers of every host all write into it concurrently).
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry(thread_safe=True))

    def _count(self, name: str, value: int = 1) -> None:
        self.telemetry.inc(name, value, pid=self.node.pid)

    def _counter(self, name: str) -> int:
        return self.telemetry.counter_value(name, pid=self.node.pid)

    # Back-compat counter surface: the old plain-int attributes, now views
    # over the shared telemetry registry (one labelled series per pid).
    @property
    def datagrams_sent(self) -> int:
        return self._counter("udp.datagrams_sent")

    @property
    def datagrams_received(self) -> int:
        return self._counter("udp.datagrams_received")

    @property
    def datagrams_lost_injected(self) -> int:
        """Send-side drops injected by the fault layer — kept distinct from
        oversize and socket-error drops: conflating them (the old single
        counter) made loss-rate experiments misreport whenever oversize or
        socket errors occurred."""
        return self._counter("udp.datagrams_lost_injected")

    @property
    def datagrams_oversize(self) -> int:
        """Messages destroyed because no datagram could carry them even
        after splitting — each one also leaves a ``wire.oversize`` trace
        event naming its kind and wire size."""
        return self._counter("udp.datagrams_oversize")

    @property
    def gossips_split(self) -> int:
        """Oversize gossips split across several datagrams instead of
        dropped (the pre-wire-layer behaviour was to destroy them whole)."""
        return self._counter("udp.gossips_split")

    @property
    def datagrams_truncated(self) -> int:
        """Datagrams longer than the send cap seen by ``recvfrom`` —
        possibly cut short by the receive buffer, so never parsed."""
        return self._counter("udp.datagrams_truncated")

    @property
    def datagrams_send_errors(self) -> int:
        return self._counter("udp.datagrams_send_errors")

    @property
    def bytes_sent(self) -> int:
        return self._counter("udp.bytes_sent")

    @property
    def bytes_received(self) -> int:
        return self._counter("udp.bytes_received")

    @property
    def decode_errors(self) -> int:
        return self._counter("udp.decode_errors")

    @property
    def datagrams_dropped(self) -> int:
        """Total send-side drops (back-compat sum of the split counters)."""
        return (self.datagrams_lost_injected + self.datagrams_oversize
                + self.datagrams_send_errors)

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> None:
        self._receiver.start()
        self._timer.start()

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout: float = 2.0) -> None:
        """Wait for the threads that were started, then close the socket —
        also when ``start()`` never ran or failed half-way."""
        try:
            for thread in (self._receiver, self._timer):
                if thread.ident is not None:
                    thread.join(timeout)
        finally:
            self._sock.close()

    # -- application access ------------------------------------------------------
    def with_node(self, fn: Callable):
        """Run ``fn(node)`` under the host lock and ship any returned
        :class:`Outgoing` list."""
        with self._lock:
            result = fn(self.node)
        if isinstance(result, list):
            self._send_all(result)
            return None
        return result

    def publish(self, payload=None):
        """Publish on the hosted node (lpbcast interface)."""
        with self._lock:
            return self.node.lpb_cast(payload, now=time.monotonic())

    # -- internals ------------------------------------------------------------------
    def _receive_loop(self) -> None:
        while not self._stop.is_set():
            try:
                data, _addr = self._sock.recvfrom(_RECV_BUFSIZE)
            except socket.timeout:
                continue
            except OSError:
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
            for message in messages:
                with self._lock:
                    replies = self.node.handle_message(
                        sender, message, time.monotonic()
                    )
                self._send_all(replies)

    def _timer_loop(self) -> None:
        # Random initial phase: gossips are not synchronized across hosts.
        if self._stop.wait(self.rng.uniform(0.0, self.gossip_period)):
            return
        while not self._stop.is_set():
            with self._lock:
                out = self.node.on_tick(time.monotonic())
            self._send_all(out)
            if self._stop.wait(self.gossip_period):
                return

    def _send_all(self, outgoings: Sequence[Outgoing]) -> None:
        if not outgoings:
            return
        # Fault verdicts are taken per outgoing message, in iteration order:
        # the injector's seeded stream must consume the same sequence of
        # decisions regardless of how survivors later batch into frames.
        groups: Dict[Tuple[Address, int, float], List[object]] = {}
        for out in outgoings:
            address = self.directory.get(out.destination)
            if address is None:
                # Counted (the engines' ``sim.to_unknown``), before a verdict.
                self._count("udp.datagrams_to_unknown")
                continue
            copies, delay_s = 1, 0.0
            if self.fault_injector is not None:
                verdict, delay_s = self.fault_injector.decide(
                    self.node.pid, out.destination, time.monotonic()
                )
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
                        timer = threading.Timer(
                            delay_s, self._transmit, (datagram, address)
                        )
                        timer.daemon = True
                        timer.start()
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
                    self.node.pid, messages, fmt=self.wire_format,
                    max_bytes=_MAX_DATAGRAM)
        for message, size in plan.oversize:
            self._note_oversize(message, size)
        for message, size, parts in plan.splits:
            self._note_split(message, size, parts)
        return plan.datagrams

    def _note_oversize(self, message: object, size: int) -> None:
        self._count("udp.datagrams_oversize")
        # Forced past the tracing gate: a destroyed message must never be
        # invisible — this event is the only record of what was lost.
        self.telemetry.emit(
            "wire.oversize", time.monotonic(), pid=self.node.pid,
            force=True, message_kind=type(message).__name__, wire_size=size,
        )

    def _note_split(self, message: object, size: int, parts: int) -> None:
        self._count("udp.gossips_split")
        self.telemetry.emit(
            "wire.split", time.monotonic(), pid=self.node.pid,
            message_kind=type(message).__name__, wire_size=size, parts=parts,
        )

    def _transmit(self, datagram: bytes, address: Address) -> None:
        try:
            self._sock.sendto(datagram, address)
            self._count("udp.datagrams_sent")
            self._count("udp.bytes_sent", len(datagram))
        except OSError:
            self._count("udp.datagrams_send_errors")


class LocalDeployment:
    """A cluster of :class:`UdpProcessHost`\\ s on the loopback interface.

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
        loss_rate: float = 0.0,
        seed: int = 0,
        fault_plan=None,
        wire_format: str = "binary",
    ) -> None:
        self.directory: Dict[ProcessId, Address] = {}
        #: One thread-safe registry for the whole cluster; every host's
        #: ``udp.*`` series is labelled with its pid.
        self.telemetry = Telemetry(thread_safe=True)
        root = random.Random(seed)
        # One injector shared by every host: partitions and scoped drops
        # must see traffic from all senders against one schedule and one
        # seeded stream.
        self.fault_injector = None
        if fault_plan is not None:
            from ..faults.wire import DatagramFaultInjector

            self.fault_injector = DatagramFaultInjector(
                fault_plan, rng=random.Random(root.getrandbits(64)),
                round_duration=gossip_period,
            )
        self.hosts: List[UdpProcessHost] = [
            UdpProcessHost(
                node,
                self.directory,
                gossip_period=gossip_period,
                loss_rate=loss_rate,
                rng=random.Random(root.getrandbits(64)),
                fault_injector=self.fault_injector,
                telemetry=self.telemetry,
                wire_format=wire_format,
            )
            for node in nodes
        ]
        self._by_pid = {host.node.pid: host for host in self.hosts}
        self._started = False

    def host(self, pid: ProcessId) -> UdpProcessHost:
        return self._by_pid[pid]

    def start(self) -> None:
        for host in self.hosts:
            host.start()
        self._started = True

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
        for host in self.hosts:
            host.stop()
        for host in self.hosts:
            host.join()
        self._started = False

    def __enter__(self) -> "LocalDeployment":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def total_datagrams(self) -> int:
        return sum(host.datagrams_sent for host in self.hosts)

    def datagram_counters(self) -> Dict[str, int]:
        """Cluster-wide datagram accounting with drop causes kept distinct —
        the numbers a loss-rate experiment should report alongside
        :meth:`total_datagrams`.  One :meth:`Telemetry.snapshot`, so all
        keys are read at the same instant; but a sender counts after
        ``sendto`` returns, possibly after its receiver did, so cross-host
        relations (``received <= sent``) hold on a stopped deployment."""
        totals = dict.fromkeys(_DATAGRAM_COUNTERS.values(), 0)
        counters = self.telemetry.snapshot()["counters"]
        for (name, _labels), value in counters.items():
            key = _DATAGRAM_COUNTERS.get(name)
            if key is not None:
                totals[key] += value
        totals["dropped"] = (totals["lost_injected"] + totals["oversize"]
                             + totals["send_errors"])
        return totals
