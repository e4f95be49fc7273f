"""A deployment decodes each distinct frame once, however many of its hosts
receive it.

The hosts are driven by hand (no loop thread, so no tick can interleave):
a datagram is sent from a plain socket, then the receiving host's
``_drain`` reads it, as the loop would on a readiness event.
"""

import select
import socket

import pytest

from repro.core import LpbcastConfig
from repro.core.message import GossipMessage
from repro.runtime import LocalDeployment
from repro.runtime import udp
from repro.sim import build_lpbcast_nodes
from repro.wire import encode_frame


@pytest.fixture
def cluster(monkeypatch):
    """Three hosts, an outside node (pid of ``nodes[3]``) that sends them
    frames, and a count of the deployment's ``decode_frame`` calls."""
    nodes = build_lpbcast_nodes(4, LpbcastConfig(fanout=3, view_max=6),
                                seed=3)
    deployment = LocalDeployment(nodes[:3], gossip_period=3600.0, seed=3)
    decoded, original = [], udp.decode_frame

    def counting(data):
        decoded.append(bytes(data))
        return original(data)

    monkeypatch.setattr(udp, "decode_frame", counting)
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        yield deployment, nodes, decoded, sock
    finally:
        sock.close()
        deployment.stop()


def arrive(deployment, sock, host, data: bytes) -> None:
    """Send ``data`` to ``host`` and let it read the datagram."""
    sock.sendto(data, host.address)
    assert select.select([host._sock], [], [], 2.0)[0]
    with deployment._lock:
        host._drain()


def decode_observations(deployment) -> int:
    return deployment.telemetry.histogram_stats("time.codec", op="decode")[0]


class TestDecodeOncePerDeployment:
    def test_a_frame_sent_to_every_host_is_decoded_once(self, cluster):
        deployment, nodes, decoded, sock = cluster
        outsider = nodes[3]
        note = outsider.lpb_cast("memo", now=0.0)
        frame = encode_frame(outsider.pid,
                             [GossipMessage(outsider.pid, events=(note,))])
        got = {}
        for node in nodes[:3]:
            node.add_delivery_listener(
                lambda pid, event, now: got.setdefault(pid, []).append(event))
        for host in deployment.hosts:
            arrive(deployment, sock, host, frame)
        assert decoded == [frame]
        assert sorted(got) == sorted(node.pid for node in nodes[:3])
        first, *others = got.values()
        assert first == [note]
        assert all(events == first and events[0] is first[0]
                   for events in others)
        counters = deployment.datagram_counters()
        assert counters["received"] == 3
        assert counters["bytes_received"] == 3 * len(frame)
        assert decode_observations(deployment) == 3

    def test_an_undecodable_datagram_is_counted_every_time(self, cluster):
        deployment, nodes, decoded, sock = cluster
        host = deployment.hosts[0]
        for _ in range(2):
            arrive(deployment, sock, host, b"garbage")
        assert len(decoded) == 2
        assert deployment._decoded == {}
        counters = host.datagram_counters()
        assert counters["decode_errors"] == 2
        assert counters["received"] == 0
        assert decode_observations(deployment) == 2

    def test_the_memo_holds_no_more_than_its_bound(self, cluster):
        deployment, nodes, decoded, sock = cluster
        host = deployment.hosts[0]
        frames = [encode_frame(sender, [GossipMessage(sender)])
                  for sender in range(1_000, 1_000 + udp._DECODED_MAX + 10)]
        for frame in frames:
            arrive(deployment, sock, host, frame)
            assert len(deployment._decoded) <= udp._DECODED_MAX
        assert decoded == frames
        assert host.datagram_counters()["received"] == len(frames)

    def test_a_crashed_hosts_datagram_never_reaches_the_memo(self, cluster):
        deployment, nodes, decoded, sock = cluster
        host = deployment.hosts[0]
        deployment.crash(host.node.pid)
        arrive(deployment, sock, host,
               encode_frame(nodes[3].pid, [GossipMessage(nodes[3].pid)]))
        assert decoded == []
        assert deployment._decoded == {}
        assert decode_observations(deployment) == 0
