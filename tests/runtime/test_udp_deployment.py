"""Tests for the loopback-UDP deployment runtime.

These run real sockets and a real loop with short wall-clock budgets; they are
deliberately small-scale (n <= 12, sub-second gossip periods) to stay fast
and robust.
"""

import socket
import threading
import time

import pytest

from repro.core import LpbcastConfig
from repro.core.message import GossipMessage
from repro.faults import FaultPlan
from repro.metrics import DeliveryLog
from repro.runtime import LocalDeployment
from repro.sim import build_lpbcast_nodes
from repro.wire import WireEncodeError, encode_frame


def build_cluster(n=8, loss=0.0, period=0.03, seed=1, view=6):
    cfg = LpbcastConfig(fanout=3, view_max=view, gossip_period=period)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    log = DeliveryLog().attach(nodes)
    cluster = LocalDeployment(
        nodes, gossip_period=period, seed=seed,
        fault_plan=FaultPlan().drop(loss) if loss else None)
    return cluster, nodes, log


def assert_still_gossiping(cluster, host):
    """The deployment's loop thread is alive and ``host`` keeps sending."""
    sent = host.datagram_counters()["sent"]
    assert cluster.wait_until(
        lambda: host.datagram_counters()["sent"] > sent, timeout=3.0)
    assert cluster._loop_thread.is_alive()


class TestDeployment:
    def test_broadcast_reaches_every_process(self):
        cluster, nodes, log = build_cluster(n=8)
        with cluster:
            event = cluster.host(nodes[0].pid).publish("hello")
            done = cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 8, timeout=8.0
            )
        assert done, f"only {log.delivery_count(event.event_id)}/8 delivered"

    def test_broadcast_survives_injected_loss(self):
        cluster, nodes, log = build_cluster(n=8, loss=0.2, seed=2)
        with cluster:
            event = cluster.host(nodes[0].pid).publish("lossy")
            done = cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 8, timeout=10.0
            )
        assert done
        assert any(host.datagram_counters()["dropped"] > 0
                   for host in cluster.hosts)

    def test_multiple_publishers_concurrently(self):
        cluster, nodes, log = build_cluster(n=10, seed=3)
        with cluster:
            events = [
                cluster.host(nodes[i].pid).publish({"from": i})
                for i in range(3)
            ]
            done = cluster.wait_until(
                lambda: all(
                    log.delivery_count(e.event_id) == 10 for e in events
                ),
                timeout=10.0,
            )
        assert done

    def test_timers_are_unsynchronized_and_periodic(self):
        cluster, nodes, log = build_cluster(n=6, period=0.05, seed=4)
        with cluster:
            cluster.run_for(0.5)
            sent = [host.datagram_counters()["sent"]
                    for host in cluster.hosts]
        # ~10 ticks x fanout 3 each; generous bounds for scheduler jitter.
        assert all(s >= 9 for s in sent)

    def test_malformed_datagrams_tolerated(self):
        cluster, nodes, log = build_cluster(n=4, seed=5)
        with cluster:
            import socket
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            target = cluster.host(nodes[0].pid).address
            sock.sendto(b"garbage", target)
            sock.sendto(b"1|{not json", target)
            sock.sendto(b"xx|{}", target)
            sock.close()
            event = cluster.host(nodes[1].pid).publish("still works")
            done = cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 4, timeout=8.0
            )
        assert done
        assert cluster.host(nodes[0].pid).datagram_counters()[
            "decode_errors"] >= 2

    def test_stop_is_clean_and_idempotent(self):
        cluster, nodes, log = build_cluster(n=4, seed=6)
        cluster.start()
        cluster.stop()
        cluster.stop()
        before = threading.active_count()
        time.sleep(0.1)
        assert threading.active_count() <= before

    def test_stop_before_start_closes_every_socket(self):
        # The shape of `try: ... finally: cluster.stop()` around a start
        # that never happened: no "cannot join thread" error, no bound
        # socket left behind.
        cluster, nodes, log = build_cluster(n=4, seed=6)
        cluster.stop()
        assert all(host._sock.fileno() == -1 for host in cluster.hosts)
        cluster.stop()

    def test_with_node_ships_returned_messages(self):
        cluster, nodes, log = build_cluster(n=4, seed=7)
        joiner_cfg = LpbcastConfig(fanout=2, view_max=4, gossip_period=0.03)
        from repro.core import LpbcastNode
        import random as _random
        joiner = LpbcastNode(99, joiner_cfg, _random.Random(99))
        DeliveryLog().attach([joiner])
        with cluster:
            cluster.add_node(joiner)            # on the running deployment
            cluster.host(joiner.pid).with_node(
                lambda node: node.start_join(nodes[0].pid,
                                             now=time.monotonic())
            )
            joined = cluster.wait_until(lambda: joiner.joined, timeout=8.0)
        assert joined

    def test_unencodable_payload_refused_at_publish(self):
        # A set has no JSON form, so no gossip could carry it: publish
        # refuses it before the node assigns an id, and the host keeps
        # gossiping (encoding the next gossip would have failed it).
        cluster, nodes, log = build_cluster(n=6, seed=10)
        publisher = nodes[0]
        with cluster:
            host = cluster.host(publisher.pid)
            with pytest.raises(WireEncodeError, match="unencodable payload"):
                host.publish({1, 2})
            assert publisher.stats.published == 0
            assert not publisher.events
            assert_still_gossiping(cluster, host)
            event = host.publish("ok")
            assert event.event_id.seq == 1  # the refused payload took no id
            done = cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 6, timeout=8.0
            )
            assert_still_gossiping(cluster, host)
        assert done, f"only {log.delivery_count(event.event_id)}/6 delivered"
        assert cluster.datagram_counters()["node_errors"] == 0


class TestOneLoop:
    """Every host of a deployment runs on its one loop thread."""

    def test_a_running_deployment_adds_exactly_one_thread(self):
        before = set(threading.enumerate())
        cluster, nodes, log = build_cluster(n=8, seed=16)
        with cluster:
            event = cluster.host(nodes[0].pid).publish("one loop")
            done = cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 8, timeout=8.0)
            assert set(threading.enumerate()) - before == {
                cluster._loop_thread}
        assert done
        assert not cluster._loop_thread.is_alive()
        assert set(threading.enumerate()) - before == set()

    def test_stop_under_concurrent_publishing(self):
        before = set(threading.enumerate())
        cluster, nodes, log = build_cluster(n=6, seed=17)
        host = cluster.host(nodes[0].pid)
        errors, published, done = [], [], threading.Event()

        def publish_in_a_loop():
            try:
                while not done.is_set():
                    published.append(host.publish("load"))
                    time.sleep(0.001)
            except Exception as exc:  # the test asserts there is none
                errors.append(exc)

        cluster.start()
        publisher = threading.Thread(target=publish_in_a_loop)
        publisher.start()
        try:
            cluster.run_for(0.3)
            started = time.monotonic()
            cluster.stop()
            stopped_in = time.monotonic() - started
            cluster.run_for(0.05)       # publishing goes on after stop()
        finally:
            done.set()
            publisher.join(timeout=2.0)
        assert not publisher.is_alive()
        assert stopped_in < 2.0
        assert errors == []
        assert len(published) > 10
        assert not cluster._loop_thread.is_alive()
        assert set(threading.enumerate()) - before == set()
        assert all(h._sock.fileno() == -1 for h in cluster.hosts)

    def test_a_raising_node_fail_stops_only_its_own_host(self):
        cluster, nodes, log = build_cluster(n=6, seed=18)
        victim = cluster.host(nodes[3].pid)

        def broken(sender, message, now):
            raise RuntimeError("planted handler failure")

        victim.node.handle_message = broken
        others = [node.pid for node in nodes if node is not victim.node]
        with cluster:
            first = cluster.host(nodes[0].pid).publish("before")
            assert cluster.wait_until(
                lambda: victim.datagram_counters()["node_errors"] > 0,
                timeout=5.0)
            silenced = victim.datagram_counters()
            gossips = victim.with_node(lambda node: node.stats.gossips_sent)
            second = cluster.host(nodes[1].pid).publish("after")
            delivered = cluster.wait_until(
                lambda: all(log.delivered(pid, event.event_id)
                            for pid in others for event in (first, second)),
                timeout=8.0)
            assert_still_gossiping(cluster, cluster.host(nodes[1].pid))
        assert delivered
        assert cluster.datagram_counters()["node_errors"] == 1
        # The victim read its first datagram and no other, and never
        # ticked again.
        assert victim.datagram_counters()["received"] == 1
        assert victim.datagram_counters()["sent"] == silenced["sent"]
        assert victim.node.stats.gossips_sent == gossips
        (error,) = cluster.telemetry.trace.of_kind("node.error")
        assert error.pid == victim.node.pid
        assert "planted handler failure" in error.data["error"]
        assert "RuntimeError" in error.data["traceback"]


class TestDropAccounting:
    """The three send-side drop causes stay distinct (a conflated counter
    made loss-rate experiments misreport whenever oversize occurred)."""

    def test_injected_loss_lands_in_its_own_counter(self):
        cluster, nodes, log = build_cluster(n=6, loss=0.25, seed=11)
        with cluster:
            event = cluster.host(nodes[0].pid).publish("count me")
            cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 6, timeout=10.0
            )
        per_host = [h.datagram_counters() for h in cluster.hosts]
        lost = sum(c["lost_injected"] for c in per_host)
        assert lost > 0
        assert sum(c["oversize"] for c in per_host) == 0
        assert sum(c["send_errors"] for c in per_host) == 0
        assert sum(c["dropped"] for c in per_host) == lost

    def test_oversize_lands_in_its_own_counter(self):
        cluster, nodes, log = build_cluster(n=2, seed=12)
        with cluster:
            host = cluster.host(nodes[0].pid)
            host.with_node(lambda node: node.lpb_cast("x" * 100_000))
            cluster.run_for(0.3)
            counters = host.datagram_counters()
            assert counters["oversize"] > 0
            assert counters["lost_injected"] == 0
            assert counters["dropped"] == counters["oversize"]

    def test_cluster_counters_aggregate_by_cause(self):
        cluster, nodes, log = build_cluster(n=6, loss=0.2, seed=13)
        with cluster:
            cluster.host(nodes[0].pid).publish("tally")
            cluster.run_for(0.5)
            counters = cluster.datagram_counters()
        assert counters["sent"] > 0
        assert counters["received"] > 0
        assert counters["lost_injected"] > 0
        assert counters["dropped"] == (counters["lost_injected"]
                                       + counters["oversize"]
                                       + counters["send_errors"])
        # The cluster's counters are the sum of its hosts', key by key.
        per_host = [host.datagram_counters() for host in cluster.hosts]
        assert counters == {key: sum(c[key] for c in per_host)
                            for key in counters}


class TestFaultPlanDeployment:
    def test_drop_plan_replaces_loss_rate(self):
        cfg = LpbcastConfig(fanout=3, view_max=6, gossip_period=0.03)
        nodes = build_lpbcast_nodes(8, cfg, seed=14)
        log = DeliveryLog().attach(nodes)
        plan = FaultPlan().drop(0.25)
        cluster = LocalDeployment(nodes, gossip_period=0.03, seed=14,
                                  fault_plan=plan)
        # One injector for every host: the runtime's own.
        assert cluster._fault_injector.plan is plan
        with cluster:
            event = cluster.host(nodes[0].pid).publish("planned loss")
            done = cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 8, timeout=10.0
            )
        assert done
        assert cluster.datagram_counters()["lost_injected"] > 0
        assert cluster._fault_injector.stats.dropped > 0

    def test_partition_plan_cuts_the_cluster(self):
        cfg = LpbcastConfig(fanout=3, view_max=6, gossip_period=0.03)
        nodes = build_lpbcast_nodes(6, cfg, seed=15)
        log = DeliveryLog().attach(nodes)
        side_a = [n.pid for n in nodes[:3]]
        side_b = [n.pid for n in nodes[3:]]
        plan = FaultPlan().partition(side_a, side_b, start=1, heal=100_000)
        cluster = LocalDeployment(nodes, gossip_period=0.03, seed=15,
                                  fault_plan=plan)
        with cluster:
            event = cluster.host(side_a[0]).publish("walled in")
            cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 3, timeout=8.0
            )
            cluster.run_for(0.3)  # grace: a crossing would surface here
        assert {p for p in side_a if log.delivered(p, event.event_id)} \
            == set(side_a)
        assert all(not log.delivered(p, event.event_id) for p in side_b)
        assert cluster._fault_injector.stats.partition_blocked > 0

    def test_process_and_byzantine_faults_run(self):
        # Once refused, before that accepted and ignored.  Now the runtime
        # applies them: the crashed host goes silent, and the liar's
        # receivers deliver conflicting payloads for one event id (fanout
        # n - 1: each hears the liar before any relay).
        cfg = LpbcastConfig(fanout=5, view_max=6, gossip_period=0.03)
        nodes = build_lpbcast_nodes(6, cfg, seed=19)
        liar, victim = nodes[0].pid, nodes[1].pid
        plan = FaultPlan().crash(victim, at=2).equivocate(liar)
        payloads = {}
        for node in nodes:
            node.add_delivery_listener(
                lambda pid, note, now: payloads.setdefault(pid, note.payload))
        cluster = LocalDeployment(nodes, gossip_period=0.03, seed=19,
                                  fault_plan=plan)
        with cluster:
            assert cluster.wait_until(lambda: not cluster.alive(victim))
            sent = cluster.host(victim).datagram_counters()["sent"]
            cluster.host(liar).publish("truth")
            assert cluster.wait_until(lambda: len(payloads) == 5)
            assert cluster.host(victim).datagram_counters()["sent"] == sent
        assert victim not in payloads
        assert len(set(map(repr, payloads.values()))) == 2
        assert cluster._fault_injector.stats.equivocated > 0

    @pytest.mark.parametrize("tracing", [True, False])
    def test_struck_drops_are_traced_only_when_tracing(self, tracing):
        cfg = LpbcastConfig(fanout=3, view_max=6, gossip_period=0.03)
        nodes = build_lpbcast_nodes(6, cfg, seed=20)
        cluster = LocalDeployment(nodes, gossip_period=0.03, seed=20,
                                  fault_plan=FaultPlan().drop(0.3))
        cluster.telemetry.tracing = tracing
        with cluster:
            cluster.run_for(0.3)
        lost = cluster.datagram_counters()["lost_injected"]
        assert lost == cluster._fault_injector.stats.dropped > 0
        drops = cluster.telemetry.trace.of_kind("fault.drop")
        if not tracing:
            assert drops == []
            return
        assert len(drops) == lost
        pids = {node.pid for node in nodes}
        assert all(e.pid in pids and e.peer in pids and e.pid != e.peer
                   for e in drops)


class TestProcessFaults:
    """Crash, recovery and pause plans run on the runtime's own process
    table and timers; plan round r spans [(r-1)T, rT) from construction."""

    def test_recovering_host_is_silent_in_its_window_and_delivers_after(self):
        cfg = LpbcastConfig(fanout=3, view_max=6, gossip_period=0.05)
        nodes = build_lpbcast_nodes(6, cfg, seed=21)
        log = DeliveryLog().attach(nodes)
        victim = nodes[2].pid
        # Crashed through rounds 2-15: 0.05 s to 0.75 s after construction.
        cluster = LocalDeployment(nodes, gossip_period=0.05, seed=21,
                                  fault_plan=FaultPlan().crash(
                                      victim, at=2, recover_at=16))
        host = cluster.host(victim)
        with cluster:
            assert cluster.wait_until(lambda: not cluster.alive(victim))
            sent = host.datagram_counters()["sent"]
            during = cluster.host(nodes[0].pid).publish("during")
            others = [node.pid for node in nodes if node.pid != victim]
            assert cluster.wait_until(lambda: all(
                log.delivered(pid, during.event_id) for pid in others))
            assert not cluster.alive(victim)        # still in the window
            assert host.datagram_counters()["sent"] == sent
            assert not log.delivered(victim, during.event_id)
            assert cluster.wait_until(lambda: cluster.alive(victim))
            after = cluster.host(nodes[0].pid).publish("after")
            assert cluster.wait_until(
                lambda: log.delivered(victim, after.event_id), timeout=8.0)
            assert host.datagram_counters()["sent"] > sent
        stats = cluster._fault_injector.stats
        assert stats.crashes_applied == stats.recoveries_applied == 1

    def test_paused_host_skips_its_gossips_but_keeps_its_timer(self):
        cfg = LpbcastConfig(fanout=3, view_max=6, gossip_period=0.05)
        nodes = build_lpbcast_nodes(6, cfg, seed=22)
        paused = nodes[3]
        # Paused through rounds 3-12: 0.10 s to 0.60 s after construction.
        cluster = LocalDeployment(nodes, gossip_period=0.05, seed=22,
                                  fault_plan=FaultPlan().pause(
                                      paused.pid, at=3, duration=10))

        def gossips_at(seconds):
            time.sleep(max(0.0, cluster._t0 + seconds - time.monotonic()))
            return cluster.host(paused.pid).with_node(
                lambda node: node.stats.gossips_sent)

        with cluster:
            before = gossips_at(0.15)
            assert gossips_at(0.55) == before
            assert cluster.wait_until(lambda: gossips_at(0.0) > before)
            assert cluster.alive(paused.pid)
        assert before > 0

    def test_a_crashed_hosts_datagrams_are_read_and_discarded(self):
        # Unread, they would keep the level-triggered selector ready: the
        # loop would spin on them instead of sleeping in select.
        cfg = LpbcastConfig(fanout=3, view_max=6)
        nodes = build_lpbcast_nodes(2, cfg, seed=31)
        cluster = LocalDeployment(nodes[:1], gossip_period=3600.0, seed=31,
                                  fault_plan=FaultPlan().crash(nodes[0].pid,
                                                               at=1))
        host = cluster.host(nodes[0].pid)
        frame = encode_frame(nodes[1].pid, [GossipMessage(nodes[1].pid)])

        def queue_empty():
            with cluster._lock:
                try:
                    host._sock.recv(1, socket.MSG_PEEK)
                except BlockingIOError:
                    return True
            return False

        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            with cluster:
                assert cluster.wait_until(
                    lambda: not cluster.alive(nodes[0].pid))
                for _ in range(50):
                    sock.sendto(frame, host.address)
                assert cluster.wait_until(queue_empty, timeout=3.0)
                counters = host.datagram_counters()
        finally:
            sock.close()
        assert counters["received"] == counters["decode_errors"] == 0
        assert cluster.messages_delivered == 0
        assert cluster.telemetry.histogram_stats(
            "time.codec", op="decode")[0] == 0


class TestValidation:
    def test_invalid_period(self):
        with pytest.raises(ValueError):
            build_cluster(period=0.0)

    def test_invalid_loss(self):
        with pytest.raises(ValueError):
            build_cluster(loss=1.5)

    def test_oversized_datagram_dropped_not_crashed(self):
        cluster, nodes, log = build_cluster(n=2, seed=8)
        with cluster:
            host = cluster.host(nodes[0].pid)
            # A payload far beyond the 65 kB datagram cap.
            host.with_node(lambda node: node.lpb_cast("x" * 100_000))
            cluster.run_for(0.3)
            dropped = host.datagram_counters()["dropped"]
        assert dropped > 0  # counted, not raised

    def test_message_to_unknown_pid_ignored(self):
        cluster, nodes, log = build_cluster(n=2, seed=9)
        with cluster:
            host = cluster.host(nodes[0].pid)
            from repro.core.message import Outgoing
            # No address: counted, never sent.
            host.with_node(lambda node: [Outgoing(9999, object())])
            cluster.run_for(0.1)
        # Nothing raised; cluster shut down cleanly.


class TestStartsOnce:
    """One loop thread selects on a deployment's sockets, for its one run."""

    def test_a_second_start_raises_and_adds_no_thread(self):
        before = set(threading.enumerate())
        cluster, nodes, log = build_cluster(n=4, seed=17)
        try:
            cluster.start()
            with pytest.raises(RuntimeError):
                cluster.start()
            assert set(threading.enumerate()) - before == {
                cluster._loop_thread}
        finally:
            cluster.stop()

    def test_a_start_after_stop_raises(self):
        for started in (False, True):
            cluster, nodes, log = build_cluster(n=4, seed=18)
            if started:
                cluster.start()
            cluster.stop()
            with pytest.raises(RuntimeError):
                cluster.start()

    def test_with_starts_the_loop_once_and_stops_it(self):
        cluster, nodes, log = build_cluster(n=4, seed=19)
        with cluster:
            assert cluster._loop_thread.is_alive()
            with pytest.raises(RuntimeError):
                cluster.start()
            event = cluster.host(nodes[0].pid).publish("started once")
            assert cluster.wait_until(
                lambda: log.delivery_count(event.event_id) == 4, timeout=8.0)
        assert not cluster._loop_thread.is_alive()
        with pytest.raises(RuntimeError):
            cluster.__enter__()
