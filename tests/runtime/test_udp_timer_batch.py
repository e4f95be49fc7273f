"""One wakeup of a deployment's loop runs every agenda entry due within
T/16 of the wall clock (T = ``gossip_period``), reading the sockets before
each.

One recorded run (n = 16, T = 40 ms: a tick every 2.5 ms on average, as on
the ``udp_stream`` ledger workload) serves the batch tests; the held-copy
test runs its own deployment under a delay plan.
"""

import time
from collections import Counter, deque

import pytest

from repro.core import LpbcastConfig
from repro.faults import FaultPlan
from repro.metrics import DeliveryLog
from repro.runtime import LocalDeployment
from repro.sim import build_lpbcast_nodes

PERIOD = 0.04
EARLY = PERIOD / 16             # the most an entry may run ahead of the wall


class Recording(LocalDeployment):
    """Logs, in the loop's own order, each tick as it starts (agenda time,
    wall time), each message carried (wall clock, hold-back delay) and
    each message delivered (wall clock)."""

    def __init__(self, *args, **kwargs) -> None:
        self.log = []
        super().__init__(*args, **kwargs)

    def _tick(self, pid, period, epoch):
        self.log.append(("tick", pid, self.sim.now,
                         time.monotonic() - self._t0))
        super()._tick(pid, period, epoch)

    def _carry(self, src, out, copies, delay):
        self.log.append(("carry", src, out.destination, time.monotonic(),
                         delay))
        super()._carry(src, out, copies, delay)

    def _deliver(self, src, dst, message):
        self.log.append(("deliver", src, dst, time.monotonic()))
        super()._deliver(src, dst, message)


def cluster(n, seed, fault_plan=None):
    config = LpbcastConfig(fanout=3, view_max=6, gossip_period=PERIOD)
    nodes = build_lpbcast_nodes(n, config, seed=seed)
    log = DeliveryLog().attach(nodes)
    deployment = Recording(nodes, gossip_period=PERIOD, seed=seed,
                           fault_plan=fault_plan)
    return deployment, nodes, log


@pytest.fixture(scope="module")
def run():
    """1.3 s of a 16-host deployment; every completed tick's pid, agenda
    time and wall time, seen from an ``on_tick_complete`` listener."""
    deployment, nodes, _log = cluster(16, seed=7)
    ticks = []

    def listener(pid, now):
        ticks.append((pid, deployment.sim.now, now - deployment._t0))

    deployment.on_tick_complete(listener)
    with deployment:
        deployment.run_for(1.3)
    return deployment, nodes, ticks


def test_a_tick_runs_only_after_every_frame_sent_before_it_was_read(run):
    deployment, _nodes, _ticks = run
    carried, delivered = Counter(), Counter()
    ahead = 0
    for kind, *rest in deployment.log:
        if kind == "tick":
            assert carried == delivered, "a tick ran before a frame was read"
            ahead += rest[1] > rest[2]
        else:
            (carried if kind == "carry" else delivered)[tuple(rest[:2])] += 1
    assert sum(carried.values()) > 0
    # Ticks ran ahead of the wall clock: batches were formed, and the
    # frames of a batch's tick were read before its next tick.
    assert ahead > 0


def test_no_entry_runs_more_than_ahead_of_its_due_time(run):
    _deployment, _nodes, ticks = run
    assert ticks
    assert max(due - wall for _pid, due, wall in ticks) <= EARLY + 1e-9


def test_each_host_ticks_at_its_rate(run):
    _deployment, nodes, ticks = run
    per_pid = Counter(pid for pid, due, _wall in ticks if 0.2 <= due < 1.2)
    assert set(per_pid) == {node.pid for node in nodes}
    for pid, count in per_pid.items():
        assert abs(count - 1.0 / PERIOD) <= 1, (pid, count)


def test_the_loop_sleeps_less_often_than_it_ticks(run):
    deployment, nodes, _ticks = run
    sleeps = deployment.telemetry.counter_total("loop.sleeps")
    ticks = sum(node.stats.gossips_sent for node in nodes)
    assert 0 < sleeps < ticks


def test_held_copies_arrive_a_period_late_and_are_not_counted_lost():
    # Every surviving message is held one round (one period), a tenth are
    # dropped: per (sender, destination) the held copies arrive in the
    # order they were carried.
    plan = FaultPlan().drop(0.1).delay(1.0, delay=1)
    deployment, nodes, log = cluster(8, seed=5, fault_plan=plan)
    with deployment:
        events = [deployment.host(nodes[i].pid).publish(i) for i in (0, 3)]
        done = deployment.wait_until(
            lambda: all(log.delivery_count(e.event_id) == 8 for e in events),
            timeout=10.0)
    assert done, "an event missed a host"
    held, lags = {}, []
    for kind, *entry in deployment.log:
        if kind == "carry":
            src, dst, at, delay = entry
            held.setdefault((src, dst), deque()).append((at, delay))
        elif kind == "deliver":
            src, dst, at = entry
            carried_at, delay = held[(src, dst)].popleft()
            lags.append((at - carried_at, delay))
    assert lags and all(delay == PERIOD for _lag, delay in lags)
    # A held copy is an agenda entry: it may run up to EARLY ahead.
    assert min(lag for lag, _delay in lags) >= PERIOD - EARLY
    stats = deployment._fault_injector.stats
    assert stats.delayed > 0 and stats.dropped > 0
    assert deployment.telemetry.counter_total(
        "udp.datagrams_lost_injected") == stats.dropped
    assert deployment.datagram_counters()["lost_injected"] == stats.dropped
