"""Churn on the asynchronous runtime: joins and leaves mid-run."""

import random

from repro.core import LpbcastConfig, LpbcastNode
from repro.metrics import DeliveryLog
from repro.sim import (
    AsyncGossipRuntime,
    NetworkModel,
    build_lpbcast_nodes,
    constant_latency,
)


def build_runtime(n=20, seed=4, loss=0.05):
    cfg = LpbcastConfig(fanout=3, view_max=8)
    nodes = build_lpbcast_nodes(n, cfg, seed=seed)
    net = NetworkModel(loss_rate=loss, rng=random.Random(seed + 41),
                       latency=constant_latency(0.1))
    runtime = AsyncGossipRuntime(network=net, seed=seed)
    runtime.add_nodes(nodes)
    return cfg, nodes, runtime


class TestAsyncJoin:
    def test_mid_run_join_integrates(self):
        cfg, nodes, runtime = build_runtime()
        joiner = LpbcastNode(100, cfg, random.Random(100))
        runtime.join_at(joiner, contact=nodes[0].pid, at=3.0)
        runtime.run_until(20.0)
        assert joiner.joined
        assert len(joiner.view) > 0

    def test_joiner_receives_later_events(self):
        cfg, nodes, runtime = build_runtime()
        joiner = LpbcastNode(100, cfg, random.Random(100))
        log = DeliveryLog().attach([joiner])
        runtime.join_at(joiner, contact=nodes[0].pid, at=2.0)
        holder = {}
        runtime.call_at(
            10.0, lambda: holder.update(
                event=nodes[3].lpb_cast("late", now=runtime.now)
            )
        )
        runtime.run_until(30.0)
        assert log.delivered(100, holder["event"].event_id)

    def test_join_request_retries_through_loss(self):
        cfg, nodes, runtime = build_runtime(loss=0.5, seed=6)
        joiner = LpbcastNode(
            100, cfg.with_overrides(join_timeout=2.0), random.Random(100)
        )
        runtime.join_at(joiner, contact=nodes[0].pid, at=1.0)
        runtime.run_until(40.0)
        assert joiner.stats.join_requests_sent >= 1
        assert joiner.joined


class TestAsyncLeave:
    def test_mid_run_leave_drains_views(self):
        cfg, nodes, runtime = build_runtime(n=25, seed=7)
        leaver = nodes[4]
        runtime.leave_at(leaver.pid, at=3.0)
        runtime.run_until(35.0)
        assert leaver.unsubscribed
        knowers = sum(
            1 for n in nodes if n.pid != leaver.pid and leaver.pid in n.view
        )
        assert knowers <= 3

