"""Logged lpbcast: the deterministic third phase on the client side.

A :class:`LoggedLpbcastNode` behaves exactly like a plain lpbcast node, plus:

* every publication is uploaded to all configured loggers and **retried every
  gossip period until acknowledged** — the log is complete despite loss;
* every ``recovery_period`` ticks it reconciles with a (rotating) logger:
  it sends its per-origin in-sequence frontier and delivers whatever
  archived notifications come back.

Together with :class:`~repro.loggers.logger.LoggerNode` this upgrades
lpbcast's probabilistic guarantee to eventual delivery of every logged
notification at every correct, connected process — the rpbcast-style
strengthening sketched in the paper's concluding remarks.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.buffers import CompactEventIdDigest
from ..core.config import LpbcastConfig
from ..core.events import Notification
from ..core.ids import EventId, ProcessId
from ..core.message import Outgoing
from ..core.node import LpbcastNode
from .messages import LogUpload, LogUploadAck, RecoveryRequest, RecoveryResponse


class LoggedLpbcastNode(LpbcastNode):
    """lpbcast node with publisher-side logging and periodic recovery."""

    def __init__(
        self,
        pid: ProcessId,
        config: Optional[LpbcastConfig] = None,
        rng: Optional[random.Random] = None,
        initial_view: Iterable[ProcessId] = (),
        loggers: Sequence[ProcessId] = (),
        recovery_period: int = 3,
    ) -> None:
        super().__init__(pid, config, rng, initial_view)
        if recovery_period < 1:
            raise ValueError("recovery_period must be >= 1")
        self.loggers = tuple(loggers)
        self.recovery_period = recovery_period
        # Unacknowledged uploads, per logger: (logger, event_id) -> payload.
        self._pending_uploads: Dict[Tuple[ProcessId, EventId], Notification] = {}
        # Contiguous delivered frontier per origin (drives recovery).
        self._frontier = CompactEventIdDigest(max_out_of_order=10_000)
        self.recoveries_sent = 0
        self.recovered_events = 0

    # -- publishing with logging ------------------------------------------------
    def publish_logged(
        self, payload=None, now: float = 0.0
    ) -> Tuple[Notification, List[Outgoing]]:
        """LPB-CAST plus the initial upload round to every logger."""
        notification = self.lpb_cast(payload, now)
        uploads = []
        for logger in self.loggers:
            self._pending_uploads[(logger, notification.event_id)] = notification
            uploads.append(Outgoing(logger, LogUpload(self.pid, notification)))
        return notification, uploads

    # -- frontier maintenance ------------------------------------------------------
    def _deliver(self, notification: Notification, now: float) -> None:
        self._frontier.add(notification.event_id)
        super()._deliver(notification, now)

    def frontier(self) -> Tuple[EventId, ...]:
        """One EventId(origin, last_in_sequence) per known origin."""
        return tuple(EventId(origin, last)
                     for origin, last, _ in self._frontier.snapshot() if last)

    def has_contiguously_delivered(self, event_id: EventId) -> bool:
        """Unbounded ground truth used by the strong-guarantee tests."""
        return event_id in self._frontier

    # -- periodic behaviour -----------------------------------------------------------
    def on_tick(self, now: float) -> List[Outgoing]:
        out = super().on_tick(now)
        # Retry unacknowledged uploads (at-least-once into the log).
        for (logger, _event_id), notification in self._pending_uploads.items():
            out.append(Outgoing(logger, LogUpload(self.pid, notification)))
        # Deterministic third phase: reconcile with a rotating logger.
        if self.loggers and self._tick_count % self.recovery_period == 0:
            logger = self.loggers[
                (self._tick_count // self.recovery_period) % len(self.loggers)
            ]
            self.recoveries_sent += 1
            out.append(Outgoing(logger, RecoveryRequest(self.pid, self.frontier())))
        return out

    # -- message handling ----------------------------------------------------------------
    def handle_message(self, sender: ProcessId, message, now: float) -> List[Outgoing]:
        if isinstance(message, LogUploadAck):
            self._pending_uploads.pop((message.logger, message.event_id), None)
            return []
        if isinstance(message, RecoveryResponse):
            return self.on_recovery_response(message, now)
        return super().handle_message(sender, message, now)

    def on_recovery_response(
        self, response: RecoveryResponse, now: float
    ) -> List[Outgoing]:
        for notification in response.events:
            if notification.event_id in self._frontier:
                continue
            if notification.event_id in self.event_ids:
                # Known to bounded memory but not to the frontier (out-of-
                # order gap): record frontier progress only.
                self._frontier.add(notification.event_id)
                continue
            self.recovered_events += 1
            self._deliver(notification, now)
            self._stage_for_forwarding(notification)
        return []


def build_logged_system(
    count: int,
    logger_count: int = 2,
    config: Optional[LpbcastConfig] = None,
    logger_config: Optional[LpbcastConfig] = None,
    seed: int = 0,
    recovery_period: int = 3,
):
    """Build ``count`` logged clients plus ``logger_count`` loggers.

    Loggers take the highest pids.  All processes (clients and loggers)
    start with uniform random views over the whole population, so loggers
    participate in the gossip like everyone else.  Returns
    ``(clients, loggers)``.
    """
    from ..sim.rng import SeedSequence
    from ..sim.topology import uniform_random_views
    from .logger import LOGGER_CONFIG, LoggerNode

    if count < 1 or logger_count < 1:
        raise ValueError("need at least one client and one logger")
    cfg = config if config is not None else LpbcastConfig(
        digest_implies_delivery=False
    )
    log_cfg = logger_config if logger_config is not None else LOGGER_CONFIG
    seeds = SeedSequence(seed)
    client_pids = list(range(count))
    logger_pids = list(range(count, count + logger_count))
    all_pids = client_pids + logger_pids
    views = uniform_random_views(all_pids, cfg.view_max, seeds.rng("views"))

    clients = [
        LoggedLpbcastNode(
            pid, cfg, seeds.rng("node", pid), initial_view=views[pid],
            loggers=logger_pids, recovery_period=recovery_period,
        )
        for pid in client_pids
    ]
    loggers = [
        LoggerNode(pid, log_cfg, seeds.rng("logger", pid),
                   initial_view=views[pid])
        for pid in logger_pids
    ]
    return clients, loggers
