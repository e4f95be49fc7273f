"""Network model (paper Sec. 4.1 assumptions).

The analysis assumes: stochastically independent failures; message loss
probability bounded by ``ε`` (paper default 0.05); at most ``f < n`` crashes
per run giving a crash probability bound ``τ = f/n`` (paper default 0.01);
and, for the round-based analysis, network latency below the gossip period.

:class:`NetworkModel` realizes the message side of those assumptions: i.i.d.
Bernoulli loss per message and a latency distribution used by the
discrete-event runner.  Crashes and link cuts are scheduled by a
:class:`~repro.faults.plan.FaultPlan` (``crash``, ``partition``), the one
fault schedule every engine interprets; ``flaky_wan`` in
:mod:`repro.sim.scenarios` draws the τ-bounded crash schedule.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from ..core.ids import ProcessId

#: Paper defaults (Sec. 4.1): "we will assume τ = 0.01 and ε = 0.05".
PAPER_LOSS_RATE = 0.05
PAPER_CRASH_RATE = 0.01

LatencyModel = Callable[[random.Random], float]
"""Draws one message latency, in simulated time units."""


def constant_latency(value: float) -> LatencyModel:
    """Latency fixed at ``value`` (< T keeps the Sec. 4.1 round abstraction)."""
    if value < 0:
        raise ValueError("latency must be non-negative")
    return lambda rng: value


def uniform_latency(low: float, high: float) -> LatencyModel:
    """Latency uniform in [low, high]."""
    if not 0 <= low <= high:
        raise ValueError("need 0 <= low <= high")
    return lambda rng: rng.uniform(low, high)


class NetworkModel:
    """Message-level loss and latency.

    Parameters
    ----------
    loss_rate:
        ε — i.i.d. probability that any given message is dropped in transit.
    rng:
        The network's private random stream.
    latency:
        Latency model for the discrete-event runner (ignored by the
        round-based runner, where one round is one time step).
    """

    def __init__(
        self,
        loss_rate: float = PAPER_LOSS_RATE,
        rng: Optional[random.Random] = None,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss_rate (epsilon) must be in [0, 1]")
        self.loss_rate = loss_rate
        self.rng = rng if rng is not None else random.Random()
        self.latency = latency if latency is not None else constant_latency(0.1)
        self.messages_offered = 0
        self.messages_dropped = 0

    def deliverable(self, src: ProcessId, dst: ProcessId) -> bool:
        """Decide the fate of one message (count it either way)."""
        self.messages_offered += 1
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self.messages_dropped += 1
            return False
        return True

    def draw_latency(self) -> float:
        return self.latency(self.rng)

    def observed_loss_rate(self) -> float:
        """Empirical loss fraction."""
        if self.messages_offered == 0:
            return 0.0
        return self.messages_dropped / self.messages_offered
