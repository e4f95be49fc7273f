"""Fault injection at a real send boundary (the UDP runtime).

The simulators apply faults round-by-round under a global clock; a
:class:`~repro.runtime.udp.LocalDeployment` runs its hosts on one loop
over a wall clock, so :class:`DatagramFaultInjector` adapts the same
:class:`FaultPlan` to that world: time is mapped onto rounds (round ``r``
spans ``[(r-1)*round_duration, r*round_duration)`` from the first send),
verdicts come from one shared :class:`~repro.faults.injector.FaultInjector`
(called under the deployment's lock), and a delay verdict becomes seconds
for the host to hold the datagram back.

Message faults only (drop, duplicate, delay, partition): a plan with a
process fault (crash/pause, the lifecycle owner's business) or a Byzantine
one (it rewrites a message the send path has already encoded) is refused.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from ..core.ids import ProcessId
from .injector import FaultInjector, FaultVerdict, InjectorStats
from .plan import FaultPlan

#: The :class:`FaultPlan` fields a datagram verdict cannot carry out.
_NOT_ON_THE_WIRE = ("crashes", "pauses", "equivocations", "forges",
                    "poisons", "replays")


class DatagramFaultInjector:
    """Wall-clock adapter of a :class:`FaultPlan` for the UDP send path.

    >>> injector = DatagramFaultInjector(FaultPlan().drop(0.1),
    ...                                  rng=random.Random(7),
    ...                                  round_duration=0.05)
    >>> verdict, delay_s = injector.decide(src=1, dst=2, now=0.0)
    """

    def __init__(self, plan: FaultPlan, rng: Optional[random.Random] = None,
                 round_duration: float = 0.05) -> None:
        if round_duration <= 0:
            raise ValueError("round_duration must be positive")
        refused = [kind for kind in _NOT_ON_THE_WIRE if getattr(plan, kind)]
        if refused:
            raise ValueError(
                "the UDP send path applies message faults only (drop, "
                "duplicate, delay, partition); this plan also has "
                + ", ".join(refused))
        self.round_duration = round_duration
        self._injector = FaultInjector(
            plan, rng if rng is not None else random.Random()
        )
        self._t0: Optional[float] = None

    @property
    def plan(self) -> FaultPlan:
        return self._injector.plan

    @property
    def stats(self) -> InjectorStats:
        return self._injector.stats

    def decide(self, src: ProcessId, dst: ProcessId,
               now: float) -> Tuple[FaultVerdict, float]:
        """Verdict for one datagram plus its hold-back in seconds."""
        if self._t0 is None:
            self._t0 = now
        round_no = int((now - self._t0) / self.round_duration) + 1
        verdict = self._injector.decide(src, dst, round_no)
        return verdict, verdict.delay * self.round_duration
