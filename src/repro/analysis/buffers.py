"""Analytical model of the buffer-bound reliability trade-off (Fig. 6(b)).

The paper measures the strong dependence of reliability on ``|eventIds|m``
but does not model it ("a more precise expression of the delivery
reliability would thus furthermore depend on l, n, and |events|m ...",
Sec. 5.2).  This module supplies a first-order, deliberately conservative
model, stated for the store ``eventIds`` is (per sender a frontier, and at
most ``B = |eventIds|m`` ids held *out of order*):

* an id delivered out of order waits for the gap before it to close; if,
  worst case, each of the ``λ`` fresh notifications per round lands out of
  order, the budget folds it — writing the gap off — ``B/λ`` rounds later;
* a notification that has not arrived by then is lost to that process,
  hence  reliability ≈ P(latency ≤ B/λ),  the latency law taken from the
  Eqs. 2–3 chain (:class:`~repro.analysis.latency.LatencyAnalysis`).

In-sequence delivery uses no budget at all, so this lower-bounds the
measurement by a wide margin while keeping the curve's shape, knee and
both extremes; ``benchmarks/bench_buffer_model.py`` compares the two.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from ..sim.network import PAPER_CRASH_RATE, PAPER_LOSS_RATE
from .latency import LatencyAnalysis


def id_survival_rounds(event_ids_max: int, publish_rate: float) -> float:
    """Rounds an id held out of order waits before the budget folds it,
    were every one of ``publish_rate`` fresh ids a round out of order."""
    if event_ids_max < 0:
        raise ValueError("event_ids_max must be non-negative")
    if publish_rate <= 0:
        raise ValueError("publish_rate must be positive")
    return event_ids_max / publish_rate


def predicted_reliability(
    n: int,
    fanout: int,
    event_ids_max: int,
    publish_rate: float,
    loss_rate: float = PAPER_LOSS_RATE,
    crash_rate: float = PAPER_CRASH_RATE,
    horizon: int = 40,
) -> float:
    """First-order 1-β prediction for a given ``|eventIds|m`` and load.

    Interpolates the latency CDF linearly between integer rounds, since the
    survival horizon ``B/λ`` is generally fractional.
    """
    analysis = LatencyAnalysis(n, fanout, loss_rate, crash_rate, horizon)
    survival = id_survival_rounds(event_ids_max, publish_rate)
    if survival >= horizon:
        return analysis.infected_by(horizon)
    lower = math.floor(survival)
    upper = lower + 1
    fraction = survival - lower
    low_value = analysis.infected_by(lower)
    high_value = analysis.infected_by(upper)
    return low_value + fraction * (high_value - low_value)


def predicted_reliability_curve(
    n: int,
    fanout: int,
    buffer_sizes: Sequence[int],
    publish_rate: float,
    loss_rate: float = PAPER_LOSS_RATE,
    crash_rate: float = PAPER_CRASH_RATE,
) -> List[Tuple[int, float]]:
    """(|eventIds|m, predicted 1-β) pairs — the analytical Fig. 6(b)."""
    return [
        (size, predicted_reliability(n, fanout, size, publish_rate,
                                     loss_rate, crash_rate))
        for size in buffer_sizes
    ]


def required_buffer_size(
    n: int,
    fanout: int,
    publish_rate: float,
    target_reliability: float = 0.99,
    loss_rate: float = PAPER_LOSS_RATE,
    crash_rate: float = PAPER_CRASH_RATE,
    size_cap: int = 100_000,
) -> int:
    """Smallest ``|eventIds|m`` predicted to reach the target reliability —
    the practical sizing question Fig. 6(b) raises.  The latency quantile
    makes this closed-form: B = λ · (rounds for the target fraction)."""
    if not 0 < target_reliability <= 1:
        raise ValueError("target_reliability must be in (0, 1]")
    analysis = LatencyAnalysis(n, fanout, loss_rate, crash_rate)
    rounds = analysis.latency_quantile(target_reliability)
    if rounds is None:
        raise ValueError(
            "target unreachable: the epidemic never infects that fraction"
        )
    size = math.ceil(rounds * publish_rate)
    if size > size_cap:
        raise ValueError(f"required buffer {size} exceeds cap {size_cap}")
    return size
