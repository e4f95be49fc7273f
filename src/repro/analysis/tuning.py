"""Parameter tuning from the paper's analysis (Sec. 7).

"For the time being, the analytical approach we have given here can be used
as a tool to tune the algorithm for a given expected maximum system size."

This module is that tool.  Given an expected maximum system size and target
guarantees, it inverts the paper's formulas:

* :func:`recommend_fanout` — smallest F whose Markov chain (Eqs. 2–3)
  reaches the target infected fraction within a round budget;
* :func:`recommend_view_size` — smallest l ≥ F for which the Eq. 5 horizon
  (rounds until partitioning becomes likely) exceeds the system's intended
  lifetime;
* :func:`recommend_config` — both, packaged as a ready
  :class:`~repro.core.config.LpbcastConfig`.

The paper leaves "a precise analytical expression to determine the ideal
view size l" as an open problem; this tool does the practical thing instead:
numeric search over the exact bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.config import LpbcastConfig
from ..sim.network import PAPER_CRASH_RATE, PAPER_LOSS_RATE
from .expectation import expected_rounds_to_fraction
from .partition import rounds_until_partition


def recommend_fanout(
    n: int,
    target_fraction: float = 0.99,
    max_rounds: float = 8.0,
    loss_rate: float = PAPER_LOSS_RATE,
    crash_rate: float = PAPER_CRASH_RATE,
    fanout_cap: int = 32,
) -> int:
    """Smallest fanout infecting ``target_fraction`` of n within the budget.

    Uses the Appendix A expectation recursion.  Raises ``ValueError`` when no
    fanout up to ``fanout_cap`` meets the budget (the budget is too tight
    for any sane fanout — recall Fig. 2's diminishing returns).
    """
    if max_rounds <= 0:
        raise ValueError("max_rounds must be positive")
    fanout_cap = min(fanout_cap, max(n - 1, 1))  # only n - 1 others
    for fanout in range(1, fanout_cap + 1):
        rounds = expected_rounds_to_fraction(
            n, fanout, loss_rate, crash_rate, fraction=target_fraction
        )
        if rounds is not None and rounds <= max_rounds:
            return fanout
    raise ValueError(
        f"no fanout <= {fanout_cap} infects {target_fraction:.0%} of "
        f"n={n} within {max_rounds} rounds"
    )


def recommend_view_size(
    n: int,
    fanout: int,
    lifetime_rounds: float = 1e9,
    partition_probability: float = 0.01,
    view_cap: int = 256,
    floor: int = 0,
) -> int:
    """Smallest l (≥ F and ≥ ``floor``) keeping the partition risk below the
    target.

    Finds the smallest ``l`` such that the Eq. 5 horizon — the number of
    rounds after which a partition has occurred with probability
    ``partition_probability`` — exceeds ``lifetime_rounds``.

    ``floor`` expresses the *practical* lower bound beyond the paper's hard
    ``F <= l`` constraint: the simulations (Fig. 5(b) / Sec. 6.1) show that
    views at or barely above F are correlated enough to slow dissemination
    measurably, so :func:`recommend_config` passes ``floor = 2F`` by
    default.
    """
    if lifetime_rounds <= 0:
        raise ValueError("lifetime_rounds must be positive")
    if not 0 < partition_probability < 1:
        raise ValueError("partition_probability must be in (0, 1)")
    for l in range(max(1, fanout, floor), view_cap + 1):
        horizon = rounds_until_partition(n, l, partition_probability)
        if horizon >= lifetime_rounds:
            return l
    raise ValueError(
        f"no view size <= {view_cap} meets the partition target for n={n}"
    )


@dataclass(frozen=True)
class TuningReport:
    """The recommendation and the guarantees it was derived from."""

    n: int
    fanout: int
    view_size: int
    expected_rounds_to_target: float
    partition_horizon_rounds: float
    config: LpbcastConfig

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"n={self.n}: F={self.fanout}, l={self.view_size} "
            f"(99% infection in ~{self.expected_rounds_to_target:.1f} rounds, "
            f"partition horizon ~{self.partition_horizon_rounds:.2e} rounds)"
        )


def recommend_config(
    n: int,
    target_fraction: float = 0.99,
    max_rounds: float = 8.0,
    lifetime_rounds: float = 1e9,
    partition_probability: float = 0.01,
    loss_rate: float = PAPER_LOSS_RATE,
    crash_rate: float = PAPER_CRASH_RATE,
    base: Optional[LpbcastConfig] = None,
    view_slack_factor: float = 2.0,
) -> TuningReport:
    """Tune (F, l) for an expected maximum system size ``n``.

    The remaining buffer bounds are taken from ``base`` (default:
    :class:`LpbcastConfig` defaults), with ``view_max`` and ``fanout``
    replaced by the recommendation.  ``view_slack_factor`` sets the
    practical view floor ``l >= factor*F`` compensating the view-correlation
    slowdown the paper observed for minimal views (Fig. 5(b)).
    """
    if view_slack_factor < 1.0:
        raise ValueError("view_slack_factor must be >= 1")
    fanout = recommend_fanout(n, target_fraction, max_rounds,
                              loss_rate, crash_rate)
    view_size = recommend_view_size(
        n, fanout, lifetime_rounds, partition_probability,
        floor=int(round(view_slack_factor * fanout)),
    )
    base_config = base if base is not None else LpbcastConfig()
    config = base_config.with_overrides(fanout=fanout, view_max=view_size)
    rounds = expected_rounds_to_fraction(
        n, fanout, loss_rate, crash_rate, fraction=target_fraction
    )
    horizon = rounds_until_partition(n, config.view_max, partition_probability)
    return TuningReport(
        n=n,
        fanout=fanout,
        view_size=config.view_max,
        expected_rounds_to_target=rounds if rounds is not None else float("inf"),
        partition_horizon_rounds=horizon,
        config=config,
    )
