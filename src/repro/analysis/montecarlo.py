"""Monte-Carlo validation of the partitioning analysis (Eq. 4).

At the paper's settings Ψ is ~1e-17 — unobservable empirically.  But the
formula can be validated where it predicts *observable* rates: tiny systems
with minimal views (e.g. n = 8, l = 1) partition with probability around
1e-2 per draw.  :func:`empirical_partition_rate` samples fresh uniform view
assignments and counts partitions in the paper's sense (Sec. 4.4: mutually
oblivious subsets — weak connectivity of the knows-about graph, by the
union-find :func:`~repro.metrics.views.find_partitions` runs too), so the
per-round bound ΣΨ can be checked against reality.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from ..metrics.views import weak_components
from .partition import partition_probability_per_round


def sample_partition(n: int, l: int, rng: random.Random) -> bool:
    """Draw one uniform view assignment; return whether it is partitioned."""
    pids = list(range(n))
    views = {}
    for pid in pids:
        others = [p for p in pids if p != pid]
        views[pid] = rng.sample(others, min(l, len(others)))
    return len(weak_components(views)) > 1


def empirical_partition_rate(
    n: int,
    l: int,
    trials: int = 10_000,
    rng: Optional[random.Random] = None,
) -> Tuple[float, float]:
    """(empirical rate, analytical per-round bound ΣΨ) for comparison.

    The bound counts partitions via specific subset sizes and over-counts
    multi-way splits, so ``empirical <= bound`` need not hold exactly — but
    the two should agree in order of magnitude wherever the rate is
    observable, which is what the validation test asserts.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = rng if rng is not None else random.Random()
    hits = sum(1 for _ in range(trials) if sample_partition(n, l, rng))
    return hits / trials, partition_probability_per_round(n, l)
