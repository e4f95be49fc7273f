"""The infection Markov chain of Sec. 4.2 (Eqs. 1–3).

Equation 1 lower-bounds the probability that one gossip message infects a
given susceptible process:

    p = [1 - C(n-2,l)/C(n-1,l)] * (F/l) * (1-ε) * (1-τ)
      = (l/(n-1)) * (F/l) * (1-ε) * (1-τ)
      = (F/(n-1)) * (1-ε) * (1-τ)

— a conjunction of "the gossiper knows the target" (l/(n-1)), "the target is
chosen among the F" (F/l), "the message is not lost" (1-ε), "the target does
not crash" (1-τ).  Under the uniform-view assumption the view size ``l``
cancels: this independence of ``l`` is the paper's central analytical claim.

Equation 2 then gives the round-to-round transition: with ``i`` infected
processes and ``q = 1 - p``, each of the ``n - i`` susceptible processes is
infected independently with probability ``1 - q^i``, so

    p_ij = C(n-i, j-i) (1-q^i)^{j-i} q^{i(n-j)}        for j >= i

i.e. the number of *new* infections is Binomial(n-i, 1-q^i).  Equation 3
propagates the distribution of ``s_r`` from ``s_0 = 1``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
from scipy import stats as scipy_stats

from ..sim.network import PAPER_CRASH_RATE, PAPER_LOSS_RATE


def infection_probability(
    n: int,
    fanout: int,
    loss_rate: float = PAPER_LOSS_RATE,
    crash_rate: float = PAPER_CRASH_RATE,
) -> float:
    """Equation 1: per-message infection probability ``p`` (independent of l)."""
    if n < 2:
        raise ValueError("need at least two processes")
    if fanout < 1:
        raise ValueError("fanout must be at least 1")
    if fanout > n - 1:
        raise ValueError(f"fanout {fanout} exceeds the n - 1 = {n - 1} "
                         "other processes")
    if not 0 <= loss_rate < 1:
        raise ValueError("loss_rate (epsilon) must be in [0, 1)")
    if not 0 <= crash_rate < 1:
        raise ValueError("crash_rate (tau) must be in [0, 1)")
    return (fanout / (n - 1)) * (1.0 - loss_rate) * (1.0 - crash_rate)


class InfectionMarkovChain:
    """Distribution of the number of infected processes per round (Eqs. 2–3)."""

    def __init__(
        self,
        n: int,
        fanout: int,
        loss_rate: float = PAPER_LOSS_RATE,
        crash_rate: float = PAPER_CRASH_RATE,
        mass_cutoff: float = 1e-14,
    ) -> None:
        self.n = n
        self.fanout = fanout
        self.p = infection_probability(n, fanout, loss_rate, crash_rate)
        self.q = 1.0 - self.p
        self.mass_cutoff = mass_cutoff

    # -- one-step dynamics ---------------------------------------------------
    def transition_probability(self, i: int, j: int) -> float:
        """Equation 2: P(s_{r+1} = j | s_r = i)."""
        if not 1 <= i <= self.n or j < i or j > self.n:
            return 0.0
        infect_prob = 1.0 - self.q**i
        return float(scipy_stats.binom.pmf(j - i, self.n - i, infect_prob))

    def step(self, distribution: np.ndarray) -> np.ndarray:
        """Propagate a distribution over {0..n} one round forward."""
        n = self.n
        result = np.zeros(n + 1)
        result[0] = distribution[0]  # an extinct epidemic stays extinct
        for i in range(1, n + 1):
            mass = distribution[i]
            if mass <= self.mass_cutoff:
                continue
            susceptible = n - i
            if susceptible == 0:
                result[n] += mass
                continue
            infect_prob = 1.0 - self.q**i
            newly = np.arange(susceptible + 1)
            pmf = scipy_stats.binom.pmf(newly, susceptible, infect_prob)
            result[i : n + 1] += mass * pmf
        return result

    # -- multi-round queries ---------------------------------------------------
    def initial_distribution(self) -> np.ndarray:
        """Equation 3 base case: P(s_0 = 1) = 1."""
        distribution = np.zeros(self.n + 1)
        distribution[1] = 1.0
        return distribution

    def round_distributions(self, rounds: int) -> np.ndarray:
        """Array of shape (rounds+1, n+1): row r is the law of s_r."""
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        history = np.zeros((rounds + 1, self.n + 1))
        history[0] = self.initial_distribution()
        for r in range(rounds):
            history[r + 1] = self.step(history[r])
        return history

    def expected_curve(self, rounds: int) -> List[float]:
        """E[s_r] for r = 0..rounds — the curves plotted in Figs. 2 and 3(a)."""
        history = self.round_distributions(rounds)
        support = np.arange(self.n + 1)
        return [float(row @ support) for row in history]

    def rounds_to_fraction(
        self, fraction: float = 0.99, max_rounds: int = 100
    ) -> Optional[int]:
        """First round r with E[s_r] >= fraction·n (Fig. 3(b) uses 0.99)."""
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        target = fraction * self.n
        distribution = self.initial_distribution()
        support = np.arange(self.n + 1)
        for r in range(max_rounds + 1):
            if float(distribution @ support) >= target:
                return r
            distribution = self.step(distribution)
        return None

    def atomicity_probability(self, rounds: int) -> float:
        """P(s_rounds = n): probability every process was infected."""
        history = self.round_distributions(rounds)
        return float(history[-1][self.n])
