"""Tests for the infection Markov chain (Eqs. 1–3)."""

import numpy as np
import pytest

from repro.analysis import InfectionMarkovChain, infection_probability


class TestEquation1:
    def test_closed_form(self):
        # p = F/(n-1) (1-eps)(1-tau)
        p = infection_probability(126, 3, loss_rate=0.05, crash_rate=0.01)
        assert p == pytest.approx((3 / 125) * 0.95 * 0.99)

    def test_independent_of_view_size(self):
        # Eq. 1's central point: l cancels out — there is no l parameter.
        p1 = infection_probability(100, 4)
        p2 = infection_probability(100, 4)
        assert p1 == p2

    def test_monotone_in_fanout(self):
        assert infection_probability(100, 4) > infection_probability(100, 3)

    def test_decreasing_in_system_size(self):
        assert infection_probability(100, 3) > infection_probability(200, 3)

    def test_losses_reduce_p(self):
        assert infection_probability(100, 3, loss_rate=0.0, crash_rate=0.0) > \
            infection_probability(100, 3, loss_rate=0.2, crash_rate=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            infection_probability(1, 3)
        with pytest.raises(ValueError):
            infection_probability(10, 0)
        with pytest.raises(ValueError):
            infection_probability(10, 3, loss_rate=1.0)
        with pytest.raises(ValueError):
            infection_probability(10, 3, crash_rate=-0.1)

    @pytest.mark.parametrize("n, fanout", [(2, 2), (10, 10), (10, 11)])
    def test_fanout_beyond_the_other_processes(self, n, fanout):
        # A process has only n - 1 others to gossip to; p would exceed 1.
        with pytest.raises(ValueError, match="fanout"):
            infection_probability(n, fanout)
        assert infection_probability(n, n - 1, 0.0, 0.0) == 1.0


class TestMarkovChain:
    def test_initial_distribution(self):
        chain = InfectionMarkovChain(50, 3)
        dist = chain.initial_distribution()
        assert dist[1] == 1.0
        assert dist.sum() == pytest.approx(1.0)

    def test_distributions_remain_normalized(self):
        chain = InfectionMarkovChain(50, 3)
        history = chain.round_distributions(8)
        for row in history:
            assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_infection_monotone_in_expectation(self):
        chain = InfectionMarkovChain(80, 3)
        curve = chain.expected_curve(10)
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_everyone_infected_eventually(self):
        chain = InfectionMarkovChain(60, 3)
        curve = chain.expected_curve(15)
        assert curve[-1] == pytest.approx(60, rel=1e-3)

    def test_transition_probability_rows_sum_to_one(self):
        chain = InfectionMarkovChain(20, 3)
        for i in (1, 5, 19):
            total = sum(chain.transition_probability(i, j) for j in range(21))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_no_backward_transitions(self):
        chain = InfectionMarkovChain(20, 3)
        assert chain.transition_probability(5, 4) == 0.0

    def test_absorbing_full_infection(self):
        chain = InfectionMarkovChain(20, 3)
        assert chain.transition_probability(20, 20) == pytest.approx(1.0)

    def test_higher_fanout_fewer_rounds(self):
        # Fig. 2: increasing F decreases rounds-to-full-infection.
        rounds = [
            InfectionMarkovChain(125, F).rounds_to_fraction(0.99)
            for F in (3, 4, 5, 6)
        ]
        assert rounds == sorted(rounds, reverse=True)
        assert rounds[0] > rounds[-1]

    def test_rounds_grow_slowly_with_n(self):
        # Fig. 3(b): logarithmic growth — doubling n adds ~1 round or less.
        r125 = InfectionMarkovChain(125, 3).rounds_to_fraction(0.99)
        r250 = InfectionMarkovChain(250, 3).rounds_to_fraction(0.99)
        r500 = InfectionMarkovChain(500, 3).rounds_to_fraction(0.99)
        assert r125 <= r250 <= r500
        assert r500 - r125 <= 3

    def test_atomicity_probability_increases(self):
        chain = InfectionMarkovChain(40, 3)
        assert chain.atomicity_probability(12) > chain.atomicity_probability(6)

    def test_rounds_to_fraction_validation(self):
        chain = InfectionMarkovChain(20, 3)
        with pytest.raises(ValueError):
            chain.rounds_to_fraction(0.0)

    def test_round_distributions_validation(self):
        with pytest.raises(ValueError):
            InfectionMarkovChain(20, 3).round_distributions(-1)

    def test_step_preserves_extinction(self):
        chain = InfectionMarkovChain(10, 3)
        dist = np.zeros(11)
        dist[0] = 1.0
        stepped = chain.step(dist)
        assert stepped[0] == pytest.approx(1.0)
