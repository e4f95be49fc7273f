"""Tests for the buffer-bound reliability model."""

import pytest

from repro.analysis.buffers import (
    id_survival_rounds,
    predicted_reliability,
    predicted_reliability_curve,
    required_buffer_size,
)


class TestSurvival:
    def test_linear_in_buffer(self):
        assert id_survival_rounds(60, 10.0) == 6.0
        assert id_survival_rounds(120, 10.0) == 12.0

    def test_validation(self):
        with pytest.raises(ValueError):
            id_survival_rounds(-1, 10.0)
        with pytest.raises(ValueError):
            id_survival_rounds(60, 0.0)


class TestPredictedReliability:
    def test_monotone_in_buffer_size(self):
        values = [
            predicted_reliability(125, 3, size, publish_rate=10.0)
            for size in (5, 10, 20, 40, 60, 120)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_fig6b_shape(self):
        # Starved buffers: poor reliability; generous: near 1.
        starved = predicted_reliability(125, 3, 5, publish_rate=10.0)
        generous = predicted_reliability(125, 3, 120, publish_rate=10.0)
        assert starved < 0.5
        assert generous > 0.95

    def test_monotone_in_load(self):
        light = predicted_reliability(125, 3, 40, publish_rate=5.0)
        heavy = predicted_reliability(125, 3, 40, publish_rate=20.0)
        assert heavy < light

    def test_unbounded_buffer_gives_full_reliability(self):
        assert predicted_reliability(
            125, 3, 10_000, publish_rate=1.0
        ) == pytest.approx(1.0, abs=1e-6)

    def test_curve_helper(self):
        curve = predicted_reliability_curve(125, 3, [10, 60], 10.0)
        assert [size for size, _ in curve] == [10, 60]
        assert curve[0][1] < curve[1][1]


class TestRequiredBufferSize:
    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="publish_rate must be positive"):
            required_buffer_size(100, 3, rate)

    def test_sizing_consistent_with_prediction(self):
        size = required_buffer_size(125, 3, publish_rate=10.0,
                                    target_reliability=0.95)
        achieved = predicted_reliability(125, 3, size, publish_rate=10.0)
        assert achieved >= 0.95

    def test_scales_with_load(self):
        light = required_buffer_size(125, 3, publish_rate=5.0)
        heavy = required_buffer_size(125, 3, publish_rate=20.0)
        assert heavy > light
        assert heavy == pytest.approx(4 * light, rel=0.3)

    def test_higher_fanout_needs_smaller_buffer(self):
        slow = required_buffer_size(125, 3, publish_rate=10.0)
        fast = required_buffer_size(125, 6, publish_rate=10.0)
        assert fast <= slow

    @pytest.mark.slow
    def test_unreachable_target(self):
        # F=1 at 49% loss crawls: 99.9% coverage is beyond the analysis
        # horizon, so no finite buffer recommendation is possible.
        with pytest.raises(ValueError, match="unreachable"):
            required_buffer_size(1000, 1, publish_rate=10.0,
                                 loss_rate=0.49, target_reliability=0.999)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            required_buffer_size(125, 3, publish_rate=10.0,
                                 target_reliability=0.0)
