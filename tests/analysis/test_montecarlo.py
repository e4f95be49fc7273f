"""Monte-Carlo validation of the Eq. 4 partition bound."""

import random

import pytest

from repro.analysis import empirical_partition_rate, sample_partition
from repro.metrics.views import weak_components


def _is_partitioned(views) -> bool:
    return len(weak_components(views)) > 1


class TestPartitionDetector:
    def test_connected_chain(self):
        views = {0: [1], 1: [2], 2: []}
        assert not _is_partitioned(views)

    def test_two_islands(self):
        views = {0: [1], 1: [0], 2: [3], 3: [2]}
        assert _is_partitioned(views)

    def test_direction_agnostic(self):
        # One edge in either direction joins components (paper's two-sided
        # obliviousness requirement).
        views = {0: [1], 1: [], 2: [1], 3: [2]}
        assert not _is_partitioned(views)


class TestSampling:
    def test_sample_partition_deterministic_under_seed(self):
        a = [sample_partition(8, 1, random.Random(5)) for _ in range(10)]
        b = [sample_partition(8, 1, random.Random(5)) for _ in range(10)]
        # Same rng object consumed the same way would differ; fresh seeds per
        # call must agree on the first draw.
        assert a[0] == b[0]

    def test_large_view_never_partitions(self):
        rng = random.Random(0)
        assert not any(
            sample_partition(10, 8, rng) for _ in range(200)
        )


class TestBoundValidation:
    def test_order_of_magnitude_at_observable_scale(self):
        # n=10, l=1 partitions often enough to measure; the empirical rate
        # and the analytical per-round bound agree within a small factor.
        empirical, bound = empirical_partition_rate(
            10, 1, trials=4000, rng=random.Random(2)
        )
        assert bound > 0.0
        assert bound / 5 < empirical < bound * 2

    def test_rate_collapses_with_larger_views(self):
        rate_l1, _ = empirical_partition_rate(10, 1, trials=3000,
                                              rng=random.Random(3))
        rate_l2, _ = empirical_partition_rate(10, 2, trials=3000,
                                              rng=random.Random(3))
        assert rate_l2 < rate_l1 / 20

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_partition_rate(10, 1, trials=0)
