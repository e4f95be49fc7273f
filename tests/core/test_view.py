"""Tests for partial views and the weighted-view heuristic (Sec. 6.1)."""

import random

import pytest

from repro.core.view import PartialView, WeightedPartialView


class TestPartialView:
    def test_never_contains_owner(self):
        view = PartialView(owner=1, max_size=5, rng=random.Random(0))
        assert not view.add(1)
        assert 1 not in view

    def test_add_and_contains(self):
        view = PartialView(1, 5, random.Random(0))
        assert view.add(2)
        assert 2 in view
        assert not view.add(2)  # duplicate
        assert len(view) == 1

    def test_remove(self):
        view = PartialView(1, 5, random.Random(0))
        view.add(2)
        assert view.remove(2)
        assert not view.remove(2)
        assert 2 not in view

    def test_truncate_bounds_and_returns_evicted(self):
        view = PartialView(0, 3, random.Random(0))
        for pid in range(1, 11):
            view.add(pid)
        evicted = view.truncate()
        assert len(view) == 3
        assert len(evicted) == 7
        assert set(evicted) | set(view) == set(range(1, 11))

    def test_eviction_uniform_over_entries(self):
        survival = {pid: 0 for pid in range(1, 6)}
        for seed in range(500):
            view = PartialView(0, 1, random.Random(seed))
            for pid in range(1, 6):
                view.add(pid)
            view.truncate()
            survival[next(iter(view))] += 1
        # Every entry should survive sometimes (uniform truncation).
        assert all(count > 50 for count in survival.values())

    def test_choose_gossip_targets_distinct(self):
        view = PartialView(0, 10, random.Random(0))
        for pid in range(1, 11):
            view.add(pid)
        targets = view.choose_gossip_targets(4)
        assert len(targets) == 4
        assert len(set(targets)) == 4

    def test_choose_gossip_targets_small_view(self):
        view = PartialView(0, 10, random.Random(0))
        view.add(1)
        assert view.choose_gossip_targets(3) == [1]

    def test_choose_gossip_targets_empty_view(self):
        view = PartialView(0, 10, random.Random(0))
        assert view.choose_gossip_targets(3) == []

    def test_select_for_subs(self):
        view = PartialView(0, 10, random.Random(0))
        for pid in range(1, 6):
            view.add(pid)
        selected = view.select_for_subs(3)
        assert len(selected) == 3
        assert set(selected) <= set(range(1, 6))

    def test_snapshot_is_immutable_copy(self):
        view = PartialView(0, 5, random.Random(0))
        view.add(1)
        snap = view.snapshot()
        view.add(2)
        assert snap == (1,)

    def test_clear(self):
        view = PartialView(0, 5, random.Random(0))
        view.add(1)
        view.clear()
        assert len(view) == 0

    def test_negative_max_rejected(self):
        with pytest.raises(ValueError):
            PartialView(0, -1)


class TestWeightedPartialView:
    def test_weights_start_at_zero(self):
        view = WeightedPartialView(0, 5, random.Random(0))
        view.add(1)
        assert view.weight_of(1) == 0

    def test_note_awareness_increments(self):
        view = WeightedPartialView(0, 5, random.Random(0))
        view.add(1)
        view.note_awareness(1)
        view.note_awareness(1)
        assert view.weight_of(1) == 2

    def test_note_awareness_ignores_unknown(self):
        view = WeightedPartialView(0, 5, random.Random(0))
        view.note_awareness(9)
        assert view.weight_of(9) == 0

    def test_truncation_evicts_heaviest(self):
        view = WeightedPartialView(0, 2, random.Random(0))
        for pid in (1, 2, 3):
            view.add(pid)
        view.note_awareness(2)
        view.note_awareness(2)
        evicted = view.truncate()
        assert evicted == [2]
        assert set(view) == {1, 3}

    def test_truncation_tie_break_random(self):
        evicted_counts = {1: 0, 2: 0, 3: 0}
        for seed in range(300):
            view = WeightedPartialView(0, 2, random.Random(seed))
            for pid in (1, 2, 3):
                view.add(pid)
            evicted_counts[view.truncate()[0]] += 1
        assert all(count > 30 for count in evicted_counts.values())

    def test_select_for_subs_prefers_light_entries(self):
        view = WeightedPartialView(0, 5, random.Random(0))
        for pid in (1, 2, 3, 4):
            view.add(pid)
        for _ in range(3):
            view.note_awareness(1)
            view.note_awareness(2)
        selected = view.select_for_subs(2)
        assert set(selected) == {3, 4}

    def test_remove_forgets_weight(self):
        view = WeightedPartialView(0, 5, random.Random(0))
        view.add(1)
        view.note_awareness(1)
        view.remove(1)
        view.add(1)
        assert view.weight_of(1) == 0

    def test_weighted_view_still_excludes_owner(self):
        view = WeightedPartialView(7, 5, random.Random(0))
        assert not view.add(7)


class TestAdmit:
    """Phase 2's adds as one pass (``tests/membership/test_bulk_phase2.py``
    compares it with the per-element loop draw for draw)."""

    def test_returns_what_it_added_in_order(self):
        view = PartialView(0, 3, random.Random(0))
        view.add(5)
        assert view.admit([7, 0, 5, 9, 7, 11]) == [7, 9, 11]
        assert tuple(view) == (5, 7, 9, 11)          # not truncated
        assert view.remove(9) and tuple(view) == (5, 7, 11)

    def test_dead_is_consulted_only_when_it_holds_something(self):
        class Certificates(dict):
            lookups = 0

            def __contains__(self, pid):
                Certificates.lookups += 1
                return super().__contains__(pid)

        view = PartialView(0, 10, random.Random(0))
        dead = Certificates()
        assert view.admit([1, 2], dead) == [1, 2] and Certificates.lookups == 0
        dead[3] = 0.0
        assert view.admit([3, 4], dead) == [4] and Certificates.lookups == 2

    def test_weighted_notes_awareness_for_known_and_repeated(self):
        view = WeightedPartialView(0, 10, random.Random(0))
        view.add(5)
        assert view.admit([5, 6, 6, 0, 8], {8: 0.0}.keys()) == [6]
        assert (view.weight_of(5), view.weight_of(6)) == (1, 1)
        assert 8 not in view and 0 not in view
