"""Phase II in bulk passes == Phase II element by element, draw for draw.

``PartialViewMembership._phase2_subscriptions`` is three calls on the
structures that own the indices (``view.admit``, ``view.truncate``,
``subs.absorb``).  The per-element loop it replaced is kept here as the
reference: twin layers with identically seeded streams must end with the
same ``view`` and ``subs`` (contents *and* order), the same weights and the
same generator state, whatever the gossip carries.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import Unsubscription
from repro.core.view import WeightedPartialView
from repro.membership import PartialViewMembership

OWNER = 0


def reference_phase2(layer: PartialViewMembership, subs) -> None:
    """Figure 1(a) Phase II spelled one element at a time, as the layer ran
    it before the bulk passes (less two counters nothing read)."""
    if not subs:
        return
    weighted = layer.weighted and isinstance(layer.view, WeightedPartialView)
    view, unsubs, pending, owner = layer.view, layer.unsubs, layer.subs, layer.owner
    for new_sub in subs:
        if new_sub == owner:
            continue
        if new_sub in unsubs:
            continue
        if new_sub in view:
            if weighted:
                view.note_awareness(new_sub)
            continue
        if view.add(new_sub):
            pending.add(new_sub)
    evicted = view.truncate()
    if evicted:
        pending.add_all(evicted)
    pending.truncate()


class CountingRandom(random.Random):
    """A stream that is not *exactly* ``random.Random``: the buffers must
    take their generic per-element path for it (``randrange`` is only ever
    called from there), and the draws are the parent class's."""

    def __init__(self, seed) -> None:
        super().__init__(seed)
        self.randrange_calls = 0

    def randrange(self, *args, **kwargs):
        self.randrange_calls += 1
        return super().randrange(*args, **kwargs)


# A small universe, so candidates collide with the owner, the view, ``subs``,
# ``unSubs`` and each other; bounds from 0 up, so overflow by 0, 1 and many.
pids = st.integers(0, 24)
scenarios = st.fixed_dictionaries({
    "view_max": st.integers(0, 8),
    "subs_max": st.integers(0, 6),
    "initial_view": st.lists(pids, max_size=12),
    "initial_subs": st.lists(pids, max_size=8),
    "dead": st.lists(pids, max_size=4),
    "batches": st.lists(st.lists(pids, max_size=20), min_size=1, max_size=4),
    "seed": st.integers(0, 2**32 - 1),
})


def build(scenario, weighted, rng):
    layer = PartialViewMembership(
        owner=OWNER, view_max=scenario["view_max"], subs_max=scenario["subs_max"],
        unsubs_max=8, unsub_ttl=10.0, rng=rng, weighted=weighted,
        initial_view=scenario["initial_view"])
    layer.subs.add_all(scenario["initial_subs"])
    layer.subs.truncate()
    for pid in scenario["dead"]:
        layer.unsubs.add(Unsubscription(pid, 0.0))
    return layer


def state(layer):
    weights = ([layer.view.weight_of(pid) for pid in layer.view]
               if layer.weighted else None)
    return tuple(layer.view), tuple(layer.subs), weights


def run_twins(scenario, weighted, make_rng):
    """Drive one layer through the bulk passes and its twin through the
    reference, comparing after every gossip; returns both."""
    new = build(scenario, weighted, make_rng(scenario["seed"]))
    old = build(scenario, weighted, make_rng(scenario["seed"]))
    assert state(new) == state(old)
    for batch in scenario["batches"]:
        new.apply_membership(tuple(batch), (), now=1.0)
        reference_phase2(old, tuple(batch))
        assert state(new) == state(old)
        assert new.view._rng.getstate() == old.view._rng.getstate()
        assert len(new.view) <= scenario["view_max"]
        assert len(new.subs) <= scenario["subs_max"]
        assert OWNER not in new.view
        assert not set(scenario["dead"]) & (set(new.view) - set(scenario["initial_view"]))
    # The positions ``absorb`` re-derived are real: every survivor can be
    # found and swap-removed (the failure detector does this to ``subs``).
    for pid in tuple(new.subs):
        assert pid in new.subs
        assert new.subs.discard(pid)
        assert pid not in new.subs
    assert len(new.subs) == 0
    return new, old


class TestBulkPhase2EqualsPerElement:
    @given(scenario=scenarios)
    def test_uniform_view_plain_stream(self, scenario):
        run_twins(scenario, weighted=False, make_rng=random.Random)

    @given(scenario=scenarios)
    def test_weighted_view(self, scenario):
        run_twins(scenario, weighted=True, make_rng=random.Random)

    @given(scenario=scenarios, weighted=st.booleans())
    def test_random_subclass_takes_the_generic_path_and_agrees(
            self, scenario, weighted):
        new, old = run_twins(scenario, weighted, make_rng=CountingRandom)
        # Same number of per-element draws as the reference: nothing was
        # drawn behind ``randrange``'s back by an inlined loop.
        assert new.view._rng.randrange_calls == old.view._rng.randrange_calls
        # ... and the inlined loops a plain stream gets draw the same.
        plain, _ = run_twins(scenario, weighted, make_rng=random.Random)
        assert state(plain) == state(new)
