"""The membership layer (Sec. 6.2).

"Our membership approach is nevertheless not inherently coupled with our
lpbcast algorithm ... It could thus be encapsulated as a membership layer, on
top of which many gossip-based algorithms, like pbcast, could be deployed.
It would act by adding membership information to gossip messages, and would
provide quasi-independent uniformly distributed views."

:class:`PartialViewMembership` is that layer: it owns the bounded ``view``
and the ``subs``/``unSubs`` buffers, implements Phases I and II of
Figure 1(a) on incoming membership information, and produces the membership
payload for outgoing gossips.  :class:`repro.core.node.LpbcastNode` and
:class:`repro.pbcast.node.PbcastNode` (in partial-view mode) both delegate to
it — the code-level expression of the paper's claim that event dissemination
and membership are separable.

:class:`TotalMembership` is the classical alternative — every process knows
every other process — used by the original pbcast baseline of Fig. 7(a).
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Protocol, Tuple

from ..core.buffers import RandomDropBuffer
from ..core.events import Unsubscription
from ..core.ids import ProcessId
from ..core.subscription import UnsubscriptionBuffer
from ..core.view import PartialView, WeightedPartialView


class MembershipProvider(Protocol):
    """What a gossip protocol needs from its membership."""

    def gossip_targets(self, fanout: int) -> List[ProcessId]:
        """Uniformly random gossip destinations."""
        ...

    def apply_membership(
        self,
        subs: Tuple[ProcessId, ...],
        unsubs: Tuple[Unsubscription, ...],
        now: float,
    ) -> None:
        """Merge membership information piggybacked on an incoming gossip."""
        ...

    def membership_payload(
        self, now: float, advertise_self: bool = True
    ) -> Tuple[Tuple[ProcessId, ...], Tuple[Unsubscription, ...]]:
        """Membership information to piggyback on an outgoing gossip."""
        ...

    def known_processes(self) -> Tuple[ProcessId, ...]:
        ...


class PartialViewMembership:
    """lpbcast's randomized partial-view membership as a reusable layer."""

    def __init__(
        self,
        owner: ProcessId,
        view_max: int,
        subs_max: int,
        unsubs_max: int,
        unsub_ttl: float,
        rng: Optional[random.Random] = None,
        weighted: bool = False,
        initial_view: Iterable[ProcessId] = (),
    ) -> None:
        self.owner = owner
        self.unsub_ttl = unsub_ttl
        self.weighted = weighted
        rng = rng if rng is not None else random.Random()
        view_cls = WeightedPartialView if weighted else PartialView
        self.view = view_cls(owner, view_max, rng)
        for pid in initial_view:
            self.view.add(pid)
        self.view.truncate()
        self.subs: RandomDropBuffer[ProcessId] = RandomDropBuffer(subs_max, rng)
        self.unsubs = UnsubscriptionBuffer(unsubs_max, rng)
        self.unsubscribed = False

    # -- incoming (Figure 1(a), Phases I and II) ----------------------------
    def apply_membership(
        self,
        subs: Tuple[ProcessId, ...],
        unsubs: Tuple[Unsubscription, ...],
        now: float,
    ) -> None:
        # Phase I in one loop.  With no unsubs the buffer is within its
        # bound and truncate would draw nothing: skipping it keeps the bits.
        if unsubs:
            view, buffered, ttl = self.view, self.unsubs, self.unsub_ttl
            in_view, add = view.pids(), buffered.add
            for unsub in unsubs:
                pid, timestamp = unsub
                if now - timestamp >= ttl:
                    continue  # obsolete (Sec. 3.4): not applied or forwarded
                if pid in in_view:  # most name a process this view lacks
                    view.remove(pid)
                add(unsub)
            buffered.truncate()
        self._phase2_subscriptions(subs)

    def _phase2_subscriptions(self, subs: Tuple[ProcessId, ...]) -> None:
        if not subs:
            return  # view/subs already within bounds: no adds, no draws
        # One pass per structure, in the order Figure 1(a) feeds ``subs``.
        #
        # Death-certificate check (implementation note): while a process's
        # unsubscription is buffered locally, stale subscriptions for it
        # recirculating through other processes' ``subs`` buffers must not
        # re-add it, or the "gradual removal ... from local views"
        # (Sec. 3.2) never converges.  The certificate expires with the
        # unsubscription's timestamp (Sec. 3.4), after which a genuine
        # re-subscription is accepted again.
        view = self.view
        added = view.admit(subs, dead=self.unsubs.pids())
        if added:
            # Nothing admitted leaves view and subs within their bounds: the
            # truncate and absorb would draw nothing.
            self.subs.absorb(added + view.truncate())

    # -- outgoing ------------------------------------------------------------
    def membership_payload(
        self, now: float, advertise_self: bool = True
    ) -> Tuple[Tuple[ProcessId, ...], Tuple[Unsubscription, ...]]:
        subs = self.subs
        payload = subs.snapshot()
        if self.weighted and isinstance(self.view, WeightedPartialView):
            # Sec. 6.1: "when constructing subs, a process preferably adds
            # entries from its view with a small weight."
            room = max(0, subs.max_size - len(payload))
            payload += tuple(
                pid for pid in self.view.select_for_subs(room) if pid not in subs
            )
        # Neither ``subs`` nor ``view`` repeats a pid and the view never holds
        # its owner, so the owner sitting in ``subs`` is the only way the
        # payload could carry a duplicate.
        if (advertise_self and not self.unsubscribed
                and not subs.contains_key(self.owner)):
            payload += (self.owner,)
        return payload, self.unsubs.snapshot()

    # -- maintenance -----------------------------------------------------------
    def purge(self, now: float) -> None:
        self.unsubs.purge_obsolete(now, self.unsub_ttl)

    def local_unsubscribe(self, now: float, refusal_threshold: int) -> bool:
        """Sec. 3.4 voluntary leave with saturation refusal."""
        if self.unsubscribed:
            return True
        if len(self.unsubs) >= refusal_threshold:
            return False
        self.unsubs.add(Unsubscription(self.owner, now))
        self.unsubscribed = True
        return True

    # -- queries ---------------------------------------------------------------
    def gossip_targets(self, fanout: int) -> List[ProcessId]:
        return self.view.choose_gossip_targets(fanout)

    def known_processes(self) -> Tuple[ProcessId, ...]:
        return self.view.snapshot()

    def add(self, pid: ProcessId) -> bool:
        added = self.view.add(pid)
        if added:
            self.subs.absorb(self.view.truncate())
        return added

    def remove(self, pid: ProcessId) -> bool:
        return self.view.remove(pid)

    def __contains__(self, pid: object) -> bool:
        return pid in self.view

    def __len__(self) -> int:
        return len(self.view)


class TotalMembership:
    """Complete-view membership: every process knows all others.

    This is the assumption lpbcast removes ("they often rely on the
    assumption that every process knows every other process", Sec. 1); kept
    as the baseline for the Fig. 7(a) comparison and for tests that need a
    ground-truth membership.
    """

    def __init__(
        self,
        owner: ProcessId,
        members: Iterable[ProcessId] = (),
        rng: Optional[random.Random] = None,
    ) -> None:
        self.owner = owner
        self._rng = rng if rng is not None else random.Random()
        self._members = {pid for pid in members if pid != owner}

    def gossip_targets(self, fanout: int) -> List[ProcessId]:
        members = list(self._members)
        if fanout >= len(members):
            return members
        return self._rng.sample(members, fanout)

    def apply_membership(self, subs, unsubs, now: float) -> None:
        for pid in subs:
            if pid != self.owner:
                self._members.add(pid)
        for unsub in unsubs:
            self._members.discard(unsub.pid)

    def membership_payload(self, now: float, advertise_self: bool = True):
        # A total view is maintained out-of-band; nothing to piggyback.
        return (), ()

    def purge(self, now: float) -> None:
        """Nothing to expire in a total view."""

    def known_processes(self) -> Tuple[ProcessId, ...]:
        return tuple(self._members)

    def add(self, pid: ProcessId) -> bool:
        if pid == self.owner or pid in self._members:
            return False
        self._members.add(pid)
        return True

    def remove(self, pid: ProcessId) -> bool:
        if pid in self._members:
            self._members.discard(pid)
            return True
        return False

    def __contains__(self, pid: object) -> bool:
        return pid in self._members

    def __len__(self) -> int:
        return len(self._members)
