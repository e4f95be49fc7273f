"""Churn scripting: joins and voluntary leaves over a run.

The paper assumes subscriptions/unsubscriptions "are rare compared to the
large flow of events" (Sec. 3.1) and describes the join handshake and the
gradual, timestamped unsubscription of Sec. 3.4.  :class:`ChurnScript`
schedules those transitions against a :class:`~repro.sim.round_runner.RoundSimulation`
so integration tests and examples can exercise the full membership
lifecycle: a joiner contacts a member, is gossiped on its behalf, starts
receiving gossip; a leaver's unsubscription spreads and its id drains from
views.  Crashes are faults, not membership: schedule them with a
:class:`~repro.faults.plan.FaultPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..core.ids import ProcessId

NodeFactory = Callable[[ProcessId], object]
"""Builds a protocol node for a joining process id."""


@dataclass(frozen=True)
class JoinAction:
    round: int
    pid: ProcessId
    contact: ProcessId


@dataclass(frozen=True)
class LeaveAction:
    round: int
    pid: ProcessId


class ChurnScript:
    """A declarative schedule of membership transitions.

    Register with ``sim.add_round_hook(script.on_round)``.  Joins create the
    node through ``node_factory``, add it to the simulation and emit its
    subscription request through the simulation's injection queue; leaves
    call ``try_unsubscribe`` (retrying on refusal, Sec. 3.4).
    """

    def __init__(self, node_factory: Optional[NodeFactory] = None) -> None:
        self.node_factory = node_factory
        self.joins: List[JoinAction] = []
        self.leaves: List[LeaveAction] = []
        self._pending_leaves: List[ProcessId] = []
        self.joined: List[ProcessId] = []
        self.left: List[ProcessId] = []

    # -- schedule construction ----------------------------------------------
    def join(self, round_number: int, pid: ProcessId, contact: ProcessId) -> "ChurnScript":
        self.joins.append(JoinAction(round_number, pid, contact))
        return self

    def leave(self, round_number: int, pid: ProcessId) -> "ChurnScript":
        self.leaves.append(LeaveAction(round_number, pid))
        return self

    # -- execution ------------------------------------------------------------
    def on_round(self, round_number: int, sim) -> None:
        now = float(round_number)

        for action in self.joins:
            if action.round == round_number:
                self._apply_join(action, sim, now)

        # Leaves may be refused while the local unSubs buffer is saturated
        # (Sec. 3.4); retry refused leaves every subsequent round.
        due = [a.pid for a in self.leaves if a.round == round_number]
        retries, self._pending_leaves = self._pending_leaves, []
        for pid in due + retries:
            self._apply_leave(pid, sim, now)

    def _apply_join(self, action: JoinAction, sim, now: float) -> None:
        if self.node_factory is None:
            raise RuntimeError("joins scheduled but no node_factory given")
        node = self.node_factory(action.pid)
        sim.add_node(node)
        sim.inject(action.pid, node.start_join(action.contact, now))
        self.joined.append(action.pid)

    def _apply_leave(self, pid: ProcessId, sim, now: float) -> None:
        node = sim.nodes.get(pid)
        if node is None or not sim.alive(pid):
            return
        if node.try_unsubscribe(now):
            self.left.append(pid)
        else:
            self._pending_leaves.append(pid)
