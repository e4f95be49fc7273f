"""Unified deterministic fault injection and invariant monitoring.

One :class:`FaultPlan` describes a hostile episode (drops, duplicates, delay
spikes, partitions with heal, crash-with-recovery, slow nodes); the same
plan wires into every engine — ``sim.use_fault_plan(plan)`` on the serial
and sharded round engines (bit-identical runs for the same root seed),
``runtime.use_fault_plan(plan)`` on the async runtime and the UDP
deployment built on it.  :class:`DatagramFaultInjector`, a wall-clock
adapter for message faults, is used by no runtime.
:class:`InvariantMonitor` checks the paper's safety properties live while
the faults play out; ``repro fuzz --preset`` soaks the scenario presets.
"""

from .byzantine import equivocated_payload, mutate_message
from .injector import FaultInjector, FaultVerdict, InjectorStats, RoundActions
from .invariants import InvariantMonitor, InvariantViolation, Violation
from .plan import (
    FORGE_SEQ_BASE,
    POISON_BASE,
    CrashFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    EquivocateFault,
    FaultPlan,
    ForgeDigestFault,
    PartitionFault,
    PauseFault,
    PlanCodecError,
    PoisonViewFault,
    ReplayStaleFault,
)
from .wire import DatagramFaultInjector

__all__ = [
    "FORGE_SEQ_BASE",
    "POISON_BASE",
    "CrashFault",
    "DatagramFaultInjector",
    "DelayFault",
    "DropFault",
    "DuplicateFault",
    "EquivocateFault",
    "FaultInjector",
    "FaultPlan",
    "FaultVerdict",
    "ForgeDigestFault",
    "InjectorStats",
    "InvariantMonitor",
    "InvariantViolation",
    "PartitionFault",
    "PauseFault",
    "PlanCodecError",
    "PoisonViewFault",
    "ReplayStaleFault",
    "RoundActions",
    "Violation",
    "equivocated_payload",
    "mutate_message",
]
