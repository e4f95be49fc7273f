"""repro — a reproduction of *Lightweight Probabilistic Broadcast* (lpbcast).

Eugster, Guerraoui, Handurukande, Kermarrec, Kouznetsov — DSN 2001.

Subpackages
-----------
``repro.core``
    The lpbcast protocol: partial views, bounded buffers, gossip node.
``repro.membership``
    The separable partial-view membership layer (Sec. 6.2), weighted views
    (Sec. 6.1) and prioritary-process bootstrap (Sec. 4.4).
``repro.pbcast``
    The Bimodal Multicast baseline (Birman et al.) with pluggable membership.
``repro.sim``
    Synchronous-round and discrete-event simulators, network/failure models,
    workloads and churn.
``repro.analysis``
    The paper's stochastic analysis: infection Markov chain (Eqs. 1–3),
    expected-infection recursion (Appendix A), partition probability
    (Eqs. 4–5).
``repro.metrics``
    Infection curves, delivery reliability (1-β), view-graph statistics.
"""

from .core import (
    EventId,
    GossipMessage,
    LpbcastConfig,
    LpbcastNode,
    Notification,
    PartialView,
    ProcessId,
    WeightedPartialView,
)

__version__ = "1.0.0"

__all__ = [
    "EventId",
    "GossipMessage",
    "LpbcastConfig",
    "LpbcastNode",
    "Notification",
    "PartialView",
    "ProcessId",
    "WeightedPartialView",
    "__version__",
]
