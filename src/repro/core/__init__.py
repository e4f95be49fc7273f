"""lpbcast core: the paper's primary contribution (Sec. 3).

Public surface:

* :class:`~repro.core.node.LpbcastNode` — the protocol state machine.
* :class:`~repro.core.config.LpbcastConfig` — every tunable the paper names.
* Data structures: :class:`~repro.core.view.PartialView`,
  :class:`~repro.core.view.WeightedPartialView`, the bounded buffers, and the
  message records.
"""

from .buffers import (
    CompactEventIdDigest,
    FifoBuffer,
    FrequencyAwareEventBuffer,
    RandomDropBuffer,
)
from .config import (
    LpbcastConfig,
    PAPER_MEASUREMENT_CONFIG,
    PAPER_SIMULATION_CONFIG,
)
from .delivery import FifoDeliveryGate
from .events import Notification, Unsubscription, make_notification
from .ids import EventId, ProcessId
from .message import (
    EchoMessage,
    GossipMessage,
    Outgoing,
    ReadyMessage,
    RetransmitRequest,
    RetransmitResponse,
    SubscriptionAck,
    SubscriptionRequest,
    payload_digest,
)
from .node import DeliveryListener, LpbcastNode, NodeStats
from .retransmit import NotificationArchive, RetransmissionEngine
from .subscription import JoinState, UnsubscriptionBuffer
from .view import PartialView, WeightedPartialView

__all__ = [
    "CompactEventIdDigest",
    "DeliveryListener",
    "EchoMessage",
    "EventId",
    "FifoBuffer",
    "FifoDeliveryGate",
    "FrequencyAwareEventBuffer",
    "GossipMessage",
    "JoinState",
    "LpbcastConfig",
    "LpbcastNode",
    "make_notification",
    "NodeStats",
    "Notification",
    "NotificationArchive",
    "Outgoing",
    "PAPER_MEASUREMENT_CONFIG",
    "PAPER_SIMULATION_CONFIG",
    "PartialView",
    "payload_digest",
    "ProcessId",
    "RandomDropBuffer",
    "ReadyMessage",
    "RetransmissionEngine",
    "RetransmitRequest",
    "RetransmitResponse",
    "SubscriptionAck",
    "SubscriptionRequest",
    "Unsubscription",
    "UnsubscriptionBuffer",
    "WeightedPartialView",
]
