"""lpbcast configuration.

Collects every protocol parameter the paper names, with the defaults used in
its analysis and experiments (Sec. 4.1, Sec. 5): fanout ``F = 3``, view bound
``l``, the per-list maxima ``|L|m`` and the gossip period ``T``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class LpbcastConfig:
    """Parameters of one lpbcast instance.

    Attributes mirror the paper's notation:

    * ``fanout`` — F, gossip targets per period (default 3, Sec. 4.3).
    * ``view_max`` — l = \\|view\\|m, the partial-view bound.
    * ``events_max`` — \\|events\\|m, pending-notification buffer bound.
    * ``event_ids_max`` — \\|eventIds\\|m, the delivered-id bound (the
      "notification list size" swept in Fig. 6(b); 60 in Fig. 6(a)): how
      many ids the per-sender store of Sec. 3.2 holds *out of order* (an
      in-sequence prefix is one frontier), and one digest entry names as new.
    * ``subs_max`` / ``unsubs_max`` — \\|subs\\|m / \\|unSubs\\|m.
    * ``gossip_period`` — T, in simulated time units (the round runner treats
      one round as one period).
    * ``unsub_ttl`` — obsolescence deadline for timestamped unsubscriptions
      (Sec. 3.4).
    * ``unsub_refusal_threshold`` — "the unsubscription of any process is
      refused as long as the local unsubscription buffer of the process
      exceeds a given size" (Sec. 3.4).
    * ``membership_period`` — k: piggyback membership lists only on every
      k-th gossip (Sec. 6.1 studies k > 1, which *hurts*), and
      ``membership_boost`` — send membership-only gossips this many extra
      times per period (Sec. 6.1: gossiping membership more often helps).
    * ``weighted_views`` — enable the Sec. 6.1 awareness-weight heuristic.
    * ``weighted_events`` — apply the same scheme to the ``events`` buffer
      (Sec. 6.1: "A similar scheme could also be applied to events and
      eventIds"): overflow drops the most-duplicated staged notification
      instead of a uniformly random one.
    * ``retransmissions`` — enable digest-driven gossip pull (off in the
      paper's measurements, Sec. 5.2).
    * ``push_back`` — the *gossip push* repair of Sec. 2.3 footnote 5
      ("gossip senders are updated by gossip receivers with messages missing
      in the digest gossiped by the former one", as in rpbcast): on
      receiving a gossip, send the sender any retransmittable notifications
      its digest lacks.  Combine with ``retransmissions`` for the
      anti-entropy (symmetric push/pull) variant.
    * ``digest_implies_delivery`` — the paper's measurement shortcut: an
      unknown id arriving in a gossip's ``eventIds`` digest counts as the
      notification having been received (Sec. 5.2: "once a gossip receiver
      has received the identifier of a notification, the notification itself
      is assumed to have been received").  This is what makes repetitions
      effectively unlimited (Sec. 4: digests keep spreading an event's
      identity every round while it stays buffered) and is required to match
      the analysis; mutually exclusive with ``retransmissions``.
    * ``archive_max`` — bound of the older-notification buffer kept "only ...
      to satisfy retransmission requests" (Sec. 3.2).
    * ``retransmit_request_max`` — cap on ids solicited per incoming digest.
    """

    fanout: int = 3
    view_max: int = 25
    events_max: int = 30
    event_ids_max: int = 60
    subs_max: int = 15
    unsubs_max: int = 15
    gossip_period: float = 1.0
    unsub_ttl: float = 20.0
    unsub_refusal_threshold: int = 10
    membership_period: int = 1
    membership_boost: int = 0
    weighted_views: bool = False
    weighted_events: bool = False
    retransmissions: bool = False
    push_back: bool = False
    digest_implies_delivery: bool = True
    archive_max: int = 120
    retransmit_request_max: int = 20
    join_timeout: float = 5.0
    #: Byzantine-tolerant delivery variant: hold payloads until a sampled
    #: Echo quorum and then a Ready quorum confirm a single digest per event
    #: id (Bracha-style double echo over the partial view, cf. "Scalable
    #: Byzantine Reliable Broadcast").  Requires actual payload transfer, so
    #: it is incompatible with ``digest_implies_delivery`` and with the
    #: repair schemes that assume immediate delivery.
    double_echo: bool = False
    #: Echo/Ready sample size (targets drawn from the partial view).
    echo_fanout: int = 3
    #: Distinct echo senders required before emitting Ready.
    echo_threshold: int = 2
    #: Distinct ready senders required before delivering.
    ready_threshold: int = 2
    #: Bound on payloads held pending quorum (oldest evicted first).
    echo_pending_max: int = 60
    #: Causal-delivery mode: events carry the publisher's per-origin
    #: delivered frontier as compact vector-interval metadata and a hold-back
    #: queue releases them only once every named dependency (and the
    #: origin's previous event) has been delivered locally.  Requires real
    #: payload transfer (``digest_implies_delivery=False`` — a digest-implied
    #: delivery carries no dependency metadata) and is incompatible with the
    #: quorum-gated ``double_echo`` variant, which orders delivery its own
    #: way.  Combine with ``retransmissions`` for dependency recovery: a
    #: missing dependency is solicited from the gossip sender like any
    #: digest gap.
    causal_delivery: bool = False
    #: Bound on notifications held back awaiting dependencies; on overflow
    #: the oldest held notification is evicted *undelivered* (completeness
    #: is traded, never causal order — the paper's bounded-buffer philosophy
    #: applied to the hold-back queue).
    causal_holdback_max: int = 64

    def __post_init__(self) -> None:
        if self.fanout < 1:
            raise ValueError("fanout (F) must be at least 1")
        if self.view_max < self.fanout:
            # "F <= l must always be ensured" (Sec. 4.3).
            raise ValueError(
                f"view_max (l={self.view_max}) must be >= fanout (F={self.fanout})"
            )
        for name in ("events_max", "event_ids_max", "subs_max", "unsubs_max",
                     "archive_max", "retransmit_request_max"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.gossip_period <= 0:
            raise ValueError("gossip_period (T) must be positive")
        if self.unsub_ttl <= 0:
            raise ValueError("unsub_ttl must be positive")
        if self.membership_period < 1:
            raise ValueError("membership_period (k) must be >= 1")
        if self.membership_boost < 0:
            raise ValueError("membership_boost must be non-negative")
        if self.unsub_refusal_threshold < 1:
            raise ValueError("unsub_refusal_threshold must be >= 1")
        if self.join_timeout <= 0:
            raise ValueError("join_timeout must be positive")
        if self.push_back and self.digest_implies_delivery:
            raise ValueError(
                "push_back repairs actual payload transfer; it requires "
                "digest_implies_delivery=False (the digest shortcut makes "
                "payload repair meaningless)"
            )
        if self.retransmissions and self.digest_implies_delivery:
            raise ValueError(
                "retransmissions and digest_implies_delivery are mutually "
                "exclusive: the latter is the paper's measurement shortcut "
                "('once a gossip receiver has received the identifier of a "
                "notification, the notification itself is assumed to have "
                "been received', Sec. 5.2), the former actually fetches the "
                "payload; enable at most one"
            )

        if self.echo_fanout < 1:
            raise ValueError("echo_fanout must be at least 1")
        if self.echo_threshold < 1 or self.ready_threshold < 1:
            raise ValueError("echo/ready thresholds must be at least 1")
        if self.echo_pending_max < 1:
            raise ValueError("echo_pending_max must be at least 1")
        if self.double_echo:
            if self.digest_implies_delivery:
                raise ValueError(
                    "double_echo holds payloads until quorum; the "
                    "digest_implies_delivery shortcut (deliver on id alone) "
                    "defeats it — set digest_implies_delivery=False"
                )
            if self.retransmissions or self.push_back:
                raise ValueError(
                    "double_echo is incompatible with retransmissions/"
                    "push_back: both repair schemes hand payloads straight "
                    "to delivery, bypassing the echo quorum"
                )
        if self.causal_holdback_max < 1:
            raise ValueError("causal_holdback_max must be at least 1")
        if self.causal_delivery:
            if self.digest_implies_delivery:
                raise ValueError(
                    "causal_delivery orders real payloads; the "
                    "digest_implies_delivery shortcut (deliver on id alone) "
                    "carries no dependency metadata — set "
                    "digest_implies_delivery=False"
                )
            if self.double_echo:
                raise ValueError(
                    "causal_delivery is incompatible with double_echo: the "
                    "hold-back queue and the echo quorum are mutually "
                    "exclusive delivery disciplines"
                )

    def with_overrides(self, **changes) -> "LpbcastConfig":
        """Return a copy with the given fields replaced (validated again)."""
        return replace(self, **changes)


#: Configuration used by the paper's dissemination experiments (Sec. 5.1).
PAPER_SIMULATION_CONFIG = LpbcastConfig(fanout=3, view_max=25)

#: Configuration of the Fig. 6(a) measurement runs: F=3, |eventIds|m = 60.
PAPER_MEASUREMENT_CONFIG = LpbcastConfig(
    fanout=3, view_max=15, event_ids_max=60, events_max=60
)
