"""Application of Byzantine mutation specs to in-flight messages.

A :class:`~repro.faults.injector.FaultInjector` verdict may carry a
*mutation spec* — a small plain tuple describing how the (Byzantine) sender
lies on this particular copy of the message.  The spec is drawn
coordinator-side from the seeded fault stream; this module applies it at
delivery time, which is the one place both round engines hold the actual
message object (the sharded coordinator routes payload-free refs, so the
spec rides the ref and the owning shard performs the rewrite).

:func:`mutate_message` is pure — it returns a *new* message and never
touches the original, mirroring the immutable-record discipline of
:mod:`repro.core.message` — and total: specs only apply to
:class:`~repro.core.message.GossipMessage` (the paper's only lying surface);
any other message type passes through unchanged, so the injector can draw
verdicts without knowing message types and both engines stay bit-identical.

Spec vocabulary (first element selects the behavior):

* ``("equivocate", variants)`` — rewrite the payloads of the sender's *own*
  events (``event_id.origin == src``), choosing the variant by destination
  (``dst % variants``), so different receivers get conflicting payloads for
  the same event id.
* ``("forge", victim, seq)`` — write ``seq`` into the victim's digest entry
  as an extra (a new entry when the digest has none for the victim),
  advertising an event the victim never published.
* ``("poison", pid)`` — append a fabricated process id to the gossip's
  subscriptions, injecting a ghost member into receivers' views.

Replay (the fourth Byzantine behavior) needs no mutation: the engines
schedule a stale copy of the unmodified message via the existing
delayed-fault machinery.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Tuple

from ..core.ids import ProcessId
from ..core.message import GossipMessage


def equivocated_payload(payload, variant: int):
    """The payload an equivocating sender substitutes for ``variant``.

    Variant 0 keeps the original payload (some receivers see the truth —
    the hardest case for agreement checking); higher variants get a tagged
    rewrite that is JSON-stable and never equal to the original.
    """
    if variant == 0:
        return payload
    return {"equivocation": variant, "was": repr(payload)}


def mutate_message(message, spec: Optional[Tuple],
                   dst: ProcessId):
    """Apply a Byzantine mutation spec to one in-flight message copy.

    Returns ``message`` itself when the spec is ``None`` or does not apply
    (non-gossip message, or nothing to rewrite) — callers may rely on
    identity to skip re-encoding.
    """
    if spec is None or not isinstance(message, GossipMessage):
        return message
    kind = spec[0]
    if kind == "equivocate":
        variants = spec[1]
        variant = dst % variants
        rewritten = tuple(
            n._replace(payload=equivocated_payload(n.payload, variant))
            if n.event_id.origin == message.sender and n.payload is not None
            else n
            for n in message.events
        )
        if rewritten == message.events:
            return message
        return replace(message, events=rewritten)
    if kind == "forge":
        victim, seq = spec[1], spec[2]
        digest = {origin: (frontier, extras)
                  for origin, frontier, extras in message.event_ids}
        frontier, extras = digest.get(victim, (0, ()))
        if seq <= frontier or seq in extras:
            return message
        digest[victim] = (frontier, tuple(sorted(extras + (seq,))))
        return replace(message, event_ids=tuple(
            (origin, *entry) for origin, entry in digest.items()))
    if kind == "poison":
        ghost = spec[1]
        if ghost in message.subs:
            return message
        return replace(message, subs=message.subs + (ghost,))
    raise ValueError(f"unknown byzantine mutation spec {spec!r}")
