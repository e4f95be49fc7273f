"""The wire round trip on the runtime's transport seam, deterministically.

The UDP deployment's ``_carry`` packs messages into frames; here the async
runtime's does the same on virtual time — every surviving message packed
by ``pack_datagrams``, read back by ``decode_frame``, then delivered after
a latency drawn exactly as the default path draws it.  Over the plain fuzz
campaign's 25 scenarios (``repro fuzz --count 25 --seed 2026``) and the
first 10 of the Byzantine and causal campaigns' (``--byzantine``,
``--causal``) the run must be indistinguishable from the default path:
equal counter fingerprints, delivery counts and violations.  The
Byzantine family's double-echo records and the causal family's dependency
tags thus cross the codec on fuzzed specs without the sharded engine.
"""

import pytest

from repro.dst import apply_scenario, generate_spec, spec_seeds
from repro.sim import AsyncGossipRuntime
from repro.wire import decode_frame, pack_datagrams


def _wire_carry(runtime, src, out, copies, delay):
    (datagram,) = pack_datagrams(src, [out.message]).datagrams
    for _ in range(copies):
        sender, (message,) = decode_frame(datagram)
        runtime.sim.schedule(runtime.network.draw_latency() + delay,
                             runtime._deliver, sender, out.destination,
                             message)


FAMILIES = [pytest.param(seed, {}, id=str(seed))
            for seed in spec_seeds(2026, 25)] + [
    pytest.param(seed, {name: True}, id=f"{name}-{seed}")
    for name in ("byzantine", "causal") for seed in spec_seeds(2026, 10)]


@pytest.mark.parametrize("seed, family", FAMILIES)
def test_the_wire_carry_equals_the_default_path(seed, family, monkeypatch):
    spec = generate_spec(seed, max_n=60, max_rounds=40, **family)
    default = apply_scenario(spec, "async")
    monkeypatch.setattr(AsyncGossipRuntime, "_carry", _wire_carry)
    wire = apply_scenario(spec, "async")
    assert wire.deliveries == default.deliveries > 0
    assert wire.fingerprint == default.fingerprint
    assert wire.violations == default.violations
