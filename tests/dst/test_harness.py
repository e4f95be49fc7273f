"""What ``apply_scenario`` yields, pinned across the engines and families."""

import hashlib

from repro.dst import apply_scenario, generate_spec, spec_seeds
from repro.sim.scenarios import PRESET_NAMES

#: SHA-256 over ``(engine, fingerprint, deliveries, violation invariants)``
#: of every run below: ``spec_seeds(2026, 8)`` from the plain, Byzantine,
#: causal and preset families (presets cycled as a campaign cycles them), on
#: serial, sharded and async, and on columnar where the spec has no
#: Byzantine or causal node and no churn.  Taken at commit a4905e8, before
#: the plain and columnar runs shared one runner.
OUTCOME_SHA256 = (
    "3d8a7cd0be5e932fc47b39ac00c782c116dafe8c88fec9588cb152ccfe4e928a")

FAMILIES = {"plain": {}, "byzantine": {"byzantine": True},
            "causal": {"causal": True}, "preset": None}


def _specs():
    for options in FAMILIES.values():
        for index, seed in enumerate(spec_seeds(2026, 8)):
            if options is None:
                preset = PRESET_NAMES[index % len(PRESET_NAMES)]
                yield generate_spec(seed, preset=preset)
            else:
                yield generate_spec(seed, **options)


def test_outcomes_are_pinned():
    rows = []
    for spec in _specs():
        engines = ["serial", "sharded", "async"]
        if not (spec.double_echo or spec.causal or spec.joins or spec.leaves):
            engines.append("columnar")
        for engine in engines:
            outcome = apply_scenario(spec, engine)
            rows.append((engine, outcome.fingerprint, outcome.deliveries,
                         [v.invariant for v in outcome.violations]))
    assert len(rows) == 108
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == OUTCOME_SHA256
