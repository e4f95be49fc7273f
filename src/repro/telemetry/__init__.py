"""Engine-native observability: metrics, traces and timing profiles.

Every execution path owns a :class:`Telemetry` registry (``sim.telemetry``
on the round engines and the async runtime, ``deployment.telemetry`` on the
UDP runtime) that engines and instruments write into directly — there is no
monkey-patching anywhere in the measurement path, so the counters survive
pickling into shard workers and serial/sharded runs report identical
totals for the same seed.

* :class:`Telemetry` — labelled counters, gauges, histograms, phase timers
  and the bounded trace-event stream.
* :mod:`~repro.telemetry.events` — the structured trace-event model.
* :mod:`~repro.telemetry.exporters` — JSONL, Prometheus text format and
  terminal summaries (``repro trace`` drives these).
* :mod:`~repro.telemetry.schema` — the documented export schema plus
  validators (the CI telemetry-smoke job runs them).

See docs/api.md ("Telemetry & tracing") for the metric names and the
trace-event schema.
"""

from .events import (
    CRASH,
    FAULT_DELAY,
    FAULT_DROP,
    FAULT_DUPLICATE,
    INVARIANT_VIOLATION,
    NET_DROP,
    RECEIVE,
    RECOVERY,
    ROUND_END,
    ROUND_START,
    SEND,
    TRACE_KINDS,
    TraceBuffer,
    TraceEvent,
)
from .fingerprint import (
    CounterRecord,
    counter_fingerprint,
    counter_records,
    diff_counter_records,
)
from .exporters import (
    format_counters,
    format_profile,
    iter_export_records,
    profile_summary,
    prometheus_name,
    to_jsonl,
    to_prometheus,
)
from .registry import LabelKey, Telemetry, labels_of
from .schema import (
    SchemaError,
    validate_export_files,
    validate_jsonl,
    validate_prometheus,
    validate_record,
)

__all__ = [
    "counter_fingerprint",
    "counter_records",
    "CounterRecord",
    "CRASH",
    "diff_counter_records",
    "FAULT_DELAY",
    "FAULT_DROP",
    "FAULT_DUPLICATE",
    "format_counters",
    "format_profile",
    "INVARIANT_VIOLATION",
    "iter_export_records",
    "LabelKey",
    "labels_of",
    "NET_DROP",
    "profile_summary",
    "prometheus_name",
    "RECEIVE",
    "RECOVERY",
    "ROUND_END",
    "ROUND_START",
    "SchemaError",
    "SEND",
    "Telemetry",
    "to_jsonl",
    "to_prometheus",
    "TRACE_KINDS",
    "TraceBuffer",
    "TraceEvent",
    "validate_export_files",
    "validate_jsonl",
    "validate_prometheus",
    "validate_record",
]
