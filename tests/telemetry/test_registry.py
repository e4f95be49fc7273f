"""Tests for the telemetry registry, trace buffer and shard-merge path."""

import pytest

from repro.core.message import GossipMessage, Outgoing, SubscriptionRequest
from repro.telemetry import Telemetry, TraceBuffer, TraceEvent


class TestCounters:
    def test_labelled_series_are_distinct(self):
        t = Telemetry()
        t.inc("sim.sends", 2, round=1, kind="GossipMessage")
        t.inc("sim.sends", 3, round=2, kind="GossipMessage")
        assert t.counter_value("sim.sends", round=1, kind="GossipMessage") == 2
        assert t.counter_value("sim.sends", round=2, kind="GossipMessage") == 3
        assert t.counter_value("sim.sends", round=9, kind="GossipMessage") == 0

    def test_counter_total_sums_over_labels(self):
        t = Telemetry()
        t.inc("sim.sends", 2, round=1, kind="A")
        t.inc("sim.sends", 3, round=1, kind="B")
        t.inc("sim.sends", 5, round=2, kind="A")
        assert t.counter_total("sim.sends") == 10
        assert t.counter_total("sim.sends", round=1) == 5
        assert t.counter_total("sim.sends", kind="A") == 7

    def test_label_values(self):
        t = Telemetry()
        t.inc("sim.sends", 1, round=3)
        t.inc("sim.sends", 1, round=1)
        t.inc("sim.sends", 1, round=3)
        assert t.label_values("sim.sends", "round") == [1, 3]

    def test_resolved_key_adds_what_inc_adds(self):
        by_name, by_key = Telemetry(), Telemetry()
        by_name.inc("udp.datagrams_sent", 1, pid=4)
        by_name.inc("udp.bytes_sent", 40, pid=4)
        by_name.inc("udp.decode_errors", 1, pid=4)
        sent = by_key.counter_key("udp.datagrams_sent", pid=4)
        sent_bytes = by_key.counter_key("udp.bytes_sent", pid=4)
        errors = by_key.counter_key("udp.decode_errors", pid=4)
        assert by_key.snapshot()["counters"] == {}   # resolving adds nothing
        by_key.add(sent, 1, sent_bytes, 40)
        by_key.add(errors)
        assert by_key.snapshot() == by_name.snapshot()
        assert list(by_key.snapshot()["counters"]) == list(
            by_name.snapshot()["counters"])

    def test_gauge_is_last_write(self):
        t = Telemetry()
        t.set_gauge("sim.alive", 10.0)
        t.set_gauge("sim.alive", 7.0)
        assert t.gauge_value("sim.alive") == 7.0
        assert t.gauge_value("missing") is None

    def test_histogram_stats(self):
        t = Telemetry()
        for v in (1.0, 3.0, 2.0):
            t.observe("time.round", v)
        count, total, minimum, maximum = t.histogram_stats("time.round")
        assert (count, total, minimum, maximum) == (3, 6.0, 1.0, 3.0)
        assert t.histogram_stats("missing") is None

    def test_time_context_manager_observes_elapsed(self):
        t = Telemetry()
        with t.time("time.tick"):
            pass
        count, total, minimum, maximum = t.histogram_stats("time.tick")
        assert count == 1
        assert 0.0 <= minimum <= total

    def test_time_observes_labels_when_the_block_raises(self):
        t = Telemetry()
        with pytest.raises(KeyError):
            with t.time("time.codec", op="decode"):
                raise KeyError("inside")
        assert t.histogram_stats("time.codec", op="decode")[0] == 1

    def test_time_is_a_method_returning_enter_and_exit(self):
        # The ledger's tracer fetches ``Telemetry.__dict__["time"]`` and
        # drives the returned object by hand, around spans of its own.
        t = Telemetry()
        manager = Telemetry.__dict__["time"](t, "time.tick")
        assert manager.__enter__() is None
        assert t.histogram_stats("time.tick") is None
        assert not manager.__exit__(None, None, None)
        assert t.histogram_stats("time.tick")[0] == 1


class TestRecordSends:
    """The fast path books each run of one message object once; its counter
    state, key order included, equals the per-message ``record_send``."""

    A = GossipMessage(1, subs=(2, 3), event_ids=((4, 7, (9,)),))
    B = GossipMessage(1, subs=(5,))

    @staticmethod
    def per_message(batches):
        t = Telemetry()
        for round_no, src, batch in batches:
            for out in batch:
                t.record_send(round_no, src, out)
        return list(t.snapshot()["counters"].items())

    @staticmethod
    def fast(batches):
        t = Telemetry()
        for round_no, src, batch in batches:
            t.record_sends(round_no, src, batch)
        return list(t.snapshot()["counters"].items())

    @pytest.mark.parametrize("messages", [
        [A, A, A],
        [A, B, A],
        [SubscriptionRequest(1), A, A],       # unsized first
        [],
    ], ids=["one-run", "interleaved", "unsized-first", "empty"])
    def test_runs_equal_the_per_message_path(self, messages):
        batch = [Outgoing(dst, message) for dst, message
                 in enumerate(messages, start=10)]
        # Two senders and a second round: cached keys are reused and rebuilt.
        batches = [(3, 1, batch), (3, 2, batch[::-1]), (4, 1, batch)]
        assert self.fast(batches) == self.per_message(batches)
        if messages:
            assert self.fast(batches)          # the batch booked something


class TestTracing:
    def test_emit_is_gated_by_tracing_flag(self):
        t = Telemetry()
        t.emit("send", 1.0, pid=1, peer=2)
        assert len(t.trace) == 0
        t.tracing = True
        t.emit("send", 1.0, pid=1, peer=2)
        assert len(t.trace) == 1

    def test_force_bypasses_gate(self):
        t = Telemetry()
        t.emit("invariant.violation", 3.0, pid=1, force=True,
               invariant="buffer-bounds")
        assert t.trace.of_kind("invariant.violation")[0].data["invariant"] \
            == "buffer-bounds"

    def test_buffer_drops_new_events_past_capacity(self):
        buffer = TraceBuffer(capacity=2)
        for i in range(5):
            buffer.append(TraceEvent(kind="send", at=float(i)))
        assert len(buffer) == 2
        assert buffer.dropped == 3
        assert [e.at for e in buffer] == [0.0, 1.0]  # head kept, tail dropped

    def test_buffer_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

    def test_event_to_dict_is_schema_shaped(self):
        event = TraceEvent(kind="receive", at=2.0, pid=3, peer=4,
                           data={"message": "GossipMessage"})
        d = event.to_dict()
        assert d["type"] == "trace"
        assert d["kind"] == "receive"
        assert d["data"] == {"message": "GossipMessage"}


class TestShardMerge:
    def test_drain_clears_and_absorb_sums(self):
        worker = Telemetry()
        worker.inc("sim.sends", 4, round=1)
        worker.observe("time.tick", 0.5)
        delta = worker.drain_delta()
        assert worker.counter_total("sim.sends") == 0  # drained

        main = Telemetry()
        main.inc("sim.sends", 1, round=1)
        main.absorb_counters(delta)
        assert main.counter_value("sim.sends", round=1) == 5
        assert main.histogram_stats("time.tick")[0] == 1

    def test_absorb_is_order_independent(self):
        def worker_delta(value):
            w = Telemetry()
            w.inc("sim.sends", value, round=1)
            return w.drain_delta()

        a = Telemetry()
        a.absorb_counters(worker_delta(2))
        a.absorb_counters(worker_delta(3))
        b = Telemetry()
        b.absorb_counters(worker_delta(3))
        b.absorb_counters(worker_delta(2))
        assert a.snapshot()["counters"] == b.snapshot()["counters"]

    def test_tagged_trace_merges_in_canonical_order(self):
        worker_a = Telemetry()
        worker_a.tracing = True
        worker_a.trace_tag = (1, 5)
        worker_a.emit("send", 1.0, pid=5)
        worker_b = Telemetry()
        worker_b.tracing = True
        worker_b.trace_tag = (1, 2)
        worker_b.emit("send", 1.0, pid=2)

        main = Telemetry()
        staged = []
        staged.extend(main.absorb_counters(worker_a.drain_delta()))
        staged.extend(main.absorb_counters(worker_b.drain_delta()))
        main.append_trace_ordered(staged)
        assert [e.pid for e in main.trace] == [2, 5]  # sorted by (phase, idx)

    def test_drain_carries_dropped_count(self):
        worker = Telemetry(trace_capacity=1)
        worker.tracing = True
        worker.emit("send", 1.0)
        worker.emit("send", 2.0)
        main = Telemetry()
        main.absorb_counters(worker.drain_delta())
        assert main.trace.dropped == 1
