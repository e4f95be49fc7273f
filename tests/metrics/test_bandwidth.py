"""Tests for protocol-overhead accounting."""

import pytest

from repro.core import LpbcastConfig
from repro.metrics.bandwidth import BandwidthMeter
from repro.sim import RoundSimulation, build_lpbcast_nodes


def build_metered(n=20, rounds=8, fanout=3):
    cfg = LpbcastConfig(fanout=fanout, view_max=8)
    nodes = build_lpbcast_nodes(n, cfg, seed=0)
    meter = BandwidthMeter()
    sim = RoundSimulation(seed=0)
    sim.add_round_hook(meter.on_round)
    sim.add_nodes(nodes)
    sim.run(rounds)
    return meter, nodes


class TestBandwidthMeter:
    def test_message_count_is_n_times_fanout_per_round(self):
        meter, nodes = build_metered(n=20, rounds=8, fanout=3)
        for r in range(2, 8):
            assert meter.round_traffic(r).messages == 20 * 3

    def test_totals(self):
        meter, _ = build_metered(n=10, rounds=5, fanout=2)
        assert meter.total_messages() == 10 * 2 * 5
        assert meter.total_elements() >= meter.total_messages()

    def test_by_kind(self):
        meter, _ = build_metered(n=10, rounds=4)
        kinds = meter.messages_by_kind()
        assert set(kinds) == {"GossipMessage"}

    def test_per_sender_balanced(self):
        meter, nodes = build_metered(n=15, rounds=6, fanout=3)
        totals = meter.per_sender_totals()
        assert set(totals.values()) == {6 * 3}

    def test_load_stability_is_perfect_without_app_traffic(self):
        # Sec. 3.3: protocol load does not fluctuate.
        meter, _ = build_metered(n=20, rounds=10)
        assert meter.load_stability() == pytest.approx(0.0)

    def test_load_stable_under_application_traffic(self):
        cfg = LpbcastConfig(fanout=3, view_max=8)
        nodes = build_lpbcast_nodes(20, cfg, seed=1)
        meter = BandwidthMeter()
        sim = RoundSimulation(seed=1)
        sim.add_round_hook(meter.on_round)
        sim.add_nodes(nodes)

        def publish(round_number, sim_):
            nodes[round_number % 20].lpb_cast("x", now=float(round_number))

        sim.add_round_hook(publish)
        sim.run(10)
        # Messages per round unchanged: notifications piggyback on the same
        # F gossips (element volume grows instead).
        assert meter.load_stability() == pytest.approx(0.0)

    def test_load_stability_needs_enough_rounds(self):
        meter, _ = build_metered(n=5, rounds=2)
        with pytest.raises(ValueError):
            meter.load_stability()

    def test_unmeasured_round_is_empty(self):
        meter, _ = build_metered(n=5, rounds=2)
        assert meter.round_traffic(99).messages == 0


class TestByteAccounting:
    """Byte-accurate bandwidth: opt-in, exact, engine-symmetric."""

    def _run(self, engine, n=16, rounds=6, **kwargs):
        from repro.sim import create_simulation

        cfg = LpbcastConfig(fanout=3, view_max=8)
        nodes = build_lpbcast_nodes(n, cfg, seed=5)
        sim = create_simulation(engine, seed=5, **kwargs)
        meter = BandwidthMeter().attach(sim, count_bytes=True)
        sim.add_nodes(nodes)
        sim.nodes[nodes[0].pid].lpb_cast("bytes!", 0.0)
        sim.run(rounds)
        close = getattr(sim, "close", None)
        if close:
            close()
        return sim, meter

    def test_bytes_off_by_default(self):
        meter, _ = build_metered(n=10, rounds=5)
        assert meter.total_wire_bytes() == 0
        assert meter.round_traffic(3).wire_bytes == 0

    def test_bytes_exact_against_recount(self):
        from repro.wire import encode_binary

        sim, meter = self._run("serial")
        total = meter.total_wire_bytes()
        assert total > 0
        # Cross-check one round against an independent recount of a fresh
        # identical run captured message-by-message.
        cfg = LpbcastConfig(fanout=3, view_max=8)
        nodes = build_lpbcast_nodes(16, cfg, seed=5)
        from repro.sim import create_simulation
        resim = create_simulation("serial", seed=5)
        captured = []
        original = resim.telemetry.record_sends

        def capture(round_no, src, outgoings):
            captured.extend((round_no, out.message) for out in outgoings)
            original(round_no, src, outgoings)

        resim.telemetry.record_sends = capture
        resim.add_nodes(nodes)
        resim.nodes[nodes[0].pid].lpb_cast("bytes!", 0.0)
        resim.run(6)
        expected = sum(len(encode_binary(m))
                       for r, m in captured if r == 4)
        assert meter.round_traffic(4).wire_bytes == expected

    def test_bytes_identical_serial_vs_sharded(self):
        _, serial = self._run("serial")
        _, sharded = self._run("sharded", shards=3)
        assert serial.total_wire_bytes() == sharded.total_wire_bytes()
        for round_no in serial.rounds():
            assert (serial.round_traffic(round_no).wire_bytes
                    == sharded.round_traffic(round_no).wire_bytes)

    def test_elements_and_bytes_are_separate_series(self):
        sim, meter = self._run("serial")
        traffic = meter.round_traffic(4)
        assert traffic.elements > 0
        assert traffic.wire_bytes > 0
        assert traffic.wire_bytes != traffic.elements
        assert meter.total_elements() != meter.total_wire_bytes()

    def test_fingerprint_is_the_one_taken_before_sizes_were_memoised(self):
        # Taken at the parent of the change that sized each distinct message
        # once per ``record_sends`` batch (serial, n=16, seed=5, 6 rounds).
        from repro.telemetry import counter_fingerprint

        sim, meter = self._run("serial")
        assert meter.total_wire_bytes() == 5994
        assert counter_fingerprint(sim.telemetry) == (
            "8f6db028518d1f1d791928ba41abc343"
            "bdf374d771446012ec89e63b9a4270d8")

    def test_one_encode_per_tick(self, monkeypatch):
        # A tick hands one gossip object to its F targets: sized once.
        import repro.wire.binary as binary

        calls = []
        original = binary.encode_binary

        def counting(message, **kwargs):
            calls.append(message)
            return original(message, **kwargs)

        monkeypatch.setattr(binary, "encode_binary", counting)
        sim, meter = self._run("serial", n=16, rounds=6)
        ticks = 16 * 6
        assert meter.total_messages() == 3 * ticks
        assert len(calls) == ticks
        assert len({id(message) for message in calls}) == ticks
