"""Tests for LpbcastConfig validation (the paper's parameter constraints)."""

import pytest

from repro.core import LpbcastConfig, PAPER_MEASUREMENT_CONFIG, PAPER_SIMULATION_CONFIG


class TestDefaults:
    def test_paper_defaults(self):
        cfg = LpbcastConfig()
        assert cfg.fanout == 3          # Sec. 4.3: "fixed to F = 3"
        assert cfg.event_ids_max == 60  # Fig. 6(a) notification list size
        assert cfg.membership_period == 1
        assert not cfg.weighted_views
        assert not cfg.retransmissions
        assert cfg.digest_implies_delivery

    def test_paper_presets(self):
        assert PAPER_SIMULATION_CONFIG.fanout == 3
        assert PAPER_MEASUREMENT_CONFIG.view_max == 15
        assert PAPER_MEASUREMENT_CONFIG.event_ids_max == 60


class TestValidation:
    def test_fanout_must_not_exceed_view(self):
        # "F <= l must always be ensured" (Sec. 4.3).
        with pytest.raises(ValueError, match="view_max"):
            LpbcastConfig(fanout=5, view_max=4)

    def test_fanout_equal_view_allowed(self):
        assert LpbcastConfig(fanout=5, view_max=5).fanout == 5

    def test_fanout_positive(self):
        with pytest.raises(ValueError):
            LpbcastConfig(fanout=0)

    @pytest.mark.parametrize(
        "field",
        ["events_max", "event_ids_max", "subs_max", "unsubs_max",
         "archive_max", "retransmit_request_max"],
    )
    def test_buffer_bounds_non_negative(self, field):
        with pytest.raises(ValueError, match=field):
            LpbcastConfig(**{field: -1})

    def test_the_id_store_is_not_an_option(self):
        # One eventIds representation (the Sec. 3.2 per-sender store): the
        # knob that selected between two is gone, not defaulted.
        with pytest.raises(TypeError, match="compact_event_ids"):
            LpbcastConfig(compact_event_ids=True)

    def test_gossip_period_positive(self):
        with pytest.raises(ValueError):
            LpbcastConfig(gossip_period=0.0)

    def test_unsub_ttl_positive(self):
        with pytest.raises(ValueError):
            LpbcastConfig(unsub_ttl=0.0)

    def test_membership_period_at_least_one(self):
        with pytest.raises(ValueError):
            LpbcastConfig(membership_period=0)

    def test_membership_boost_non_negative(self):
        with pytest.raises(ValueError):
            LpbcastConfig(membership_boost=-1)

    def test_join_timeout_positive(self):
        with pytest.raises(ValueError):
            LpbcastConfig(join_timeout=0.0)

    def test_retransmissions_exclusive_with_digest_delivery(self):
        with pytest.raises(ValueError, match="mutually"):
            LpbcastConfig(retransmissions=True, digest_implies_delivery=True)

    def test_retransmissions_with_digest_delivery_off(self):
        cfg = LpbcastConfig(retransmissions=True, digest_implies_delivery=False)
        assert cfg.retransmissions


class TestOverrides:
    def test_with_overrides_returns_new_config(self):
        base = LpbcastConfig()
        derived = base.with_overrides(fanout=4)
        assert derived.fanout == 4
        assert base.fanout == 3

    def test_with_overrides_revalidates(self):
        with pytest.raises(ValueError):
            LpbcastConfig().with_overrides(fanout=100)

    def test_frozen(self):
        cfg = LpbcastConfig()
        with pytest.raises(Exception):
            cfg.fanout = 9
