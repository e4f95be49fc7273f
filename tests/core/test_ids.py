"""Tests for process and event identifiers."""

from repro.core.ids import EventId


class TestEventId:
    def test_fields(self):
        eid = EventId(3, 7)
        assert eid.origin == 3
        assert eid.seq == 7

    def test_ordering_is_lexicographic(self):
        assert EventId(1, 5) < EventId(2, 1)
        assert EventId(2, 1) < EventId(2, 2)

    def test_equality_and_hash(self):
        assert EventId(1, 1) == EventId(1, 1)
        assert hash(EventId(1, 1)) == hash(EventId(1, 1))
        assert EventId(1, 1) != EventId(1, 2)

    def test_usable_as_dict_key(self):
        d = {EventId(1, 1): "a"}
        assert d[EventId(1, 1)] == "a"

    def test_str(self):
        assert str(EventId(4, 9)) == "4#9"

