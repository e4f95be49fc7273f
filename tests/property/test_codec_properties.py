"""Property-based tests for the message codec at the edges an application
reaches: payloads under the strict check, and arbitrary text as a payload
or a record."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Notification
from repro.core.ids import EventId
from repro.core.message import GossipMessage
from repro.pbcast.messages import PbcastData
from repro.wire import CodecError, decode_binary, encode_binary

from .test_wire_properties import any_wire_message as any_message


class TestCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(message=any_message)
    def test_round_trip_identity(self, message):
        # The generated payloads are plain JSON values: the strict check
        # accepts every one and the record still gives the message back.
        assert decode_binary(encode_binary(message, strict_payloads=True)) \
            == message

    @settings(max_examples=100, deadline=None)
    @given(garbage=st.text(max_size=40))
    def test_arbitrary_text_never_crashes(self, garbage):
        # Any text is a valid payload, alone or inside a gossip ...
        note = Notification(EventId(1, 1), garbage, 0.0)
        for message in (PbcastData(1, note, hops=0),
                        GossipMessage(sender=1, events=(note,))):
            assert decode_binary(encode_binary(message, strict_payloads=True)) \
                == message
        # ... and, read as a record, is rejected or decoded, nothing else.
        try:
            decode_binary(garbage.encode("utf-8"))
        except CodecError:
            pass  # rejecting is fine; raising anything else is not
