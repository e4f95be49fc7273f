"""Golden byte-vector fixtures: the binary format's compatibility contract.

A failure here means the wire format changed.  That is a compatibility
break for any peer or shard speaking the old format — bump the frame
version byte and add new vectors rather than editing the pinned hex.
"""

from repro.wire import GOLDEN_VECTORS, CodecError, check_golden_vectors
from repro.wire import binary
from repro.wire.binary import decode_binary, encode_binary

from ..core.test_codec import ALL_MESSAGES
from .test_binary_codec import SAMPLES


class TestGoldenVectors:
    def test_all_vectors_hold(self):
        assert check_golden_vectors() == len(GOLDEN_VECTORS)

    def test_vectors_cover_encode_and_decode(self):
        for message, expected_hex in GOLDEN_VECTORS:
            assert encode_binary(message).hex() == expected_hex
            assert decode_binary(bytes.fromhex(expected_hex)) == message

    def test_vector_set_is_nontrivial(self):
        kinds = {type(m).__name__ for m, _ in GOLDEN_VECTORS}
        assert {"GossipMessage", "PbcastDigest"} <= kinds

    def test_double_echo_records_are_pinned(self):
        # The Echo/Ready vectors also pin the payload_digest derivation:
        # the embedded digests are payload_digest("hello") and
        # payload_digest({"a": 1}).
        from repro.core.node import payload_digest

        kinds = {type(m).__name__ for m, _ in GOLDEN_VECTORS}
        assert {"EchoMessage", "ReadyMessage"} <= kinds
        digests = {m.digest for m, _ in GOLDEN_VECTORS
                   if type(m).__name__ in ("EchoMessage", "ReadyMessage")}
        assert payload_digest("hello") in digests
        assert payload_digest({"a": 1}) in digests


class TestTagTable:
    """No dead tag: the lead bytes the decoder takes are exactly the
    module's ``TAG_*`` constants, and each one is pinned by a golden vector
    or exercised by a round-trip case."""

    TAGS = {value for name, value in vars(binary).items()
            if name.startswith("TAG_")}

    def test_decoder_accepts_exactly_the_tags(self):
        accepted = set()
        for lead in range(0x100):
            try:
                decode_binary(bytes([lead]) + bytes(16))
            except CodecError as exc:
                if "unknown binary message tag" in str(exc):
                    continue
            accepted.add(lead)
        assert accepted == self.TAGS

    def test_every_tag_has_a_vector_or_round_trip_case(self):
        messages = [m for m, _ in GOLDEN_VECTORS] + SAMPLES + ALL_MESSAGES
        covered = {encode_binary(m)[0] for m in messages}
        assert covered == self.TAGS
