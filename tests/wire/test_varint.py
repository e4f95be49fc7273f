"""Unit tests for the varint primitives under the binary codec."""

import pytest

from repro.wire import CodecError
from repro.wire.varint import (
    MAX_VARINT_BYTES,
    VarintRangeError,
    read_svarint,
    read_uvarint,
    unzigzag,
    uvarint_len,
    write_svarint,
    write_uvarint,
    zigzag,
)


def uenc(value: int) -> bytes:
    buf = bytearray()
    write_uvarint(buf, value)
    return bytes(buf)


class TestUnsigned:
    def test_known_encodings(self):
        assert uenc(0) == b"\x00"
        assert uenc(1) == b"\x01"
        assert uenc(127) == b"\x7f"
        assert uenc(128) == b"\x80\x01"
        assert uenc(300) == b"\xac\x02"

    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**21,
                                       2**35, 2**63, 2**69])
    def test_round_trip(self, value):
        encoded = uenc(value)
        assert len(encoded) == uvarint_len(value)
        decoded, pos = read_uvarint(encoded, 0)
        assert decoded == value
        assert pos == len(encoded)

    def test_negative_rejected_on_encode(self):
        with pytest.raises(VarintRangeError):
            uenc(-1)

    def test_oversized_rejected_on_encode(self):
        with pytest.raises(VarintRangeError):
            uenc(1 << (7 * MAX_VARINT_BYTES))

    def test_truncated_input_raises_codec_error(self):
        with pytest.raises(CodecError):
            read_uvarint(b"\x80", 0)
        with pytest.raises(CodecError):
            read_uvarint(b"", 0)

    def test_overlong_input_raises_codec_error(self):
        # Eleven continuation bytes: more than any encoder emits — an
        # adversarial stream must not drive an unbounded shift loop.
        with pytest.raises(CodecError):
            read_uvarint(b"\x80" * (MAX_VARINT_BYTES + 1) + b"\x01", 0)


class TestSigned:
    def test_zigzag_mapping(self):
        assert [zigzag(v) for v in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]
        for value in (0, -1, 1, -2, 2, 12345, -12345):
            assert unzigzag(zigzag(value)) == value

    @pytest.mark.parametrize("value", [0, -1, 1, -64, 63, 10**12, -(10**12)])
    def test_round_trip(self, value):
        buf = bytearray()
        write_svarint(buf, value)
        decoded, pos = read_svarint(bytes(buf), 0)
        assert decoded == value
        assert pos == len(buf)
