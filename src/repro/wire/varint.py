"""LEB128 varints and zigzag signed integers.

The integer primitives of the binary wire format: unsigned values go on
the wire base-128 with a continuation bit (small values — the common case
for counts, lengths and digest deltas — cost one byte), signed values are
zigzag-folded first so ids and deltas near zero stay short regardless of
sign.

Decoding is defensive: a truncated varint or one longer than
:data:`MAX_VARINT_BYTES` (an adversarial unbounded-continuation stream)
raises :class:`CodecError`, never an unbounded loop or a foreign
exception.  Encoding enforces the same cap so every value written
is guaranteed decodable.
"""

from __future__ import annotations

from typing import Tuple


class CodecError(ValueError):
    """Raised for unknown message tags or malformed encodings — by every
    decoder of the wire format, this lowest layer first."""

#: Hard cap on one varint's wire length: 10 bytes carry 70 payload bits,
#: comfortably above any id, count or length the protocol produces while
#: bounding what a hostile datagram can make the decoder chew on.
MAX_VARINT_BYTES = 10

_MAX_UVARINT = (1 << (7 * MAX_VARINT_BYTES)) - 1


class VarintRangeError(ValueError):
    """An integer too large for the wire's varint cap (encode side)."""


def uvarint_len(value: int) -> int:
    """Encoded length in bytes of ``value`` as an unsigned varint."""
    if value < 0:
        raise VarintRangeError(f"uvarint cannot encode negative {value}")
    length = 1
    while value > 0x7F:
        value >>= 7
        length += 1
    return length


def write_uvarint(buf: bytearray, value: int) -> None:
    """Append ``value`` to ``buf`` as an unsigned LEB128 varint."""
    if value < 0 or value > _MAX_UVARINT:
        raise VarintRangeError(f"{value} outside uvarint range")
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def read_uvarint(data, pos: int) -> Tuple[int, int]:
    """Read an unsigned varint at ``pos``; returns ``(value, new_pos)``."""
    end = len(data)
    if pos < end:
        # One-byte values (counts, lengths, small deltas) dominate real
        # traffic; settle them without entering the continuation loop.
        byte = data[pos]
        if byte < 0x80:
            return byte, pos + 1
    result = 0
    shift = 0
    for count in range(MAX_VARINT_BYTES):
        if pos >= end:
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
    raise CodecError(f"varint longer than {MAX_VARINT_BYTES} bytes")


def zigzag(value: int) -> int:
    """Fold a signed integer into an unsigned one (0, -1, 1, -2 → 0..3)."""
    return value * 2 if value >= 0 else -value * 2 - 1


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return (value >> 1) ^ -(value & 1)


def write_svarint(buf: bytearray, value: int) -> None:
    """Append a signed integer as a zigzag varint."""
    write_uvarint(buf, zigzag(value))


def read_svarint(data, pos: int) -> Tuple[int, int]:
    """Read a zigzag varint at ``pos``; returns ``(value, new_pos)``."""
    if pos < len(data):
        byte = data[pos]
        if byte < 0x80:
            return (byte >> 1) ^ -(byte & 1), pos + 1
    raw, pos = read_uvarint(data, pos)
    return unzigzag(raw), pos


def read_svarint_run(data, pos: int, count: int) -> Tuple[list, int]:
    """Read ``count`` consecutive zigzag varints with one local-offset
    cursor; returns ``(values, new_pos)``.

    The decode hot path: list fields (view pids, event-id sequence deltas)
    are runs of svarints, and reading them one
    :func:`read_svarint` call at a time makes Python function-call
    overhead the dominant decode cost.  This reader keeps the offset in a
    local and pays one call per *run* instead of per element, with the
    same truncation/overlong-cap errors as the scalar readers.
    """
    end = len(data)
    values: list = []
    append = values.append
    for _ in range(count):
        if pos >= end:
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        if byte < 0x80:
            append((byte >> 1) ^ -(byte & 1))
            continue
        result = byte & 0x7F
        shift = 7
        while True:
            if pos >= end:
                raise CodecError("truncated varint")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
            if shift >= 7 * MAX_VARINT_BYTES:
                raise CodecError(
                    f"varint longer than {MAX_VARINT_BYTES} bytes")
        append((result >> 1) ^ -(result & 1))
    return values, pos
