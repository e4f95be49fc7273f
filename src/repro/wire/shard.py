"""Cross-shard payload blobs for the sharded round engine.

The sharded engine ships batches of protocol messages between worker
processes (:meth:`~repro.sim.parallel_runner._ShardState.do_fetch`).  This
module is that batch format: the compact binary codec with strict payload
checking, falling back to pickle for the whole batch when any message has
no *faithful* binary form — a custom message type, or a notification
payload (tuple, non-string dict keys, NaN) that the JSON embedding would
alter.  The fallback keeps the engine's bit-identity contract intact: a
decoded cross-shard message is always equal to the object the serial
engine would have passed by reference.  It is automatic and it is the only
way a batch travels as pickle: no option selects the format.

Blob layout: a one-byte format marker (:data:`BLOB_PICKLE` /
:data:`BLOB_BINARY`), then either the pickle bytes or a varint count
followed by length-prefixed binary records.
"""

from __future__ import annotations

import pickle
from typing import List, Sequence

from ..core.codec import CodecError
from .binary import WireEncodeError, decode_binary, encode_binary
from .varint import read_uvarint, write_uvarint

BLOB_PICKLE = 0x00
BLOB_BINARY = 0x02


def pack_messages(messages: Sequence[object]) -> bytes:
    """Message batch → self-describing blob: the strict binary codec, or
    pickle for the whole batch when any message is not faithfully
    encodable.  The batch's content decides — there is no format option."""
    try:
        buf = bytearray([BLOB_BINARY])
        write_uvarint(buf, len(messages))
        for message in messages:
            blob = encode_binary(message, strict_payloads=True)
            write_uvarint(buf, len(blob))
            buf += blob
        return bytes(buf)
    except WireEncodeError:
        return bytes([BLOB_PICKLE]) + pickle.dumps(
            list(messages), protocol=pickle.HIGHEST_PROTOCOL
        )


def unpack_messages(blob: bytes) -> List[object]:
    """Inverse of :func:`pack_messages`, dispatching on the marker byte."""
    if not blob:
        raise CodecError("empty cross-shard blob")
    marker = blob[0]
    if marker == BLOB_PICKLE:
        return pickle.loads(blob[1:])
    if marker != BLOB_BINARY:
        raise CodecError(f"unknown cross-shard blob marker {marker:#04x}")
    count, pos = read_uvarint(blob, 1)
    if count > len(blob):
        raise CodecError(f"cross-shard count {count} exceeds blob size")
    # Bytes slices on purpose (same measurement as the frame decoder):
    # the inner decoder's byte-by-byte indexing makes memoryview records
    # slower than one small copy per record.
    messages: List[object] = []
    for _ in range(count):
        length, pos = read_uvarint(blob, pos)
        end = pos + length
        if end > len(blob):
            raise CodecError("truncated cross-shard blob")
        messages.append(decode_binary(blob[pos:end]))
        pos = end
    if pos != len(blob):
        raise CodecError(f"{len(blob) - pos} trailing cross-shard bytes")
    return messages
