"""Compact binary wire format shared by the simulators and the runtime.

Sec. 3.2 observes that gossip digests have per-sender structure that lets
them be "considerably reduced in size"; this package is where the repo
exploits it.  Three layers:

* :mod:`repro.wire.varint` — LEB128 varints and zigzag signed encoding,
  the integer primitives everything else is built from;
* :mod:`repro.wire.binary` — a tagged binary record per protocol message
  type, with event-id digests delta-encoded in per-sender runs;
* :mod:`repro.wire.frame` — the datagram layer: a version byte, then many
  length-prefixed messages batched to one destination, with oversize
  gossips *split* across frames instead of dropped.

The binary format is the one UDP datagram format
(:mod:`repro.runtime.udp`) and the default cross-shard payload format of
the sharded engine (:mod:`repro.wire.shard`).  Malformed input of any
kind raises :class:`CodecError`, never anything else.
"""

from .binary import (
    WireEncodeError,
    decode_binary,
    encode_binary,
    wire_bytes_of,
)
from .frame import (
    FRAME_BINARY,
    DatagramPlan,
    decode_frame,
    encode_frame,
    pack_datagrams,
    split_oversize,
)
from .golden import GOLDEN_VECTORS, check_golden_vectors
from .shard import pack_messages, unpack_messages
from .varint import CodecError

__all__ = [
    "CodecError",
    "WireEncodeError",
    "encode_binary",
    "decode_binary",
    "wire_bytes_of",
    "FRAME_BINARY",
    "DatagramPlan",
    "encode_frame",
    "decode_frame",
    "pack_datagrams",
    "split_oversize",
    "pack_messages",
    "unpack_messages",
    "GOLDEN_VECTORS",
    "check_golden_vectors",
]
