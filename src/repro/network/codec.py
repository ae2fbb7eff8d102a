"""Compressed, checksummed sketch frames for network-wide collection.

Every hop of the collection tree ships one whole sealed sketch: each
poll is reset-on-read, so two consecutive sealed sketches share no
baseline and a whole sketch is the only thing worth sending (DESIGN.md
§11).  A sealed epoch touches a small set of counters, each a small
integer, so the :mod:`repro.core.serialization` encoding already holds
most tables one byte per counter, is mostly zeros, and compresses well
with zlib's fast run-length strategy.

This module wraps that encoding in a self-contained frame on top of the
v2 poll protocol's integrity discipline (explicit length + CRC32 over
the payload, hard size ceilings before any allocation):

    frame: magic ``UMF1`` | u8 type | u8 flags | i64 epoch |
           i64 base_epoch | u32 payload_len | u32 crc32(payload) |
           payload

There is one frame type, **FULL** (1): the payload is the serialized
sketch as one zlib stream (level 1, ``Z_RLE`` strategy; flag bit 1) when
that makes it smaller, else the body itself.  The
``epoch`` field is 0 and ``base_epoch`` is :data:`NO_BASE`; both are
kept so the layout stays readable by existing peers.  Any other type,
including the retired delta type 2, is rejected.

Hostile input is a first-class concern: a decoder must *reject, never
corrupt*.  The header, length and CRC are checked before the body is
touched, decompression is bounded so a zlib bomb cannot balloon memory,
and the body goes through :func:`repro.core.serialization.loads`, which
bounds-checks every field.
"""

from __future__ import annotations

import struct
import zlib

from repro.errors import CodecError, TraceFormatError
from repro.obs.metrics import get_registry
from repro.core import serialization
from repro.core.universal import UniversalSketch

__all__ = ["FRAME_FULL", "NO_BASE", "FrameInfo", "frame_info",
           "DeltaEncoder", "DeltaDecoder"]

_MAGIC = b"UMF1"
_HEADER = struct.Struct("<4sBBqqII")

#: The one frame type.
FRAME_FULL = 1

#: Flag bits.
_FLAG_ZLIB = 1

#: zlib level for frame payloads, compressed with the ``Z_RLE``
#: strategy.  On narrowed bodies this stays within 4% of level 6's
#: bytes in a sixth to a third of its time (DESIGN.md §11).
_ZLIB_LEVEL = 1

#: What every frame carries in its ``base_epoch`` field.
NO_BASE = -1

#: Hard ceiling on a frame payload and on its decompressed body.  Kept
#: in line with the poll protocol's MAX_FRAME_BYTES; a corrupt length or
#: a zlib bomb must never translate into a runaway allocation.
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024


class FrameInfo:
    """Parsed header of one codec frame (no body validation)."""

    __slots__ = ("compressed", "payload_len")

    #: Every valid frame is a full frame.
    kind = "full"

    def __init__(self, compressed: bool, payload_len: int) -> None:
        self.compressed = compressed
        self.payload_len = payload_len


def frame_info(frame: bytes) -> FrameInfo:
    """Validate framing/CRC and return the parsed header."""
    if len(frame) < _HEADER.size:
        raise CodecError(
            f"codec frame truncated: {len(frame)} bytes < "
            f"{_HEADER.size}-byte header")
    magic, ftype, flags, _, _, length, crc = _HEADER.unpack_from(frame)
    if magic != _MAGIC:
        raise CodecError(f"bad codec frame magic {magic!r}")
    if ftype != FRAME_FULL:
        raise CodecError(f"unknown codec frame type {ftype}")
    if flags & ~_FLAG_ZLIB:
        raise CodecError(f"unknown codec frame flags 0x{flags:02x}")
    if length > MAX_PAYLOAD_BYTES:
        raise CodecError(
            f"codec payload length {length} exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte limit")
    if len(frame) - _HEADER.size != length:
        raise CodecError(
            f"codec frame length mismatch: header says {length} payload "
            f"bytes, frame carries {len(frame) - _HEADER.size}")
    if zlib.crc32(memoryview(frame)[_HEADER.size:]) & 0xFFFFFFFF != crc:
        raise CodecError("codec frame checksum mismatch (corrupt payload)")
    return FrameInfo(compressed=bool(flags & _FLAG_ZLIB),
                     payload_len=length)


class DeltaEncoder:
    """Frames sealed sketches for the wire.

    Stateless: each call serializes the sketch, compresses it once and
    frames it.  (The name is kept from the retired delta codec.)
    """

    def encode(self, sketch) -> bytes:
        """Frame ``sketch``; returns the wire bytes."""
        reg = get_registry()
        body = serialization.dumps(sketch)
        reg.counter("univmon_codec_raw_bytes_total",
                    help="uncompressed full-sketch bytes (the raw-"
                         "transfer baseline)").inc(len(body))
        flags = 0
        packer = zlib.compressobj(_ZLIB_LEVEL, strategy=zlib.Z_RLE)
        payload = packer.compress(body) + packer.flush()
        if len(payload) < len(body):
            flags = _FLAG_ZLIB
        else:
            payload = body
        frame = _HEADER.pack(_MAGIC, FRAME_FULL, flags, 0, NO_BASE,
                             len(payload),
                             zlib.crc32(payload) & 0xFFFFFFFF) + payload
        reg.counter("univmon_codec_frames_total",
                    help="codec frames emitted", kind="full").inc()
        reg.counter("univmon_codec_wire_bytes_total",
                    help="framed (possibly compressed) bytes on the "
                         "wire").inc(len(frame))
        return frame


class DeltaDecoder:
    """Turns frames back into sketches.

    Stateless: every frame is validated on its own, and the returned
    sketch belongs to the caller.  (The name is kept from the retired
    delta codec.)
    """

    @staticmethod
    def _body(info: FrameInfo, frame: bytes) -> bytes:
        payload = memoryview(frame)[_HEADER.size:]
        if not info.compressed:
            return bytes(payload)
        try:
            obj = zlib.decompressobj()
            body = obj.decompress(payload, MAX_PAYLOAD_BYTES)
        except zlib.error as exc:
            raise CodecError(f"codec body decompression failed: {exc}") \
                from exc
        if obj.unconsumed_tail:
            raise CodecError(
                f"decompressed codec body exceeds the "
                f"{MAX_PAYLOAD_BYTES}-byte limit")
        if not obj.eof or obj.unused_data:
            raise CodecError("codec body is not one complete zlib stream")
        return body

    def decode(self, frame: bytes) -> UniversalSketch:
        """Decode one frame into a new sketch.

        Raises :class:`~repro.errors.CodecError` on any invalid frame.
        """
        reg = get_registry()
        try:
            body = self._body(frame_info(frame), frame)
            try:
                sketch = serialization.loads(body)
            except TraceFormatError as exc:
                raise CodecError(f"frame body rejected: {exc}") from exc
            if not isinstance(sketch, UniversalSketch):
                raise CodecError(
                    f"frame carried a {type(sketch).__name__}, expected "
                    f"a UniversalSketch")
        except CodecError:
            reg.counter("univmon_codec_rejects_total",
                        help="codec frames rejected by the decoder",
                        reason="invalid").inc()
            raise
        reg.counter("univmon_codec_frames_decoded_total",
                    help="codec frames decoded", kind="full").inc()
        return sketch
