"""Tests for the sketch frame codec (reject, never corrupt)."""

import struct
import zlib

import numpy as np
import pytest

from repro.core import serialization
from repro.errors import CodecError
from repro.network.codec import (
    FRAME_FULL,
    NO_BASE,
    DeltaDecoder,
    DeltaEncoder,
    frame_info,
)
from repro.core.universal import UniversalSketch
from tests.core.wire_layout import (
    LEVEL0_AT,
    UNIVERSAL_LEVELS_AT,
    UNIVERSAL_WIDTH_AT,
    ums1_body,
    universal_layout,
)

_HEADER = struct.Struct("<4sBBqqII")


def factory():
    return UniversalSketch(levels=4, rows=2, width=64, heap_size=8, seed=11)


def fill(sketch, seed=0, packets=200, universe=500):
    rng = np.random.default_rng(seed)
    sketch.update_array(
        rng.integers(0, universe, size=packets).astype(np.uint64))
    return sketch


def assert_equal_state(a, b):
    assert a.packets == b.packets
    for la, lb in zip(a.levels, b.levels):
        assert la.packets == lb.packets
        assert la.weight == lb.weight
        assert np.array_equal(la.sketch.table, lb.sketch.table)
        assert la.topk.items() == lb.topk.items()
        # Decoded heaps hold their keys largest |estimate| first.
        assert lb.topk.keys() == [key for key, _ in la.topk.items()]


def reframe(frame, *, ftype=None, flags=None, body=None):
    """Rebuild a frame with selected header fields (CRC recomputed, so
    the *decoder's semantic checks* are what reject it)."""
    magic, t, f, e, b, length, crc = _HEADER.unpack(frame[:_HEADER.size])
    payload = frame[_HEADER.size:] if body is None else body
    t = t if ftype is None else ftype
    f = f if flags is None else flags
    header = _HEADER.pack(magic, t, f, e, b, len(payload),
                          zlib.crc32(payload) & 0xFFFFFFFF)
    return header + payload


class TestRoundTrips:
    def test_full_frame_round_trip(self):
        sketch = fill(factory())
        got = DeltaDecoder().decode(DeltaEncoder().encode(sketch))
        assert_equal_state(sketch, got)

    def test_empty_sketch_round_trip(self):
        got = DeltaDecoder().decode(DeltaEncoder().encode(factory()))
        assert_equal_state(factory(), got)

    def test_frame_layout(self):
        """UMF1 header (type FULL, epoch 0, NO_BASE, payload CRC) over
        the level-1 run-length zlib stream of the serialized sketch."""
        sketch = fill(factory())
        packer = zlib.compressobj(1, strategy=zlib.Z_RLE)
        payload = packer.compress(serialization.dumps(sketch)) \
            + packer.flush()
        header = _HEADER.pack(b"UMF1", FRAME_FULL, 1, 0, NO_BASE,
                              len(payload), zlib.crc32(payload))
        assert DeltaEncoder().encode(sketch) == header + payload

    def test_sealed_stream_frames_are_all_full(self):
        enc, dec = DeltaEncoder(), DeltaDecoder()
        for epoch in range(4):
            sketch = fill(factory(), seed=epoch)
            frame = enc.encode(sketch)
            info = frame_info(frame)
            assert (info.kind, info.compressed) == ("full", True)
            assert_equal_state(sketch, dec.decode(frame))

    def test_decoded_sketch_is_independent_of_decoder_state(self):
        dec = DeltaDecoder()
        frame = DeltaEncoder().encode(fill(factory()))
        got = dec.decode(frame)
        got.update(7)  # mutating one result must not leak into the next
        again = dec.decode(frame)
        assert again is not got
        assert_equal_state(fill(factory()), again)

    def test_compression_shrinks_sparse_sketches(self):
        sketch = fill(factory(), packets=30)
        raw = _HEADER.size + len(serialization.dumps(sketch))
        assert len(DeltaEncoder().encode(sketch)) < raw / 3


class TestFraming:
    def test_truncated_header_rejected(self):
        with pytest.raises(CodecError):
            frame_info(b"UMF1\x01")

    def test_bad_magic_rejected(self):
        frame = DeltaEncoder().encode(factory())
        with pytest.raises(CodecError):
            frame_info(b"XXXX" + frame[4:])

    def test_corrupt_payload_rejected_by_crc(self):
        frame = bytearray(DeltaEncoder().encode(fill(factory())))
        frame[-1] ^= 0xFF
        with pytest.raises(CodecError):
            DeltaDecoder().decode(bytes(frame))

    def test_unknown_type_and_flags_rejected(self):
        frame = DeltaEncoder().encode(fill(factory()))
        for ftype in (0, 2, 99):
            with pytest.raises(CodecError, match="type"):
                DeltaDecoder().decode(reframe(frame, ftype=ftype))
        with pytest.raises(CodecError):
            DeltaDecoder().decode(reframe(frame, flags=0x80))

    def test_length_mismatch_rejected(self):
        frame = DeltaEncoder().encode(fill(factory()))
        with pytest.raises(CodecError):
            frame_info(frame + b"extra")

    def test_truncation_at_every_offset_rejected(self):
        frame = DeltaEncoder().encode(fill(factory()))
        dec = DeltaDecoder()
        for cut in range(len(frame)):
            with pytest.raises(CodecError):
                dec.decode(frame[:cut])


class TestHostileFrames:
    """Hand-corrupted frame bodies, re-framed uncompressed with a valid
    CRC: the body checks must reject each one."""

    def hostile(self, mutate):
        frame = DeltaEncoder().encode(fill(factory()))
        body = bytearray(zlib.decompress(frame[_HEADER.size:]))
        return reframe(frame, flags=0, body=bytes(mutate(body)))

    def test_unmutated_body_decodes(self):
        assert_equal_state(fill(factory()), DeltaDecoder().decode(
            self.hostile(lambda body: body)))

    def test_full_frame_carrying_garbage_rejected(self):
        frame = DeltaEncoder().encode(fill(factory()))
        with pytest.raises(CodecError):
            DeltaDecoder().decode(
                reframe(frame, flags=0, body=b"UMS1garbage"))

    def test_hostile_geometry_rejected(self):
        def mutate(body):
            struct.pack_into("<I", body, UNIVERSAL_WIDTH_AT, 1 << 31)
            return body
        with pytest.raises(CodecError, match="width"):
            DeltaDecoder().decode(self.hostile(mutate))

    def test_heap_count_above_capacity_rejected(self):
        def mutate(body):
            count_at = universal_layout(body)[0].count
            struct.pack_into("<I", body, count_at, 1 << 20)
            return body
        with pytest.raises(CodecError, match="capacity"):
            DeltaDecoder().decode(self.hostile(mutate))

    def test_duplicate_heap_key_rejected(self):
        def mutate(body):
            level0 = universal_layout(body)[0]
            (count,) = struct.unpack_from("<I", body, level0.count)
            assert count >= 2
            items = level0.items
            body[items + 16:items + 24] = body[items:items + 8]
            return body
        with pytest.raises(CodecError, match="twice"):
            DeltaDecoder().decode(self.hostile(mutate))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CodecError, match="trailing"):
            DeltaDecoder().decode(self.hostile(lambda body: body + b"\0"))

    def test_zlib_bomb_bounded(self):
        # 128 MiB of zeros compresses tiny; decompression must stop at
        # the payload ceiling instead of ballooning.
        bomb = zlib.compress(b"\x00" * (128 * 1024 * 1024), 9)
        header = _HEADER.pack(b"UMF1", FRAME_FULL, 1, 0, NO_BASE,
                              len(bomb), zlib.crc32(bomb) & 0xFFFFFFFF)
        with pytest.raises(CodecError, match="limit"):
            DeltaDecoder().decode(header + bomb)

    def test_incomplete_zlib_stream_rejected(self):
        frame = DeltaEncoder().encode(fill(factory()))
        payload = frame[_HEADER.size:]
        for bad in (payload[:-4], payload + b"\0"):
            with pytest.raises(CodecError, match="zlib"):
                DeltaDecoder().decode(reframe(frame, body=bad))

    def test_geometry_beyond_payload_rejected(self):
        """A real header whose geometry is rewritten to the ceilings, in
        a frame of about 60 bytes, must not demand 65 x 512 x 2**24
        counters of memory."""
        header = bytearray(serialization.dumps(factory())[:LEVEL0_AT])
        struct.pack_into("<III", header, UNIVERSAL_LEVELS_AT,
                         64, 512, 1 << 24)  # levels, rows, width
        frame = reframe(DeltaEncoder().encode(factory()), flags=1,
                        body=zlib.compress(bytes(header)))
        assert len(frame) <= 64
        with pytest.raises(CodecError, match="counters"):
            DeltaDecoder().decode(frame)

    def test_ums1_body_rejected(self):
        """A body in the int64 counter layout (magic UMS1) is refused,
        compressed or not."""
        body = ums1_body(fill(factory()))
        frame = DeltaEncoder().encode(factory())
        for flags, payload in ((0, body), (1, zlib.compress(body, 6))):
            with pytest.raises(CodecError, match="UMS1"):
                DeltaDecoder().decode(
                    reframe(frame, flags=flags, body=payload))

    def test_type_2_frame_rejected(self):
        frame = DeltaEncoder().encode(fill(factory()))
        with pytest.raises(CodecError, match="unknown codec frame type 2"):
            DeltaDecoder().decode(reframe(frame, ftype=2))
