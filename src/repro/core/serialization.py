"""Sketch (de)serialization — the wire format of the poll protocol.

The controller "periodically retrieves the counters being maintained by
the data plane"; in any real deployment those counters cross a network.
This module defines a compact, versioned binary encoding for the
sketches the poll loop ships:

- header: magic ``b"UMS2"`` + a type tag,
- fixed little-endian struct fields for the geometry and seed,
- counter blocks ``u8 width | u32 nbytes | counters``: each table in the
  narrowest signed little-endian width (1, 2, 4 or 8 bytes) that holds
  both its minimum and its maximum, widened back to ``int64`` on read,
- heaps as ``(key, estimate)`` arrays.

A sealed epoch's counters are small integers (the largest is in the
hundreds at fleet scale), so most blocks cross the wire one byte per
counter.  ``UMS1`` bodies, which carried every counter as ``int64``,
are rejected: there is one reader.

Only seeded sketches can be serialized: the hash functions are *not*
shipped (they are large and derivable), so the receiver reconstructs
them from the seed — which is also what keeps the format compact enough
for a 5-second polling cadence.  Before a reader builds a sketch it
checks that the bytes left can hold the declared geometry at one byte
per counter, so a tiny body cannot demand a large allocation.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Union

import numpy as np

from repro.errors import ConfigurationError, TraceFormatError
from repro.core.universal import UniversalSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.kary import KArySketch
from repro.sketches.topk import TopK

_MAGIC = b"UMS2"

_TYPE_COUNT_SKETCH = 1
_TYPE_COUNT_MIN = 2
_TYPE_KARY = 3
_TYPE_UNIVERSAL = 4

# Sanity ceilings for deserialized geometry.  A corrupt or hostile header
# must not translate into a multi-gigabyte allocation or a numpy reshape
# traceback; anything outside these bounds is rejected as a format error.
# The largest geometry the experiments use is orders of magnitude smaller.
MAX_LEVELS = 64
MAX_ROWS = 512
MAX_WIDTH = 1 << 24
MAX_HEAP = 1 << 20

#: One heap entry on the wire: ``struct`` format ``"<Qd"``.
_HEAP_ENTRY = np.dtype([("key", "<u8"), ("estimate", "<f8")])


def _check_range(name: str, value: int, lo: int, hi: int) -> int:
    if not lo <= value <= hi:
        raise TraceFormatError(
            f"corrupt sketch payload: {name}={value} outside [{lo}, {hi}]")
    return value


def check_geometry(levels: int, rows: int, width: int,
                   heap_size: int) -> None:
    """Reject universal-sketch geometry outside the sanity ceilings.

    Raises :class:`~repro.errors.TraceFormatError` — the caller decides
    whether that means a corrupt file or a hostile peer.
    """
    _check_range("levels", levels, 0, MAX_LEVELS)
    _check_range("rows", rows, 1, MAX_ROWS)
    _check_range("width", width, 1, MAX_WIDTH)
    _check_range("heap_size", heap_size, 1, MAX_HEAP)


def _require_seed(sketch) -> int:
    if sketch.seed is None:
        raise ConfigurationError(
            f"{type(sketch).__name__} must have an explicit seed to be "
            f"serialized (hash functions are reconstructed from it)")
    return int(sketch.seed)


#: The counter widths a table block may use, narrowest first, by byte
#: count, each with the range it holds.
_COUNTER_WIDTHS = {
    dt.itemsize: (dt, int(np.iinfo(dt).min), int(np.iinfo(dt).max))
    for dt in map(np.dtype, ("<i1", "<i2", "<i4", "<i8"))}

#: A counter block's prefix: ``u8 width | u32 nbytes``.
_TABLE_PREFIX = struct.Struct("<BI")


def _write_table(out: BinaryIO, table: np.ndarray, lo: int,
                 hi: int) -> None:
    """One counter block for ``table``, whose smallest and largest
    counters are ``lo`` and ``hi``."""
    for dtype, dt_min, dt_max in _COUNTER_WIDTHS.values():
        if dt_min <= lo and hi <= dt_max:
            break
    data = table.astype(dtype).tobytes()
    out.write(_TABLE_PREFIX.pack(dtype.itemsize, len(data)))
    out.write(data)


def _read_table(buf: BinaryIO, table: np.ndarray) -> None:
    """Decode one counter block into ``table``, an ``int64`` array of
    the block's ``(rows, width)`` shape that the sketch owns (never a
    view of the payload)."""
    rows, width = table.shape
    itemsize, nbytes = _TABLE_PREFIX.unpack(
        _read_exact(buf, _TABLE_PREFIX.size))
    if itemsize not in _COUNTER_WIDTHS:
        raise TraceFormatError(
            f"corrupt sketch payload: table counter width {itemsize} is "
            f"not 1, 2, 4 or 8 bytes")
    dtype = _COUNTER_WIDTHS[itemsize][0]
    expected = rows * width * itemsize
    if nbytes != expected:
        raise TraceFormatError(
            f"corrupt sketch payload: table block is {nbytes} bytes, "
            f"expected {expected} for {rows}x{width} {itemsize}-byte "
            f"counters")
    raw = _read_exact(buf, nbytes)
    table[...] = np.frombuffer(raw, dtype=dtype).reshape(rows, width)


def _check_room(buf: BinaryIO, counters: int, minimum: int) -> None:
    """Reject a declared geometry whose smallest encoding (``minimum``
    bytes, one byte per counter) is larger than what is left of the
    payload, before any sketch is allocated for it."""
    here = buf.tell()
    left = buf.seek(0, io.SEEK_END) - here
    buf.seek(here)
    if left < minimum:
        raise TraceFormatError(
            f"corrupt sketch payload: geometry declares {counters} "
            f"counters (at least {minimum} bytes) but only {left} "
            f"payload bytes are left")


def _read_exact(buf: BinaryIO, n: int) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise TraceFormatError(
            f"truncated sketch payload: wanted {n} bytes, got {len(data)}")
    return data


def _write_topk(out: BinaryIO, topk: TopK) -> None:
    keys, estimates = topk.ranked()
    block = np.empty(len(keys), dtype=_HEAP_ENTRY)
    block["key"] = keys
    block["estimate"] = estimates
    out.write(struct.pack("<II", topk.capacity, len(block)))
    out.write(block.tobytes())


def _read_topk(buf: BinaryIO, heap_size: int) -> TopK:
    capacity, count = struct.unpack("<II", _read_exact(buf, 8))
    if capacity != heap_size:
        raise TraceFormatError(
            f"corrupt sketch payload: level heap capacity {capacity} "
            f"differs from the sketch's heap_size {heap_size}")
    if count > capacity:
        raise TraceFormatError(
            f"corrupt sketch payload: heap holds {count} items but its "
            f"capacity is {capacity}")
    block = np.frombuffer(_read_exact(buf, count * _HEAP_ENTRY.itemsize),
                          dtype=_HEAP_ENTRY)
    # astype copies: the heap owns writable arrays, not payload views.
    keys = block["key"].astype(np.uint64)
    estimates = block["estimate"].astype(np.float64)
    finite = np.isfinite(estimates)
    if not finite.all():
        i = int(np.argmin(finite))
        raise TraceFormatError(
            f"corrupt sketch payload: heap estimate {estimates[i]} for "
            f"key {keys[i]} is not finite")
    ordered = np.sort(keys)
    twice = ordered[1:] == ordered[:-1]
    if twice.any():
        raise TraceFormatError(
            f"corrupt sketch payload: heap lists key "
            f"{ordered[1:][twice][0]} twice")
    return TopK.from_arrays(capacity, keys, estimates)


# --------------------------------------------------------------------- #
# per-type encoders
# --------------------------------------------------------------------- #

def _dump_count_sketch(out: BinaryIO, sketch: CountSketch,
                       type_tag: int) -> None:
    out.write(_MAGIC)
    out.write(struct.pack("<BIIq", type_tag, sketch.rows, sketch.width,
                          _require_seed(sketch)))
    table = sketch.table
    _write_table(out, table, int(table.min()), int(table.max()))


def _load_tableau(buf: BinaryIO, cls, type_name: str):
    rows, width, seed = struct.unpack("<IIq", _read_exact(buf, 16))
    _check_range("rows", rows, 1, MAX_ROWS)
    _check_range("width", width, 1, MAX_WIDTH)
    _check_room(buf, rows * width, _TABLE_PREFIX.size + rows * width)
    sketch = cls(rows=rows, width=width, seed=seed)
    _read_table(buf, sketch.table)
    return sketch


def _dump_universal(out: BinaryIO, sketch: UniversalSketch) -> None:
    out.write(_MAGIC)
    out.write(struct.pack(
        "<BIIIIqq", _TYPE_UNIVERSAL, sketch.num_levels, sketch.rows,
        sketch.width, sketch.heap_size, _require_seed(sketch),
        sketch.packets))
    # Every level's block width from one reduction over the tensor.
    counters = sketch.counters
    lows = counters.min(axis=(1, 2)).tolist()
    highs = counters.max(axis=(1, 2)).tolist()
    for level, table, lo, hi in zip(sketch.levels, counters, lows, highs):
        out.write(struct.pack("<qq", level.packets, level.weight))
        _write_table(out, table, lo, hi)
        _write_topk(out, level.topk)


def _load_universal(buf: BinaryIO) -> UniversalSketch:
    levels, rows, width, heap_size, seed, packets = struct.unpack(
        "<IIIIqq", _read_exact(buf, 32))
    check_geometry(levels, rows, width, heap_size)
    if packets < 0:
        raise TraceFormatError(
            f"corrupt sketch payload: negative packet count {packets}")
    # Per level: packets and weight (16), the counter block, and the
    # heap's capacity and count (8).
    _check_room(buf, (levels + 1) * rows * width,
                (levels + 1) * (16 + _TABLE_PREFIX.size + rows * width + 8))
    # The level blocks decode straight into the sketch's one tensor.
    counters = np.empty((levels + 1, rows, width), dtype=np.int64)
    totals, heaps = [], []
    for j, table in enumerate(counters):
        # Weights may be negative (weighted ingest allows it); packet
        # counts may not.
        level_packets, weight = struct.unpack("<qq", _read_exact(buf, 16))
        if level_packets < 0:
            raise TraceFormatError(
                f"corrupt sketch payload: level {j} has negative packet "
                f"count {level_packets}")
        totals.append((level_packets, weight))
        _read_table(buf, table)
        heaps.append(_read_topk(buf, heap_size))
    sketch = UniversalSketch.around(counters, heap_size, seed, heaps)
    sketch.packets = packets
    for level, (level_packets, weight) in zip(sketch.levels, totals):
        level.packets = level_packets
        level.weight = weight
    return sketch


# --------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------- #

def dumps(sketch) -> bytes:
    """Serialize a seeded sketch to bytes."""
    out = io.BytesIO()
    if isinstance(sketch, UniversalSketch):
        _dump_universal(out, sketch)
    elif isinstance(sketch, CountSketch):
        _dump_count_sketch(out, sketch, _TYPE_COUNT_SKETCH)
    elif isinstance(sketch, CountMinSketch):
        if sketch.conservative:
            raise ConfigurationError(
                "conservative CountMin carries no extra state but is "
                "flagged non-linear; serialize the plain variant")
        _dump_count_sketch(out, sketch, _TYPE_COUNT_MIN)
    elif isinstance(sketch, KArySketch):
        _dump_count_sketch(out, sketch, _TYPE_KARY)
    else:
        raise ConfigurationError(
            f"no serializer for {type(sketch).__name__}")
    return out.getvalue()


def loads(data: Union[bytes, bytearray]):
    """Reconstruct a sketch serialized by :func:`dumps`.

    Truncated or corrupt payloads raise :class:`TraceFormatError` — never
    a raw ``struct.error`` or numpy reshape traceback — so transport
    layers can treat any decode failure uniformly.  The payload must
    hold exactly one sketch: trailing bytes are rejected too.
    """
    buf = io.BytesIO(bytes(data))
    magic = buf.read(4)
    if magic != _MAGIC:
        raise TraceFormatError(f"bad sketch magic {magic!r}")
    try:
        (type_tag,) = struct.unpack("<B", _read_exact(buf, 1))
        if type_tag == _TYPE_UNIVERSAL:
            sketch = _load_universal(buf)
        elif type_tag == _TYPE_COUNT_SKETCH:
            sketch = _load_tableau(buf, CountSketch, "CountSketch")
        elif type_tag == _TYPE_COUNT_MIN:
            sketch = _load_tableau(buf, CountMinSketch, "CountMinSketch")
        elif type_tag == _TYPE_KARY:
            sketch = _load_tableau(buf, KArySketch, "KArySketch")
        else:
            raise TraceFormatError(f"unknown sketch type tag {type_tag}")
    except (struct.error, ValueError, OverflowError) as exc:
        raise TraceFormatError(f"corrupt sketch payload: {exc}") from exc
    if buf.read(1):
        raise TraceFormatError(
            "corrupt sketch payload: trailing bytes after the sketch")
    return sketch
