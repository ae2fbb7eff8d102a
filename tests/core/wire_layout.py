"""Byte offsets inside serialized sketch bodies, for tests that corrupt
one field of a payload.

Universal body (``UMS2``): magic(4) tag(1) levels(4) rows(4) width(4)
heap(4) seed(8) packets(8), then per level: packets(8) weight(8), the
counter block -- width(1) nbytes(4) counters -- then the heap block --
capacity(4) count(4) and 16-byte (key, estimate) items.

Tableau body: magic(4) tag(1) rows(4) width(4) seed(8), then one
counter block.

Offsets past the header depend on each table's counter width, so they
are read off the body at hand by :func:`universal_layout`, never
hard-coded.
"""

import struct
from typing import List, NamedTuple

from repro.core import serialization

MAGIC = b"UMS2"

#: Universal header after the magic: tag, levels, rows, width, heap,
#: seed, packets.
UNIVERSAL_HEADER = struct.Struct("<BIIIIqq")
UNIVERSAL_LEVELS_AT = 5
UNIVERSAL_WIDTH_AT = 13
LEVEL0_AT = len(MAGIC) + UNIVERSAL_HEADER.size

#: A counter block's prefix: counter width (bytes), block length.
TABLE_PREFIX = struct.Struct("<BI")

#: The tableau body's counter block.
TABLEAU_TABLE_AT = 21
TABLEAU_NBYTES_AT = TABLEAU_TABLE_AT + 1


class LevelLayout(NamedTuple):
    """Where one level's fields sit in a universal body."""

    packets: int        # <q level packets, then <q weight
    counter_width: int  # <B bytes per counter, then <I block length
    capacity: int       # <I heap capacity
    count: int          # <I heap entries
    items: int          # first (key, estimate) item
    end: int            # one past the level's last byte


def universal_header(levels=1, rows=1, width=8, heap=4, seed=1,
                     packets=0):
    """The first ``LEVEL0_AT`` bytes of a universal body."""
    return MAGIC + UNIVERSAL_HEADER.pack(4, levels, rows, width, heap,
                                         seed, packets)


def universal_layout(body) -> List[LevelLayout]:
    """Each level's field offsets, walking a universal body's counter
    and heap blocks; the walk must end exactly at the body's end."""
    (levels,) = struct.unpack_from("<I", body, UNIVERSAL_LEVELS_AT)
    offset, layout = LEVEL0_AT, []
    for _ in range(levels + 1):
        packets = offset
        counter_width = offset + 16
        _, nbytes = TABLE_PREFIX.unpack_from(body, counter_width)
        capacity = counter_width + TABLE_PREFIX.size + nbytes
        (count,) = struct.unpack_from("<I", body, capacity + 4)
        items = capacity + 8
        offset = items + 16 * count
        layout.append(LevelLayout(packets, counter_width, capacity,
                                  capacity + 4, items, offset))
    assert offset == len(body)
    return layout


def ums1_body(sketch) -> bytes:
    """``sketch`` in the retired ``UMS1`` layout: the same fields, with
    every counter block ``u32 nbytes`` and ``int64`` counters."""
    body = serialization.dumps(sketch)
    if not hasattr(sketch, "levels"):
        table = sketch.table
        return (b"UMS1" + body[len(MAGIC):TABLEAU_TABLE_AT]
                + struct.pack("<I", table.nbytes)
                + table.astype("<i8").tobytes())
    old = bytearray(b"UMS1" + body[len(MAGIC):LEVEL0_AT])
    for level, at in zip(sketch.levels, universal_layout(body)):
        table = level.sketch.table
        old += body[at.packets:at.counter_width]     # packets, weight
        old += struct.pack("<I", table.nbytes)
        old += table.astype("<i8").tobytes()
        old += body[at.capacity:at.end]              # the heap block
    return bytes(old)
