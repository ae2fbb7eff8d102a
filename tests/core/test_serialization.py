"""Round-trip tests for the sketch wire format."""

import struct

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceFormatError
from repro.core import serialization
from repro.core.gsum import estimate_cardinality, estimate_entropy
from repro.core.universal import UniversalSketch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.kary import KArySketch
from tests.core.wire_layout import (
    LEVEL0_AT,
    TABLEAU_NBYTES_AT,
    TABLEAU_TABLE_AT,
    ums1_body,
    universal_header,
    universal_layout,
)


def filled_universal(seed=5):
    u = UniversalSketch(levels=6, rows=3, width=256, heap_size=16, seed=seed)
    rng = np.random.default_rng(1)
    u.update_array(rng.integers(0, 2000, size=5000).astype(np.uint64))
    return u


class TestRoundTrips:
    def test_count_sketch(self):
        cs = CountSketch(rows=3, width=64, seed=2)
        cs.update(42, 10)
        back = serialization.loads(serialization.dumps(cs))
        assert isinstance(back, CountSketch)
        assert np.array_equal(back.table, cs.table)
        assert back.query(42) == cs.query(42)  # hashes rebuilt from seed

    def test_count_min(self):
        cm = CountMinSketch(rows=3, width=64, seed=3)
        cm.update(7, 5)
        back = serialization.loads(serialization.dumps(cm))
        assert isinstance(back, CountMinSketch)
        assert back.query(7) == 5

    def test_kary(self):
        ks = KArySketch(rows=3, width=64, seed=4)
        ks.update(9, 100)
        back = serialization.loads(serialization.dumps(ks))
        assert isinstance(back, KArySketch)
        assert abs(back.query(9) - 100) < 10

    def test_universal_full_state(self):
        u = filled_universal()
        back = serialization.loads(serialization.dumps(u))
        assert isinstance(back, UniversalSketch)
        assert back.packets == u.packets
        assert back.total_weight == u.total_weight
        for la, lb in zip(u.levels, back.levels):
            assert np.array_equal(la.sketch.table, lb.sketch.table)
            assert dict(la.topk.items()) == dict(lb.topk.items())
            assert (la.packets, la.weight) == (lb.packets, lb.weight)

    def test_universal_estimates_survive(self):
        u = filled_universal()
        back = serialization.loads(serialization.dumps(u))
        assert estimate_cardinality(back) == \
            pytest.approx(estimate_cardinality(u))
        assert estimate_entropy(back) == pytest.approx(estimate_entropy(u))

    def test_deserialized_is_mergeable_with_original(self):
        """The point of reconstructing hashes from the seed."""
        u = filled_universal(seed=6)
        back = serialization.loads(serialization.dumps(u))
        merged = u.merge(back)
        assert merged.total_weight == 2 * u.total_weight


def assert_round_trips(u):
    back = serialization.loads(serialization.dumps(u))
    assert back.packets == u.packets
    assert len(back.levels) == len(u.levels)
    for la, lb in zip(u.levels, back.levels):
        assert np.array_equal(la.sketch.table, lb.sketch.table)
        assert dict(la.topk.items()) == dict(lb.topk.items())
        assert (la.packets, la.weight) == (lb.packets, lb.weight)
    return back


class TestSparseAndEmptyStates:
    """Boundary states the frame codec leans on: empty sketches (a
    restarted switch's first poll), heap-only occupancy, and geometry
    at the serializer's documented limits."""

    def test_empty_universal_round_trip(self):
        u = UniversalSketch(levels=4, rows=2, width=64, heap_size=8, seed=1)
        back = assert_round_trips(u)
        assert back.packets == 0
        assert all(not lv.sketch.table.any() for lv in back.levels)

    def test_zero_levels_round_trip(self):
        u = UniversalSketch(levels=0, rows=2, width=32, heap_size=4, seed=1)
        u.update(11)
        assert_round_trips(u)

    def test_single_key_sparse_round_trip(self):
        # One update leaves all-but-rows counters zero per level and a
        # single heap entry; the sparse state must survive exactly.
        u = UniversalSketch(levels=4, rows=2, width=64, heap_size=8, seed=1)
        u.update(42, 3)
        back = assert_round_trips(u)
        assert back.levels[0].topk.items() == [(42, 3.0)]

    def test_heap_only_levels_round_trip(self):
        # Deep levels often have heap entries but near-empty tables.
        u = UniversalSketch(levels=8, rows=1, width=8, heap_size=4, seed=2)
        for key in range(4):
            u.update(key)
        assert_round_trips(u)

    def test_max_levels_geometry_round_trip(self):
        u = UniversalSketch(levels=serialization.MAX_LEVELS, rows=1,
                            width=8, heap_size=2, seed=3)
        u.update(5)
        assert_round_trips(u)

    def test_empty_tableau_sketches_round_trip(self):
        for cls in (CountSketch, CountMinSketch, KArySketch):
            sk = cls(rows=2, width=8, seed=9)
            back = serialization.loads(serialization.dumps(sk))
            assert isinstance(back, cls)
            assert np.array_equal(back.table, sk.table)
            assert not back.table.any()


class TestErrors:
    def test_unseeded_rejected(self):
        with pytest.raises(ConfigurationError):
            serialization.dumps(CountSketch(rows=2, width=8))

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            serialization.dumps(object())

    def test_conservative_cm_rejected(self):
        cm = CountMinSketch(rows=2, width=8, seed=1, conservative=True)
        with pytest.raises(ConfigurationError):
            serialization.dumps(cm)

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceFormatError):
            serialization.loads(b"NOPE" + b"\x00" * 40)

    def test_truncated_payload_rejected(self):
        data = serialization.dumps(CountSketch(rows=2, width=8, seed=1))
        with pytest.raises(TraceFormatError):
            serialization.loads(data[:len(data) // 2])

    def test_unknown_tag_rejected(self):
        data = bytearray(serialization.dumps(
            CountSketch(rows=2, width=8, seed=1)))
        data[4] = 99  # corrupt the type tag
        with pytest.raises(TraceFormatError):
            serialization.loads(bytes(data))


class TestHardening:
    """Hostile payloads must raise TraceFormatError — never a raw
    struct/numpy traceback or a giant allocation."""

    def test_truncation_at_every_offset_rejected(self):
        data = serialization.dumps(filled_universal())
        for cut in range(0, len(data), max(1, len(data) // 64)):
            with pytest.raises(TraceFormatError):
                serialization.loads(data[:cut])

    def test_hostile_width_rejected_before_allocation(self):
        # A 2**31 width would mean a multi-GB table allocation.
        with pytest.raises(TraceFormatError, match="width"):
            serialization.loads(universal_header(width=2 ** 31))

    def test_hostile_level_count_rejected(self):
        with pytest.raises(TraceFormatError, match="levels"):
            serialization.loads(universal_header(levels=10_000))

    def test_hostile_heap_capacity_rejected(self):
        with pytest.raises(TraceFormatError, match="heap"):
            serialization.loads(universal_header(heap=2 ** 30))

    def test_negative_packets_rejected(self):
        with pytest.raises(TraceFormatError):
            serialization.loads(universal_header(packets=-1))

    def test_table_size_mismatch_rejected(self):
        data = bytearray(serialization.dumps(
            CountSketch(rows=2, width=8, seed=1)))
        # Lie about the table length in the block's nbytes field.
        struct.pack_into("<I", data, TABLEAU_NBYTES_AT, 8)
        with pytest.raises(TraceFormatError, match="table"):
            serialization.loads(bytes(data))

    def test_heap_count_above_capacity_rejected(self):
        u = UniversalSketch(levels=1, rows=1, width=8, heap_size=4, seed=1)
        data = bytearray(serialization.dumps(u))
        count_at = universal_layout(data)[0].count
        struct.pack_into("<I", data, count_at, u.heap_size + 1)
        with pytest.raises(TraceFormatError, match="capacity"):
            serialization.loads(bytes(data))

    def _heap_payload(self):
        """A levels=1, rows=1, width=8, heap_size=8 body whose level-0
        heap holds 8 entries, with level 0's layout."""
        u = UniversalSketch(levels=1, rows=1, width=8, heap_size=8, seed=1)
        u.update_array(np.arange(20, dtype=np.uint64))
        assert len(u.levels[0].topk) == 8
        data = bytearray(serialization.dumps(u))
        return data, universal_layout(data)[0]

    def test_trailing_bytes_rejected(self):
        for sketch in (filled_universal(), CountSketch(rows=2, width=8,
                                                       seed=1)):
            data = serialization.dumps(sketch) + b"\x00\x00"
            with pytest.raises(TraceFormatError, match="trailing"):
                serialization.loads(data)

    def test_non_finite_heap_estimate_rejected(self):
        data, level0 = self._heap_payload()
        struct.pack_into("<d", data, level0.items + 8, float("nan"))
        with pytest.raises(TraceFormatError, match="finite"):
            serialization.loads(bytes(data))

    def test_duplicate_heap_keys_rejected(self):
        data, level0 = self._heap_payload()
        data[level0.items + 16:level0.items + 24] = \
            data[level0.items:level0.items + 8]
        with pytest.raises(TraceFormatError, match="twice"):
            serialization.loads(bytes(data))

    def test_heap_capacity_must_match_heap_size(self):
        data, level0 = self._heap_payload()
        struct.pack_into("<I", data, level0.capacity, 1000)
        with pytest.raises(TraceFormatError, match="heap_size"):
            serialization.loads(bytes(data))

    def test_negative_level_packets_rejected(self):
        data, level0 = self._heap_payload()
        assert level0.packets == LEVEL0_AT
        struct.pack_into("<q", data, level0.packets, -5)
        with pytest.raises(TraceFormatError, match="negative"):
            serialization.loads(bytes(data))

    def test_truncated_heap_block_rejected(self):
        data, level0 = self._heap_payload()
        # Cut inside level 0's heap block, which holds 8 entries.
        with pytest.raises(TraceFormatError, match="truncated"):
            serialization.loads(bytes(data[:level0.items + 8 * 16 - 3]))

    def test_negative_level_weight_accepted(self):
        # Weighted ingest allows negative weights, so a level's weight
        # may be negative on the wire.
        u = UniversalSketch(levels=1, rows=1, width=8, heap_size=8, seed=1)
        u.update_array(np.arange(4, dtype=np.uint64),
                       weights=np.full(4, -3, dtype=np.int64))
        back = serialization.loads(serialization.dumps(u))
        assert back.levels[0].weight == u.levels[0].weight < 0
        assert back.levels[0].topk.items() == u.levels[0].topk.items()


def _fitting_width(table):
    """The narrowest of 1, 2, 4 and 8 bytes whose signed range holds
    every counter of ``table``."""
    lo, hi = int(table.min()), int(table.max())
    for nbytes in (1, 2, 4, 8):
        bits = 8 * nbytes - 1
        if -(1 << bits) <= lo and hi < (1 << bits):
            return nbytes
    raise AssertionError(f"no width holds [{lo}, {hi}]")


def _counter_widths(data):
    """The width byte of every level's counter block."""
    return [data[level.counter_width] for level in universal_layout(data)]


#: (smallest counter, largest counter, width byte that must hold them).
WIDTH_EDGES = [
    (0, 0, 1),
    (-128, 127, 1),
    (-129, 0, 2),
    (0, 128, 2),
    (-(1 << 15), (1 << 15) - 1, 2),
    (-(1 << 15) - 1, 0, 4),
    (0, 1 << 15, 4),
    (-(1 << 31), (1 << 31) - 1, 4),
    (-(1 << 31) - 1, 0, 8),
    (0, 1 << 31, 8),
    (-(1 << 63), (1 << 63) - 1, 8),
]


class TestCounterWidths:
    """Each counter table crosses the wire in the narrowest signed
    width that holds it, and comes back as the same int64 table."""

    @pytest.mark.parametrize("lo,hi,nbytes", WIDTH_EDGES)
    def test_tableau_width_edges_round_trip(self, lo, hi, nbytes):
        for cls in (CountSketch, CountMinSketch, KArySketch):
            sk = cls(rows=2, width=8, seed=3)
            sk.table[0, 1], sk.table[1, 6] = lo, hi
            data = serialization.dumps(sk)
            assert data[TABLEAU_TABLE_AT] == nbytes
            assert len(data) == TABLEAU_NBYTES_AT + 4 + 16 * nbytes
            back = serialization.loads(data)
            assert back.table.dtype == np.int64
            assert np.array_equal(back.table, sk.table)

    @pytest.mark.parametrize("lo,hi,nbytes", WIDTH_EDGES)
    def test_universal_width_edges_round_trip(self, lo, hi, nbytes):
        u = filled_universal()
        table = u.levels[2].sketch.table
        table[0, 0], table[2, 255] = lo, hi
        data = serialization.dumps(u)
        widths = _counter_widths(data)
        assert widths[2] == max(nbytes, _fitting_width(table))
        assert_round_trips(u)

    def test_levels_need_different_widths(self):
        u = UniversalSketch(levels=4, rows=2, width=16, heap_size=4, seed=2)
        for j, value in enumerate((-100, 300, -70_000, 1 << 40)):
            u.levels[j].sketch.table[1, j] = value
        data = serialization.dumps(u)
        assert _counter_widths(data) == [1, 2, 4, 8, 1]
        back = assert_round_trips(u)
        assert all(lv.sketch.table.dtype == np.int64 for lv in back.levels)

    def test_subtracted_and_empty_sketches_take_the_narrowest_width(self):
        heavy = UniversalSketch(levels=6, rows=3, width=256, heap_size=16,
                                seed=5)
        heavy.update_array(np.full(1_000, 7, dtype=np.uint64))
        change = filled_universal().subtract(heavy)
        assert change.levels[0].sketch.table.min() < -128
        empty = UniversalSketch(levels=6, rows=3, width=256, heap_size=16,
                                seed=5)
        for u in (filled_universal(), change, empty):
            data = serialization.dumps(u)
            assert _counter_widths(data) == [
                _fitting_width(lv.sketch.table) for lv in u.levels]
            assert_round_trips(u)
        assert _counter_widths(serialization.dumps(empty)) == [1] * 7

    @pytest.mark.parametrize("bad", [0, 3, 16])
    def test_unknown_counter_width_rejected(self, bad):
        tableau = bytearray(serialization.dumps(
            CountSketch(rows=2, width=8, seed=1)))
        tableau[TABLEAU_TABLE_AT] = bad
        universal = bytearray(serialization.dumps(filled_universal()))
        universal[universal_layout(universal)[3].counter_width] = bad
        for data in (tableau, universal):
            with pytest.raises(TraceFormatError, match="width"):
                serialization.loads(bytes(data))

    def test_nbytes_of_another_width_rejected(self):
        # A one-byte table whose nbytes is what two-byte counters need,
        # and the width byte raised to 2 over the one-byte block.
        grown = bytearray(serialization.dumps(
            CountSketch(rows=2, width=8, seed=1)))
        assert grown[TABLEAU_TABLE_AT] == 1
        struct.pack_into("<I", grown, TABLEAU_NBYTES_AT, 2 * 2 * 8)
        widened = bytearray(serialization.dumps(filled_universal()))
        level = universal_layout(widened)[1]
        assert widened[level.counter_width] == 1
        widened[level.counter_width] = 2
        for data in (grown, widened):
            with pytest.raises(TraceFormatError, match="table"):
                serialization.loads(bytes(data))

    def test_ums1_body_rejected(self):
        cs = CountSketch(rows=2, width=8, seed=1)
        cs.update(3, 5)
        for sketch in (cs, filled_universal()):
            with pytest.raises(TraceFormatError, match="UMS1"):
                serialization.loads(ums1_body(sketch))


class TestDeclaredSizeCheck:
    """A body too short for the geometry it declares is rejected before
    any sketch is built for it."""

    @pytest.fixture
    def no_construction(self, monkeypatch):
        """Call to make any sketch construction inside ``loads`` fail."""
        def refuse(*args, **kwargs):
            raise AssertionError("a sketch was constructed")

        def install():
            for name in ("UniversalSketch", "CountSketch",
                         "CountMinSketch", "KArySketch"):
                monkeypatch.setattr(serialization, name, refuse)
        return install

    def test_huge_universal_geometry_rejected(self, no_construction):
        body = universal_header(levels=64, rows=512, width=1 << 24,
                                heap=16)
        no_construction()
        with pytest.raises(TraceFormatError, match="counters") as err:
            serialization.loads(body + bytes(20))
        counters = 65 * 512 * (1 << 24)
        assert f"declares {counters} counters" in str(err.value)
        assert "only 20 payload bytes" in str(err.value)

    def test_huge_tableau_geometry_rejected(self, no_construction):
        no_construction()
        for tag in (1, 2, 3):
            body = b"UMS2" + struct.pack("<BIIq", tag, 512, 1 << 24, 1)
            with pytest.raises(TraceFormatError, match="counters"):
                serialization.loads(body)

    def test_one_byte_short_of_the_minimum_rejected(self, no_construction):
        u = UniversalSketch(levels=3, rows=2, width=8, heap_size=4, seed=1)
        data = serialization.dumps(u)
        no_construction()
        with pytest.raises(TraceFormatError, match="counters"):
            serialization.loads(data[:-1])

    def test_minimum_is_an_empty_sketch(self):
        # The bound is tight: an empty sketch's body is exactly the
        # header plus one byte per counter and the fixed level fields.
        for levels, rows, width in ((0, 1, 1), (3, 2, 8), (5, 2, 256)):
            u = UniversalSketch(levels=levels, rows=rows, width=width,
                                heap_size=4, seed=1)
            data = serialization.dumps(u)
            assert len(data) == LEVEL0_AT + (levels + 1) * (
                16 + 5 + rows * width + 8)
            assert_round_trips(u)
            cs = CountSketch(rows=rows, width=width, seed=1)
            assert len(serialization.dumps(cs)) == \
                TABLEAU_TABLE_AT + 5 + rows * width


def _reference_heap_bytes(topk):
    """A heap block as the per-entry ``struct`` writer produced it."""
    items = topk.items()
    out = struct.pack("<II", topk.capacity, len(items))
    for key, estimate in items:
        out += struct.pack("<Qd", key, estimate)
    return out


def _heap_blocks(data, sketch):
    """Each level's heap block, cut out of a universal payload."""
    layout = universal_layout(data)
    assert len(layout) == len(sketch.levels)
    return [bytes(data[level.capacity:level.end]) for level in layout]


class TestHeapBlocks:
    def _sketches(self):
        negative = UniversalSketch(levels=3, rows=2, width=32, heap_size=8,
                                   seed=4)
        negative.update_array(np.arange(40, dtype=np.uint64),
                              weights=np.full(40, -7, dtype=np.int64))
        high = UniversalSketch(levels=2, rows=2, width=32, heap_size=8,
                               seed=4)
        high.update_array(np.array([0, (1 << 64) - 1, 1 << 63, 5],
                                   dtype=np.uint64))
        return [filled_universal(), negative, high,
                filled_universal().subtract(filled_universal(seed=5))]

    def test_block_bytes_equal_per_entry_struct_writer(self):
        for u in self._sketches():
            data = serialization.dumps(u)
            blocks = _heap_blocks(data, u)
            for level, block in zip(u.levels, blocks):
                assert block == _reference_heap_bytes(level.topk)

    def test_decoded_heaps_are_writable_copies(self):
        u = filled_universal()
        data = bytearray(serialization.dumps(u))
        back = serialization.loads(data)
        for la, lb in zip(u.levels, back.levels):
            keys, ests = lb.topk._keys, lb.topk._ests
            assert keys.flags.writeable and ests.flags.writeable
            assert keys.flags.owndata and ests.flags.owndata
            assert lb.topk.keys() == [k for k, _ in la.topk.items()]
            assert lb.topk.offers == len(la.topk)
        before = back.levels[0].topk.items()
        data[:] = bytes(len(data))      # the payload is not aliased
        assert back.levels[0].topk.items() == before
        heap = back.levels[0].topk      # and the heap mutates freely
        key = heap.keys()[0]
        heap.offer(key, 1e9)
        heap.offer_many(np.array([1 << 40], dtype=np.uint64),
                        np.array([2e9]))
        assert heap.estimate(key) == 1e9 and (1 << 40) in heap


class TestCompactness:
    def test_size_dominated_by_counters(self):
        """The wire size should be ~ counters * 8B, not hash tables."""
        u = UniversalSketch(levels=4, rows=3, width=256, heap_size=16,
                            seed=7)
        payload = serialization.dumps(u)
        counter_bytes = (4 + 1) * 3 * 256 * 8
        assert len(payload) < counter_bytes * 1.3
