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


class TestSparseAndEmptyStates:
    """Boundary states the frame codec leans on: empty sketches (a
    restarted switch's first poll), heap-only occupancy, and geometry
    at the serializer's documented limits."""

    def assert_round_trips(self, u):
        back = serialization.loads(serialization.dumps(u))
        assert back.packets == u.packets
        assert len(back.levels) == len(u.levels)
        for la, lb in zip(u.levels, back.levels):
            assert np.array_equal(la.sketch.table, lb.sketch.table)
            assert dict(la.topk.items()) == dict(lb.topk.items())
            assert (la.packets, la.weight) == (lb.packets, lb.weight)
        return back

    def test_empty_universal_round_trip(self):
        u = UniversalSketch(levels=4, rows=2, width=64, heap_size=8, seed=1)
        back = self.assert_round_trips(u)
        assert back.packets == 0
        assert all(not lv.sketch.table.any() for lv in back.levels)

    def test_zero_levels_round_trip(self):
        u = UniversalSketch(levels=0, rows=2, width=32, heap_size=4, seed=1)
        u.update(11)
        self.assert_round_trips(u)

    def test_single_key_sparse_round_trip(self):
        # One update leaves all-but-rows counters zero per level and a
        # single heap entry; the sparse state must survive exactly.
        u = UniversalSketch(levels=4, rows=2, width=64, heap_size=8, seed=1)
        u.update(42, 3)
        back = self.assert_round_trips(u)
        assert back.levels[0].topk.items() == [(42, 3.0)]

    def test_heap_only_levels_round_trip(self):
        # Deep levels often have heap entries but near-empty tables.
        u = UniversalSketch(levels=8, rows=1, width=8, heap_size=4, seed=2)
        for key in range(4):
            u.update(key)
        self.assert_round_trips(u)

    def test_max_levels_geometry_round_trip(self):
        u = UniversalSketch(levels=serialization.MAX_LEVELS, rows=1,
                            width=8, heap_size=2, seed=3)
        u.update(5)
        self.assert_round_trips(u)

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

    # magic(4) | tag(1) | levels(4) rows(4) width(4) heap(4) seed(8)
    # packets(8) | per level: packets(8) weight(8) nbytes(4) table ...
    _HDR = struct.Struct("<BIIIIqq")

    def _universal_header(self, levels=1, rows=1, width=8, heap=4,
                          seed=1, packets=0):
        return b"UMS1" + self._HDR.pack(4, levels, rows, width, heap,
                                        seed, packets)

    def test_truncation_at_every_offset_rejected(self):
        data = serialization.dumps(filled_universal())
        for cut in range(0, len(data), max(1, len(data) // 64)):
            with pytest.raises(TraceFormatError):
                serialization.loads(data[:cut])

    def test_hostile_width_rejected_before_allocation(self):
        # A 2**31 width would mean a multi-GB table allocation.
        with pytest.raises(TraceFormatError, match="width"):
            serialization.loads(self._universal_header(width=2 ** 31))

    def test_hostile_level_count_rejected(self):
        with pytest.raises(TraceFormatError, match="levels"):
            serialization.loads(self._universal_header(levels=10_000))

    def test_hostile_heap_capacity_rejected(self):
        with pytest.raises(TraceFormatError, match="heap"):
            serialization.loads(self._universal_header(heap=2 ** 30))

    def test_negative_packets_rejected(self):
        with pytest.raises(TraceFormatError):
            serialization.loads(self._universal_header(packets=-1))

    def test_table_size_mismatch_rejected(self):
        data = bytearray(serialization.dumps(
            CountSketch(rows=2, width=8, seed=1)))
        # tableau layout: magic(4) tag(1) rows(4) width(4) seed(8)
        # then table nbytes(4); lie about the table length.
        struct.pack_into("<I", data, 21, 8)
        with pytest.raises(TraceFormatError, match="table"):
            serialization.loads(bytes(data))

    def test_heap_count_above_capacity_rejected(self):
        u = UniversalSketch(levels=1, rows=1, width=8, heap_size=4, seed=1)
        data = bytearray(serialization.dumps(u))
        # First level's topk header follows the 37-byte universal header
        # plus packets/weight (16) and the length-prefixed table.
        table_off = 37 + 16
        (nbytes,) = struct.unpack_from("<I", data, table_off)
        count_off = table_off + 4 + nbytes + 4  # skip capacity field
        struct.pack_into("<I", data, count_off, u.heap_size + 1)
        with pytest.raises(TraceFormatError, match="capacity"):
            serialization.loads(bytes(data))

    # Level 0 of a levels=1, rows=1, width=8, heap_size=8 sketch: the
    # 37-byte header, then packets(8) weight(8) nbytes(4) table(64),
    # then heap capacity(4) count(4) and 16-byte (key, estimate) items.
    _LEVEL0 = 37
    _CAPACITY = _LEVEL0 + 16 + 4 + 64
    _ITEMS = _CAPACITY + 8

    def _heap_payload(self):
        u = UniversalSketch(levels=1, rows=1, width=8, heap_size=8, seed=1)
        u.update_array(np.arange(20, dtype=np.uint64))
        assert len(u.levels[0].topk) == 8
        return bytearray(serialization.dumps(u))

    def test_trailing_bytes_rejected(self):
        for sketch in (filled_universal(), CountSketch(rows=2, width=8,
                                                       seed=1)):
            data = serialization.dumps(sketch) + b"\x00\x00"
            with pytest.raises(TraceFormatError, match="trailing"):
                serialization.loads(data)

    def test_non_finite_heap_estimate_rejected(self):
        data = self._heap_payload()
        struct.pack_into("<d", data, self._ITEMS + 8, float("nan"))
        with pytest.raises(TraceFormatError, match="finite"):
            serialization.loads(bytes(data))

    def test_duplicate_heap_keys_rejected(self):
        data = self._heap_payload()
        data[self._ITEMS + 16:self._ITEMS + 24] = \
            data[self._ITEMS:self._ITEMS + 8]
        with pytest.raises(TraceFormatError, match="twice"):
            serialization.loads(bytes(data))

    def test_heap_capacity_must_match_heap_size(self):
        data = self._heap_payload()
        struct.pack_into("<I", data, self._CAPACITY, 1000)
        with pytest.raises(TraceFormatError, match="heap_size"):
            serialization.loads(bytes(data))

    def test_negative_level_packets_rejected(self):
        data = self._heap_payload()
        struct.pack_into("<q", data, self._LEVEL0, -5)
        with pytest.raises(TraceFormatError, match="negative"):
            serialization.loads(bytes(data))

    def test_truncated_heap_block_rejected(self):
        data = self._heap_payload()
        # Cut inside level 0's heap block, which holds 8 entries.
        with pytest.raises(TraceFormatError, match="truncated"):
            serialization.loads(bytes(data[:self._ITEMS + 8 * 16 - 3]))

    def test_negative_level_weight_accepted(self):
        # Weighted ingest allows negative weights, so a level's weight
        # may be negative on the wire.
        u = UniversalSketch(levels=1, rows=1, width=8, heap_size=8, seed=1)
        u.update_array(np.arange(4, dtype=np.uint64),
                       weights=np.full(4, -3, dtype=np.int64))
        back = serialization.loads(serialization.dumps(u))
        assert back.levels[0].weight == u.levels[0].weight < 0
        assert back.levels[0].topk.items() == u.levels[0].topk.items()


def _reference_heap_bytes(topk):
    """A heap block as the per-entry ``struct`` writer produced it."""
    items = topk.items()
    out = struct.pack("<II", topk.capacity, len(items))
    for key, estimate in items:
        out += struct.pack("<Qd", key, estimate)
    return out


def _heap_blocks(data, sketch):
    """Each level's heap block, cut out of a universal payload."""
    blocks, offset = [], 37
    for _ in sketch.levels:
        offset += 16
        (nbytes,) = struct.unpack_from("<I", data, offset)
        offset += 4 + nbytes
        _, count = struct.unpack_from("<II", data, offset)
        blocks.append(bytes(data[offset:offset + 8 + 16 * count]))
        offset += 8 + 16 * count
    assert offset == len(data)
    return blocks


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
