"""Tests for the OpenSketch superspreader task."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.dataplane.keys import src_dst_key
from repro.opensketch.superspreader import SuperSpreaderTask


def pair(src: int, dst: int) -> int:
    return (src << 32) | dst


class TestConstruction:
    def test_requires_seed(self):
        with pytest.raises(ConfigurationError):
            SuperSpreaderTask()

    def test_source_extraction(self):
        assert SuperSpreaderTask.source_of(pair(0xC0A80101, 7)) == 0xC0A80101


class TestDetection:
    def test_scanner_detected(self):
        task = SuperSpreaderTask(seed=1)
        scanner = 0x0A000001
        for dst in range(500):
            task.update(pair(scanner, dst))
        # Normal host: few destinations, many packets each.
        normal = 0x0A000002
        for _ in range(50):
            for dst in range(3):
                task.update(pair(normal, dst))
        spreaders = {src for src, _ in task.superspreaders(100)}
        assert scanner in spreaders
        assert normal not in spreaders

    def test_repeat_contacts_not_counted(self):
        task = SuperSpreaderTask(seed=2)
        src = 0x0B000001
        for _ in range(1000):
            task.update(pair(src, 42))  # same destination over and over
        assert task.distinct_destinations(src) <= 2

    def test_estimate_tracks_truth(self):
        task = SuperSpreaderTask(seed=3)
        src = 0x0C000001
        for dst in range(300):
            task.update(pair(src, dst))
        est = task.distinct_destinations(src)
        assert abs(est - 300) / 300 < 0.15

    def test_bulk_path(self):
        task = SuperSpreaderTask(seed=4)
        keys = np.array([pair(1, d) for d in range(200)], dtype=np.uint64)
        task.update_array(keys)
        assert task.distinct_destinations(1) > 150

    def test_weight_ignored(self):
        """Contact uniqueness, not bytes, drives superspreaders."""
        task = SuperSpreaderTask(seed=5)
        task.update(pair(9, 1), weight=10_000)
        assert task.distinct_destinations(9) <= 2

    def test_no_superspreaders_in_normal_traffic(self):
        rng = np.random.default_rng(6)
        task = SuperSpreaderTask(seed=7)
        # 200 hosts each contacting <= 5 destinations.
        for src in range(200):
            for dst in rng.integers(0, 5, size=5):
                task.update(pair(src + 1, int(dst)))
        assert task.superspreaders(50) == []

    def test_memory_accounts_all_parts(self):
        task = SuperSpreaderTask(rows=3, width=1024, bloom_bits=1 << 12,
                                 heap_size=16, seed=8)
        assert task.memory_bytes() == \
            (1 << 12) // 8 + 3 * 1024 * 4 + 16 * 16


def _loop_task(keys, **kwargs):
    """The per-packet path over ``keys``: what ``update_array`` was."""
    task = SuperSpreaderTask(**kwargs)
    for key in keys.tolist():
        task.update(int(key))
    return task


class TestBulkMatchesLoop:
    """The vectorised bulk path leaves the Bloom bitmap and the
    first-contact Count-Min table exactly as the per-packet loop does."""

    @staticmethod
    def _pairs(seed, n, sources, destinations):
        gen = np.random.default_rng(seed)
        src = gen.integers(1, sources + 1, n, dtype=np.uint64)
        dst = gen.integers(0, destinations, n, dtype=np.uint64)
        return (src << np.uint64(32)) | dst

    @pytest.mark.parametrize("bloom_bits", [64, 1024, 1 << 18])
    def test_bitmap_and_table_equal_the_loop(self, bloom_bits):
        keys = self._pairs(bloom_bits, 5_000, 40, 300)
        kwargs = dict(rows=3, width=256, bloom_bits=bloom_bits,
                      heap_size=16, seed=11)
        loop = _loop_task(keys, **kwargs)
        bulk = SuperSpreaderTask(**kwargs)
        for chunk in np.array_split(keys, 3):
            bulk.update_array(chunk)
        assert np.array_equal(bulk._bloom._bitmap, loop._bloom._bitmap)
        assert np.array_equal(bulk._counts.table, loop._counts.table)

    def test_tiny_filter_has_false_positives(self):
        # At 64 bits most fresh pairs collide with set bits: the bulk
        # path must suppress exactly the first contacts the loop does.
        keys = self._pairs(3, 2_000, 50, 1_000)
        loop = _loop_task(keys, bloom_bits=64, seed=12)
        distinct = len(np.unique(keys))
        assert loop._counts.table[0].sum() < distinct
        bulk = SuperSpreaderTask(bloom_bits=64, seed=12)
        bulk.update_array(keys)
        assert np.array_equal(bulk._counts.table, loop._counts.table)

    def test_first_contact_flags_match_add_if_new(self):
        from repro.sketches.bloom import BloomFilter
        keys = self._pairs(4, 3_000, 20, 200)
        loop, bulk = (BloomFilter(bits=512, num_hashes=4, seed=5)
                      for _ in range(2))
        bulk.add_if_new_array(keys[:100])
        for key in keys[:100].tolist():
            loop.add_if_new(key)
        flags = [loop.add_if_new(key) for key in keys[100:].tolist()]
        assert bulk.add_if_new_array(keys[100:]).tolist() == flags
        assert np.array_equal(bulk._bitmap, loop._bitmap)

    def test_empty_batch_is_a_no_op(self):
        task = SuperSpreaderTask(seed=13)
        task.update_array(np.array([], dtype=np.uint64))
        assert not task._bloom._bitmap.any()
        assert not task._counts.table.any()
        assert task.superspreaders(0) == []
