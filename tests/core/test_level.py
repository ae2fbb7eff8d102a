"""Tests for one universal-sketch level (Count Sketch + Q_j heap)."""

import numpy as np
import pytest

from repro.core.level import SketchLevel


class TestScalarUpdate:
    def test_counts_and_weight_tracked(self):
        lvl = SketchLevel(rows=3, width=64, heap_size=8, seed=1)
        lvl.update(1, 5)
        lvl.update(2)
        assert lvl.packets == 2
        assert lvl.weight == 6

    def test_heap_tracks_heavy_keys(self):
        lvl = SketchLevel(rows=5, width=256, heap_size=4, seed=2)
        lvl.update(100, 1000)
        for k in range(50):
            lvl.update(k, 1)
        hh = lvl.heavy_hitters()
        assert hh[0][0] == 100
        assert abs(hh[0][1] - 1000) / 1000 < 0.1

    def test_update_estimate_matches_sketch_query(self):
        lvl = SketchLevel(rows=3, width=64, heap_size=16, seed=3)
        for k in [1, 2, 1, 1, 3]:
            lvl.update(k)
        for key, est in lvl.heavy_hitters():
            assert est == pytest.approx(lvl.sketch.query(key))


class TestBulkUpdate:
    def test_counters_match_scalar_path(self):
        a = SketchLevel(rows=3, width=64, heap_size=8, seed=4)
        b = SketchLevel(rows=3, width=64, heap_size=8, seed=4)
        keys = np.array([5, 5, 9, 2, 5], dtype=np.uint64)
        a.update_array(keys)
        for k in keys.tolist():
            b.update(int(k))
        assert np.array_equal(a.sketch.table, b.sketch.table)
        assert a.packets == b.packets and a.weight == b.weight

    def test_bulk_with_weights(self):
        lvl = SketchLevel(rows=3, width=64, heap_size=8, seed=5)
        lvl.update_array(np.array([1, 2], dtype=np.uint64),
                         np.array([10, 20], dtype=np.int64))
        assert lvl.weight == 30

    def test_empty_batch_noop(self):
        lvl = SketchLevel(rows=3, width=64, heap_size=8, seed=6)
        lvl.update_array(np.array([], dtype=np.uint64))
        assert lvl.packets == 0

    def test_bulk_heap_has_top_keys(self):
        lvl = SketchLevel(rows=5, width=512, heap_size=4, seed=7)
        keys = np.concatenate([
            np.full(500, 111, dtype=np.uint64),
            np.full(300, 222, dtype=np.uint64),
            np.arange(100, dtype=np.uint64),
        ])
        lvl.update_array(keys)
        top_keys = [k for k, _ in lvl.heavy_hitters()[:2]]
        assert set(top_keys) == {111, 222}


class TestAccounting:
    def test_memory_includes_sketch_and_heap(self):
        lvl = SketchLevel(rows=3, width=64, heap_size=8, seed=1)
        assert lvl.memory_bytes() == 3 * 64 * 4 + 8 * 16

    def test_update_cost_includes_heap_touch(self):
        lvl = SketchLevel(rows=3, width=64, heap_size=8, seed=1)
        assert lvl.update_cost().memory_words == 3 + 1
