"""Tests for Count Sketch: point queries, linearity, L2, accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, IncompatibleSketchError
from repro.sketches.countsketch import CountSketch


def _fill(sketch, frequencies):
    for key, count in frequencies.items():
        sketch.update(key, count)


class TestConstruction:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            CountSketch(rows=0, width=10)
        with pytest.raises(ConfigurationError):
            CountSketch(rows=3, width=0)

    def test_starts_empty(self):
        cs = CountSketch(rows=3, width=16, seed=1)
        assert cs.table.sum() == 0
        assert cs.query(7) == 0.0


class TestPointQuery:
    def test_single_key_exact(self):
        cs = CountSketch(rows=5, width=64, seed=1)
        cs.update(42, 10)
        assert cs.query(42) == 10.0

    def test_negative_weights_supported(self):
        cs = CountSketch(rows=5, width=64, seed=1)
        cs.update(42, 10)
        cs.update(42, -4)
        assert cs.query(42) == 6.0

    def test_sparse_stream_near_exact(self):
        cs = CountSketch(rows=5, width=512, seed=2)
        freqs = {k: k + 1 for k in range(20)}
        _fill(cs, freqs)
        for key, count in freqs.items():
            assert abs(cs.query(key) - count) <= 2

    def test_heavy_hitter_dominates_noise(self):
        cs = CountSketch(rows=5, width=256, seed=3)
        cs.update(999, 5000)
        for k in range(500):
            cs.update(k, 1)
        est = cs.query(999)
        assert abs(est - 5000) / 5000 < 0.05

    def test_query_many_matches_scalar(self):
        # A power-of-two width takes the packed bulk path, any other
        # width the generic one; odd rows have a single middle value,
        # even rows average the two middle values.
        for rows, width in ((4, 128), (5, 125), (6, 125)):
            cs = CountSketch(rows=rows, width=width, seed=4)
            _fill(cs, {k: 3 * k for k in range(1, 30)})
            keys = np.arange(1, 30, dtype=np.uint64)
            many = cs.query_many(keys)
            for k, v in zip(keys.tolist(), many.tolist()):
                assert cs.query(int(k)) == v

    def test_unbiasedness_over_seeds(self):
        """E[estimate] = true frequency: average over many seeds."""
        estimates = []
        for seed in range(300):
            cs = CountSketch(rows=1, width=8, seed=seed)
            cs.update(1, 100)
            for k in range(2, 30):
                cs.update(k, 5)
            estimates.append(cs.query(1))
        assert abs(np.mean(estimates) - 100) < 10


class TestBulkUpdate:
    def test_update_array_matches_scalar(self):
        a = CountSketch(rows=4, width=64, seed=5)
        b = CountSketch(rows=4, width=64, seed=5)
        keys = np.array([1, 2, 3, 1, 1, 9], dtype=np.uint64)
        a.update_array(keys)
        for k in keys.tolist():
            b.update(int(k))
        assert np.array_equal(a.table, b.table)

    def test_update_array_with_weights(self):
        a = CountSketch(rows=3, width=32, seed=6)
        b = CountSketch(rows=3, width=32, seed=6)
        keys = np.array([1, 2, 1], dtype=np.uint64)
        weights = np.array([10, -3, 4], dtype=np.int64)
        a.update_array(keys, weights)
        b.update(1, 10)
        b.update(2, -3)
        b.update(1, 4)
        assert np.array_equal(a.table, b.table)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 40),
                    min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_property_bulk_equals_scalar(self, keys):
        a = CountSketch(rows=3, width=16, seed=7)
        b = CountSketch(rows=3, width=16, seed=7)
        a.update_array(np.array(keys, dtype=np.uint64))
        for k in keys:
            b.update(k)
        assert np.array_equal(a.table, b.table)


class TestLinearity:
    def test_merge_equals_concatenated_stream(self):
        a = CountSketch(rows=4, width=64, seed=8)
        b = CountSketch(rows=4, width=64, seed=8)
        c = CountSketch(rows=4, width=64, seed=8)
        _fill(a, {1: 5, 2: 3})
        _fill(b, {2: 2, 7: 9})
        _fill(c, {1: 5, 2: 5, 7: 9})
        merged = a.merge(b)
        assert np.array_equal(merged.table, c.table)

    def test_subtract_estimates_difference(self):
        a = CountSketch(rows=5, width=128, seed=9)
        b = CountSketch(rows=5, width=128, seed=9)
        _fill(a, {1: 100, 2: 50})
        _fill(b, {1: 10, 2: 50, 3: 30})
        diff = a.subtract(b)
        assert diff.query(1) == pytest.approx(90)
        assert diff.query(2) == pytest.approx(0)
        assert diff.query(3) == pytest.approx(-30)

    def test_merge_requires_same_seed(self):
        a = CountSketch(rows=3, width=16, seed=1)
        b = CountSketch(rows=3, width=16, seed=2)
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)

    def test_merge_requires_explicit_seed(self):
        a = CountSketch(rows=3, width=16)
        b = CountSketch(rows=3, width=16)
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)

    def test_merge_requires_same_geometry(self):
        a = CountSketch(rows=3, width=16, seed=1)
        b = CountSketch(rows=3, width=32, seed=1)
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)

    def test_merge_rejects_other_types(self):
        from repro.sketches.countmin import CountMinSketch
        a = CountSketch(rows=3, width=16, seed=1)
        with pytest.raises(IncompatibleSketchError):
            a.merge(CountMinSketch(rows=3, width=16, seed=1))

    def test_merge_does_not_mutate_inputs(self):
        a = CountSketch(rows=3, width=16, seed=1)
        b = CountSketch(rows=3, width=16, seed=1)
        a.update(1, 5)
        b.update(2, 7)
        before_a, before_b = a.table.copy(), b.table.copy()
        a.merge(b)
        assert np.array_equal(a.table, before_a)
        assert np.array_equal(b.table, before_b)


class TestNorms:
    def test_l2_estimate_single_key(self):
        cs = CountSketch(rows=5, width=128, seed=10)
        cs.update(5, 30)
        assert cs.l2_estimate() == pytest.approx(30.0)

    def test_f2_reasonable_on_zipf(self, rng):
        keys = rng.zipf(1.5, size=5000) % 1000
        cs = CountSketch(rows=5, width=1024, seed=11)
        cs.update_array(keys.astype(np.uint64))
        counts = np.bincount(keys)
        true_f2 = float((counts.astype(float) ** 2).sum())
        assert abs(cs.f2_estimate() - true_f2) / true_f2 < 0.15


class TestAccounting:
    def test_memory_bytes_geometry(self):
        cs = CountSketch(rows=5, width=100, seed=1)
        assert cs.memory_bytes() == 5 * 100 * 4

    def test_memory_custom_counter_size(self):
        cs = CountSketch(rows=2, width=10, seed=1, counter_bytes=8)
        assert cs.memory_bytes() == 160

    def test_update_cost(self):
        cs = CountSketch(rows=5, width=100, seed=1)
        cost = cs.update_cost()
        assert cost.hashes == 5
        assert cost.counter_updates == 5

    def test_copy_is_independent(self):
        cs = CountSketch(rows=2, width=8, seed=1)
        cs.update(1, 5)
        cp = cs.copy()
        cp.update(1, 5)
        assert cs.query(1) == 5
        assert cp.query(1) == 10


class TestMalformedBatch:
    """A malformed batch is rejected before any counter is touched: the
    scalar path's ``int(w)`` raises on NaN/inf, and the bulk path's
    int64 cast used to write -2**63 into the table instead."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("width", [256, 200])  # packed and fallback
    def test_non_finite_weights_rejected(self, bad, width):
        cs = CountSketch(rows=3, width=width, seed=9)
        with pytest.raises(ConfigurationError, match="finite"):
            cs.update_array(np.arange(4, dtype=np.uint64),
                            np.array([1.0, bad, 2.0, 3.0]))
        assert not cs.table.any()

    def test_weight_length_mismatch_rejected(self):
        cs = CountSketch(rows=3, width=64, seed=9)
        with pytest.raises(ConfigurationError, match="one per key"):
            cs.update_array(np.arange(4, dtype=np.uint64),
                            np.ones(3, dtype=np.int64))
        assert not cs.table.any()


class TestBulkWeightDtypes:
    """Regression: bulk updates must coerce weight arrays to int64 so the
    counter table never silently changes dtype (float64 weights used to
    poison the int64 table maths on the add.at path)."""

    @pytest.mark.parametrize("dtype", [np.float64, np.uint64, np.int32])
    @pytest.mark.parametrize("width", [256, 200])  # packed and fallback
    def test_weight_array_dtype_coerced(self, dtype, width):
        keys = (np.arange(500, dtype=np.uint64) * np.uint64(2654435761)) % 97
        weights = ((np.arange(500) % 7) + 1).astype(dtype)
        bulk = CountSketch(rows=3, width=width, seed=9)
        scalar = CountSketch(rows=3, width=width, seed=9)
        bulk.update_array(keys, weights)
        for k, w in zip(keys.tolist(), weights.tolist()):
            scalar.update(int(k), int(w))
        assert bulk.table.dtype == np.int64
        assert np.array_equal(bulk.table, scalar.table)
