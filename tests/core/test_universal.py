"""Tests for the universal sketch data plane (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, IncompatibleSketchError
from repro.core.universal import UniversalSketch


def make(levels=6, width=256, heap=16, seed=1, rows=3):
    return UniversalSketch(levels=levels, rows=rows, width=width,
                           heap_size=heap, seed=seed)


class TestConstruction:
    def test_levels_plus_one_instances(self):
        u = make(levels=6)
        assert len(u.levels) == 7

    def test_negative_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            UniversalSketch(levels=-1)

    def test_for_memory_budget_fits(self):
        budget = 512 * 1024
        u = UniversalSketch.for_memory_budget(budget, levels=8, rows=5,
                                              heap_size=64, seed=1)
        assert u.memory_bytes() <= budget
        assert u.memory_bytes() > 0.8 * budget  # not wildly undersized

    def test_for_memory_budget_too_small(self):
        with pytest.raises(ConfigurationError):
            UniversalSketch.for_memory_budget(1024, levels=16, rows=5,
                                              heap_size=64)

    def test_levels_for_rule(self):
        # Every distinct key fits in one heap: a single full-stream
        # level suffices, no sampled substreams.
        assert UniversalSketch.levels_for(64, heap_size=64) == 0
        assert UniversalSketch.levels_for(1, heap_size=64) == 0
        # Just above the heap: sampled levels appear again.
        assert UniversalSketch.levels_for(65, heap_size=64) == 2
        # 8192/64 = 128 -> log2 = 7 -> +1
        assert UniversalSketch.levels_for(8192, heap_size=64) == 8

    def test_deterministic_given_seed(self):
        a, b = make(seed=5), make(seed=5)
        for k in range(50):
            a.update(k)
            b.update(k)
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la.sketch.table, lb.sketch.table)


class TestDataPlane:
    def test_level_zero_sees_everything(self):
        u = make()
        for k in range(100):
            u.update(k)
        assert u.levels[0].packets == 100
        assert u.total_weight == 100

    def test_substream_sizes_decrease(self):
        u = make(levels=5, width=512)
        u.update_array(np.arange(4000, dtype=np.uint64))
        sizes = [lvl.packets for lvl in u.levels]
        assert sizes[0] == 4000
        assert all(sizes[i] >= sizes[i + 1] for i in range(5))
        # Level 3 expects 4000/8 = 500; allow wide slack.
        assert 250 < sizes[3] < 850

    def test_bulk_matches_scalar_counters(self):
        a, b = make(seed=6), make(seed=6)
        keys = np.array([7, 7, 9, 1, 7, 3], dtype=np.uint64)
        a.update_array(keys)
        for k in keys.tolist():
            b.update(int(k))
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la.sketch.table, lb.sketch.table)
            assert la.packets == lb.packets

    def test_weighted_updates(self):
        u = make()
        u.update(1, 10)
        assert u.total_weight == 10

    @given(st.lists(st.integers(0, 1 << 32), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_property_packet_count_conserved(self, keys):
        u = make(seed=7)
        u.update_array(np.array(keys, dtype=np.uint64))
        assert u.packets == len(keys)
        assert u.levels[0].packets == len(keys)


class TestMalformedBatch:
    """A bulk batch must be 1-D keys with one weight per key; anything
    else is rejected before the batch is folded, leaving the sketch
    untouched."""

    @staticmethod
    def _assert_rejected(keys, weights=None):
        u = make()
        with pytest.raises(ConfigurationError):
            u.update_array(keys, weights)
        assert u.packets == 0 and u.version == 0
        assert all(lvl.packets == 0 and not lvl.sketch.table.any()
                   for lvl in u.levels)

    def test_longer_weights_rejected(self):
        # Used to ingest the first 10 weights and drop the rest silently.
        self._assert_rejected(np.arange(10, dtype=np.uint64),
                              np.ones(12, dtype=np.int64))

    def test_shorter_weights_rejected(self):
        # Used to fail with a bare numpy IndexError.
        self._assert_rejected(np.arange(10, dtype=np.uint64),
                              np.ones(8, dtype=np.int64))

    def test_two_dimensional_keys_rejected(self):
        # Aggregation would flatten these while `packets` counted rows.
        self._assert_rejected(np.arange(12, dtype=np.uint64).reshape(4, 3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_weights_rejected(self, bad):
        # Used to return normally: total_weight read the finite sum and
        # the level-0 table held int64 garbage (-2**63 from the cast).
        self._assert_rejected(np.arange(4, dtype=np.uint64),
                              [1.0, bad, 2.0, 3.0])


class TestBulkOracle:
    """The aggregate-once bulk path against the per-packet bulk semantics
    rebuilt from public primitives: level ``j`` gets every raw packet of
    depth ``>= j`` through ``CountSketch.update_array``, then its heap
    gets the batch's distinct keys of that depth through
    ``TopK.offer_many`` with ``query_many`` estimates."""

    @staticmethod
    def _oracle_update(u, keys, weights):
        depths = u.sampler.deepest_level_array(keys)
        distinct = np.unique(keys)
        distinct_depths = u.sampler.deepest_level_array(distinct)
        for j, level in enumerate(u.levels):
            sel = depths >= j
            if not sel.any():
                break
            w = None if weights is None else weights[sel]
            level.sketch.update_array(keys[sel], w)
            level.packets += int(sel.sum())
            level.weight += int(sel.sum()) if w is None else int(w.sum())
            uniq = distinct[distinct_depths >= j]
            level.topk.offer_many(uniq, level.sketch.query_many(uniq),
                                  sorted_keys=True)
        u.packets += len(keys)

    @pytest.mark.parametrize("width", [128, 125])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_counters_heaps_and_churn_match(self, width, weighted,
                                            make_rng):
        rng = make_rng(41)
        fast = make(levels=5, width=width, heap=8, seed=42, rows=5)
        oracle = make(levels=5, width=width, heap=8, seed=42, rows=5)
        for batch in range(6):
            size = int(rng.integers(500, 4000))
            # The heavy keys move every batch, so the heaps churn.
            keys = ((rng.zipf(1.3, size=size) + 40 * batch) % 700) \
                .astype(np.uint64)
            weights = rng.integers(-1000, 1000, size=size) \
                if weighted else None
            fast.update_array(keys, weights)
            self._oracle_update(oracle, keys, weights)
            assert fast.packets == oracle.packets
            for lf, lo in zip(fast.levels, oracle.levels):
                assert np.array_equal(lf.sketch.table, lo.sketch.table)
                assert (lf.packets, lf.weight) == (lo.packets, lo.weight)
                assert lf.topk.items() == lo.topk.items()
                assert (lf.topk.offers, lf.topk.evictions,
                        lf.topk.rejections) == \
                    (lo.topk.offers, lo.topk.evictions, lo.topk.rejections)
        # The heaps were full and churned, so the comparison had teeth.
        assert all(len(lvl.topk) == 8 for lvl in fast.levels[:3])
        assert all(lvl.topk.evictions > 0 and lvl.topk.rejections > 0
                   for lvl in fast.levels[:3])


class TestHeavyHitters:
    def test_detects_elephant(self):
        u = make(levels=6, width=512, heap=16, seed=8, rows=5)
        keys = np.concatenate([
            np.full(3000, 424242, dtype=np.uint64),
            np.arange(1000, dtype=np.uint64),
        ])
        u.update_array(keys)
        hh = u.heavy_hitters(0.5)
        assert [k for k, _ in hh] == [424242]

    def test_no_heavy_hitters_in_uniform(self):
        u = make(levels=6, width=512, seed=9)
        u.update_array(np.arange(2000, dtype=np.uint64))
        assert u.heavy_hitters(0.01) == []


class TestLinearity:
    def test_merge_counts_add(self):
        a, b = make(seed=10), make(seed=10)
        a.update(5, 10)
        b.update(5, 7)
        merged = a.merge(b)
        assert merged.total_weight == 17
        assert merged.levels[0].sketch.query(5) == pytest.approx(17)

    def test_merge_heaps_requeried(self):
        a, b = make(seed=11), make(seed=11)
        a.update(5, 10)
        b.update(9, 20)
        merged = a.merge(b)
        q0 = dict(merged.levels[0].heavy_hitters())
        assert q0[5] == pytest.approx(10)
        assert q0[9] == pytest.approx(20)

    def test_subtract_gives_difference(self):
        a, b = make(seed=12), make(seed=12)
        a.update(1, 100)
        b.update(1, 30)
        b.update(2, 40)
        diff = a.subtract(b)
        assert diff.levels[0].sketch.query(1) == pytest.approx(70)
        assert diff.levels[0].sketch.query(2) == pytest.approx(-40)
        assert diff.total_weight == 30  # signed: 100 - (30 + 40)

    def test_merge_requires_matching_config(self):
        with pytest.raises(IncompatibleSketchError):
            make(seed=1).merge(make(seed=2))
        with pytest.raises(IncompatibleSketchError):
            make(levels=5).merge(make(levels=6))
        with pytest.raises(IncompatibleSketchError):
            UniversalSketch(levels=4).merge(UniversalSketch(levels=4))

    def test_merge_commutes_on_estimates(self):
        a, b = make(seed=13), make(seed=13)
        a.update_array(np.arange(0, 500, dtype=np.uint64))
        b.update_array(np.arange(300, 800, dtype=np.uint64))
        ab, ba = a.merge(b), b.merge(a)
        assert np.array_equal(ab.levels[0].sketch.table,
                              ba.levels[0].sketch.table)
        assert ab.total_weight == ba.total_weight

    def test_merged_statistics_match_union_stream(self, rng):
        """Merging epoch sketches == sketching the concatenated stream."""
        whole = make(seed=14, levels=8, width=512, heap=32)
        part1 = make(seed=14, levels=8, width=512, heap=32)
        part2 = make(seed=14, levels=8, width=512, heap=32)
        keys = rng.integers(0, 3000, size=6000).astype(np.uint64)
        whole.update_array(keys)
        part1.update_array(keys[:3000])
        part2.update_array(keys[3000:])
        merged = part1.merge(part2)
        for lw, lm in zip(whole.levels, merged.levels):
            assert np.array_equal(lw.sketch.table, lm.sketch.table)


class TestMergeHeapRebuild:
    """The _combine heap rebuild: bulk offer_many, data-plane counters."""

    @staticmethod
    def _scalar_rebuild(level_sketch, union, heap_size):
        """The pre-rewrite path: one scalar offer per union key in
        ascending-|estimate| order (kept verbatim as the parity oracle)."""
        from repro.sketches.topk import TopK
        keys = np.fromiter(union, dtype=np.uint64, count=len(union))
        estimates = level_sketch.query_many(keys)
        heap = TopK(heap_size)
        for i in np.argsort(np.abs(estimates)):
            heap.offer(int(keys[i]), float(estimates[i]))
        return heap

    def test_merge_churn_counters_are_sum_of_inputs(self, make_rng):
        """Regression: merging used to re-offer every union key into the
        fresh heap, so the merged churn counters measured control-plane
        rebuild work instead of data-plane churn."""
        a, b = make(seed=31), make(seed=31)
        rng = make_rng(4)
        a.update_array(rng.integers(0, 800, size=3000).astype(np.uint64))
        b.update_array(rng.integers(0, 800, size=3000).astype(np.uint64))
        merged = a.merge(b)
        for la, lb, lm in zip(a.levels, b.levels, merged.levels):
            assert lm.topk.offers == la.topk.offers + lb.topk.offers
            assert lm.topk.evictions == la.topk.evictions + lb.topk.evictions
            assert lm.topk.rejections == \
                la.topk.rejections + lb.topk.rejections

    def test_merge_heap_matches_scalar_rebuild(self, make_rng):
        """Parity: the offer_many rebuild retains exactly the keys and
        estimates the old scalar-offer loop retained."""
        rng = make_rng(6)
        a, b = make(seed=32, heap=16), make(seed=32, heap=16)
        a.update_array(rng.integers(0, 400, size=4000).astype(np.uint64))
        b.update_array(rng.integers(200, 600, size=4000).astype(np.uint64))
        merged = a.merge(b)
        for la, lb, lm in zip(a.levels, b.levels, merged.levels):
            union = set(la.topk.keys()) | set(lb.topk.keys())
            if not union:
                continue
            oracle = self._scalar_rebuild(lm.sketch, union, 16)
            mine, theirs = dict(lm.topk.items()), dict(oracle.items())
            # offer_many documents that ties at the eviction boundary may
            # resolve differently from the sequential order; above the
            # boundary the survivors must match exactly, and the retained
            # estimate multiset must match everywhere.
            assert sorted(abs(v) for v in mine.values()) == \
                sorted(abs(v) for v in theirs.values())
            boundary = min(abs(v) for v in mine.values())
            assert {k for k, v in mine.items() if abs(v) > boundary} == \
                {k for k, v in theirs.items() if abs(v) > boundary}
            for key in set(mine) & set(theirs):
                assert mine[key] == theirs[key]

    def test_merge_heap_capacity_respected(self, make_rng):
        rng = make_rng(7)
        a, b = make(seed=33, heap=8), make(seed=33, heap=8)
        a.update_array(rng.integers(0, 300, size=2000).astype(np.uint64))
        b.update_array(rng.integers(300, 600, size=2000).astype(np.uint64))
        merged = a.merge(b)
        for level in merged.levels:
            assert len(level.topk) <= 8


class TestNaryMerge:
    """``merge(*others)``: one call folds any number of inputs."""

    @staticmethod
    def _split(make_rng, k, seed=40, heap=16):
        rng = make_rng(k)
        keys = rng.integers(0, 1500, size=6000).astype(np.uint64)
        weights = rng.integers(1, 9, size=6000)
        whole = make(seed=seed, heap=heap)
        whole.update_array(keys, weights)
        parts = []
        for chunk, wchunk in zip(np.array_split(keys, k),
                                 np.array_split(weights, k)):
            part = make(seed=seed, heap=heap)
            part.update_array(chunk, wchunk)
            parts.append(part)
        return whole, parts

    @pytest.mark.parametrize("k", range(1, 9))
    def test_counters_match_single_stream_and_pairwise_fold(self, k,
                                                            make_rng):
        whole, parts = self._split(make_rng, k)
        merged = parts[0].merge(*parts[1:])
        pairwise = parts[0]
        for part in parts[1:]:
            pairwise = pairwise.merge(part)
        for lw, lm, lp in zip(whole.levels, merged.levels, pairwise.levels):
            assert np.array_equal(lm.sketch.table, lw.sketch.table)
            assert np.array_equal(lm.sketch.table, lp.sketch.table)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_packets_weights_and_churn_are_sums(self, k, make_rng):
        _whole, parts = self._split(make_rng, k)
        merged = parts[0].merge(*parts[1:])
        assert merged.packets == sum(p.packets for p in parts)
        for j, level in enumerate(merged.levels):
            inputs = [p.levels[j] for p in parts]
            assert level.packets == sum(i.packets for i in inputs)
            assert level.weight == sum(i.weight for i in inputs)
            for counter in ("offers", "evictions", "rejections"):
                assert getattr(level.topk, counter) == \
                    sum(getattr(i.topk, counter) for i in inputs)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_heaps_are_top_k_of_input_key_union(self, k, make_rng):
        """Each Q_j holds what one scalar top-k over the union of every
        input's heap keys, ranked by the summed counters, would hold."""
        _whole, parts = self._split(make_rng, k)
        merged = parts[0].merge(*parts[1:])
        for j, level in enumerate(merged.levels):
            union = set().union(*(p.levels[j].topk.keys() for p in parts))
            if not union:
                assert len(level.topk) == 0
                continue
            oracle = TestMergeHeapRebuild._scalar_rebuild(
                level.sketch, union, 16)
            mine, theirs = dict(level.topk.items()), dict(oracle.items())
            # Ties at the eviction boundary may resolve either way (see
            # TopK.offer_many); above it the survivors match exactly.
            assert sorted(abs(v) for v in mine.values()) == \
                sorted(abs(v) for v in theirs.values())
            boundary = min(abs(v) for v in mine.values())
            assert {k_ for k_, v in mine.items() if abs(v) > boundary} == \
                {k_ for k_, v in theirs.items() if abs(v) > boundary}
            for key in set(mine) & set(theirs):
                assert mine[key] == theirs[key]

    def test_no_argument_merge_is_an_independent_copy(self, make_rng):
        _whole, (original,) = self._split(make_rng, 1)
        clone = original.merge()
        assert clone is not original
        for lo, lc in zip(original.levels, clone.levels):
            assert lc is not lo and lc.sketch.table is not lo.sketch.table
            assert np.array_equal(lo.sketch.table, lc.sketch.table)
            assert lo.topk.items() == lc.topk.items()
        before = [level.sketch.table.copy() for level in original.levels]
        heap_before = original.levels[0].topk.items()
        clone.update(999_999, 50_000)
        for level, table in zip(original.levels, before):
            assert np.array_equal(level.sketch.table, table)
        assert original.levels[0].topk.items() == heap_before
        assert clone.total_weight == original.total_weight + 50_000

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("odd", [
        lambda: make(seed=41),
        lambda: make(seed=40, levels=5),
        lambda: make(seed=40, heap=8),
        lambda: UniversalSketch(levels=6, rows=3, width=256, heap_size=16),
    ], ids=["seed", "levels", "heap", "unseeded"])
    def test_incompatible_input_anywhere_raises(self, position, odd):
        others = [make(seed=40) for _ in range(3)]
        others.insert(position, odd())
        with pytest.raises(IncompatibleSketchError):
            make(seed=40).merge(*others)


class TestWeightDtypeParity:
    """Regression: the bulk path used to forward weight arrays uncoerced,
    so a float array's *sum* (not its per-element truncation) landed in
    the level weight accounting while the counter tables truncated —
    the sketch disagreed with itself and with the scalar loop."""

    @pytest.mark.parametrize("dtype", ["float64", "float32", "int32",
                                       "uint64", "object"])
    def test_bulk_weights_match_scalar_loop(self, dtype, make_rng):
        rng = make_rng(9)
        keys = rng.integers(0, 200, size=1500).astype(np.uint64)
        raw = rng.uniform(1.0, 9.9, size=1500)
        if dtype == "object":
            weights = np.array([int(w) for w in raw], dtype=object)
        elif dtype == "int32":
            weights = raw.astype(np.int32)
        else:
            weights = raw.astype(dtype)
        scalar = make(levels=4, seed=35, heap=32)
        for k, w in zip(keys.tolist(),
                        np.asarray(weights, dtype=np.float64).tolist()):
            scalar.update(int(k), int(w))
        bulk = make(levels=4, seed=35, heap=32)
        bulk.update_array(keys, weights)
        assert bulk.total_weight == scalar.total_weight
        for lb, ls in zip(bulk.levels, scalar.levels):
            assert np.array_equal(lb.sketch.table, ls.sketch.table)
            assert lb.weight == ls.weight
            assert lb.packets == ls.packets

    def test_negative_float_weights_truncate_toward_zero(self):
        keys = np.array([3, 3, 4], dtype=np.uint64)
        weights = np.array([-2.9, -2.9, 5.5])
        bulk = make(levels=2, seed=36)
        bulk.update_array(keys, weights)
        scalar = make(levels=2, seed=36)
        for k, w in zip(keys.tolist(), weights.tolist()):
            scalar.update(int(k), int(w))
        assert bulk.total_weight == scalar.total_weight == 1  # -2-2+5
        assert np.array_equal(bulk.levels[0].sketch.table,
                              scalar.levels[0].sketch.table)


class TestCopy:
    def test_copy_is_deep_for_mutable_state(self, make_rng):
        original = make(seed=20)
        rng = make_rng(2)
        original.update_array(rng.integers(0, 500, size=2000)
                              .astype(np.uint64))
        clone = original.copy()
        assert clone is not original
        assert clone.total_weight == original.total_weight
        for lo, lc in zip(original.levels, clone.levels):
            assert np.array_equal(lo.sketch.table, lc.sketch.table)
            assert dict(lo.topk.items()) == dict(lc.topk.items())

        # Mutating the clone must not leak into the original.
        before_tables = [l.sketch.table.copy() for l in original.levels]
        before_heap = dict(original.levels[0].topk.items())
        clone.update(999_999, 50_000)
        assert original.total_weight != clone.total_weight
        for level, table in zip(original.levels, before_tables):
            assert np.array_equal(level.sketch.table, table)
        assert dict(original.levels[0].topk.items()) == before_heap

    def test_copy_stays_mergeable_with_original(self):
        original = make(seed=21)
        original.update(7, 5)
        merged = original.copy().merge(original)
        assert merged.total_weight == 10
        assert merged.levels[0].sketch.query(7) == pytest.approx(10)


class TestAccounting:
    def test_memory_is_sum_of_levels(self):
        u = make(levels=4)
        assert u.memory_bytes() == sum(l.memory_bytes() for l in u.levels)

    def test_update_cost_bounded_by_two_levels(self):
        """Expected counter work is < 2 levels' worth regardless of depth."""
        u = make(levels=16, rows=5)
        cost = u.update_cost()
        assert cost.counter_updates <= 2 * 5
        assert cost.hashes >= 16  # at least the sampling stack

    def test_repr_mentions_geometry(self):
        assert "levels=6" in repr(make())


class TestCounterBytes:
    def test_threaded_through_constructor_and_accounting(self):
        u = UniversalSketch(levels=2, rows=3, width=128, heap_size=8,
                            seed=1, counter_bytes=8)
        assert u.counter_bytes == 8
        for level in u.levels:
            assert level.sketch.counter_bytes == 8
        counters = (2 + 1) * 3 * 128 * 8
        heaps = (2 + 1) * 8 * 16
        assert u.memory_bytes() == counters + heaps

    def test_threaded_through_memory_budget(self):
        budget = 256 * 1024
        wide = UniversalSketch.for_memory_budget(budget, levels=4, rows=3,
                                                 heap_size=16, seed=1)
        narrow = UniversalSketch.for_memory_budget(budget, levels=4, rows=3,
                                                   heap_size=16, seed=1,
                                                   counter_bytes=8)
        assert narrow.counter_bytes == 8
        assert narrow.memory_bytes() <= budget
        # Doubling the per-counter cost must halve the width, not be
        # silently ignored by the sizing rule.
        assert narrow.width == wide.width // 2

    def test_threaded_through_merge_and_subtract(self):
        a = UniversalSketch(levels=2, rows=3, width=64, heap_size=8,
                            seed=7, counter_bytes=8)
        b = UniversalSketch(levels=2, rows=3, width=64, heap_size=8,
                            seed=7, counter_bytes=8)
        a.update(1)
        b.update(2)
        assert a.merge(b).counter_bytes == 8
        assert a.subtract(b).counter_bytes == 8
        assert a.merge(b).memory_bytes() == a.memory_bytes()


class TestCounterTensor:
    """Every level's table is the view ``counters[j]`` of the sketch's
    one counter tensor, whatever built the sketch."""

    @staticmethod
    def assert_views(sketch):
        counters = sketch.counters
        assert counters.shape == (sketch.num_levels + 1, sketch.rows,
                                  sketch.width)
        assert counters.dtype == np.int64 and counters.flags.c_contiguous
        for j, level in enumerate(sketch.levels):
            table = level.sketch.table
            assert np.shares_memory(table, counters[j])
            assert table.shape == counters[j].shape
            assert np.array_equal(table, counters[j])
            others = np.delete(np.arange(len(counters)), j)
            assert not any(np.shares_memory(table, counters[k])
                           for k in others)

    def test_views_after_every_constructor(self, make_rng):
        from repro.core import serialization
        from repro.network.codec import DeltaDecoder, DeltaEncoder

        a, b = make(width=40), make(width=40)
        self.assert_views(a)
        rng = make_rng(3)
        a.update_array(rng.integers(0, 500, 3000).astype(np.uint64))
        b.update_array(rng.integers(0, 500, 3000).astype(np.uint64))
        built = [a.copy(), a.merge(), a.merge(b), a.merge(b, a),
                 a.subtract(b), serialization.loads(serialization.dumps(a)),
                 DeltaDecoder().decode(DeltaEncoder().encode(a))]
        for sketch in built:
            self.assert_views(sketch)
            assert not np.shares_memory(sketch.counters, a.counters)
            assert not np.shares_memory(sketch.counters, b.counters)
        assert np.array_equal(built[0].counters, a.counters)
        assert np.array_equal(built[5].counters, a.counters)

    def test_scalar_update_writes_the_tensor(self):
        u = make(levels=4, rows=3, width=64)
        key = next(k for k in range(1000) if u.sampler.deepest_level(k) >= 2)
        depth = u.sampler.deepest_level(key)
        u.update(key, 7)
        self.assert_views(u)
        # One bucket per row at each level the key reaches, +-7 each.
        assert np.array_equal(np.count_nonzero(u.counters, axis=(1, 2)),
                              [3] * (depth + 1) + [0] * (4 - depth))
        assert np.abs(u.counters).sum() == 7 * 3 * (depth + 1)

    def test_level_writes_reach_the_tensor(self):
        u = make(levels=2, rows=2, width=16)
        u.levels[1].sketch.table[1, 5] = 42
        assert u.counters[1, 1, 5] == 42
        u.counters[2, 0, 3] = -9
        assert u.levels[2].sketch.table[0, 3] == -9
