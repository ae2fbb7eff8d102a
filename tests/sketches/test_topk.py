"""Tests for the magnitude-ranked TopK tracker (the Q_j heaps)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sketches.topk import TopK


class TestBasics:
    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            TopK(0)

    def test_insert_until_capacity(self):
        t = TopK(3)
        for k in range(3):
            assert t.offer(k, k + 1.0)
        assert len(t) == 3

    def test_eviction_of_minimum(self):
        t = TopK(2)
        t.offer(1, 10.0)
        t.offer(2, 20.0)
        assert t.offer(3, 15.0)  # evicts key 1
        assert 1 not in t
        assert set(t.keys()) == {2, 3}

    def test_rejects_smaller_than_min_when_full(self):
        t = TopK(2)
        t.offer(1, 10.0)
        t.offer(2, 20.0)
        assert not t.offer(3, 5.0)
        assert set(t.keys()) == {1, 2}

    def test_existing_key_always_updates(self):
        t = TopK(2)
        t.offer(1, 10.0)
        t.offer(2, 20.0)
        assert t.offer(1, 3.0)  # smaller, but key already tracked
        assert t.estimate(1) == 3.0

    def test_estimate_keyerror_for_untracked(self):
        t = TopK(2)
        with pytest.raises(KeyError):
            t.estimate(5)

    def test_min_on_empty_raises(self):
        with pytest.raises(KeyError):
            TopK(2).min()

    def test_items_sorted_by_magnitude_desc(self):
        t = TopK(4)
        t.offer(1, 5.0)
        t.offer(2, -50.0)
        t.offer(3, 20.0)
        keys = [k for k, _ in t.items()]
        assert keys == [2, 3, 1]

    def test_contains_and_iter(self):
        t = TopK(3)
        t.offer(7, 1.0)
        assert 7 in t and list(t) == [7]


class TestMagnitudeRanking:
    def test_negative_estimates_ranked_by_abs(self):
        """Difference-stream semantics: a large negative delta is heavy."""
        t = TopK(2)
        t.offer(1, -100.0)
        t.offer(2, 10.0)
        assert not t.offer(3, 5.0)       # |5| < |10|
        assert t.offer(4, -20.0)         # |-20| > |10| evicts key 2
        assert set(t.keys()) == {1, 4}
        assert t.estimate(1) == -100.0   # sign preserved

    def test_min_returns_magnitude(self):
        t = TopK(3)
        t.offer(1, -7.0)
        t.offer(2, 3.0)
        key, rank = t.min()
        assert key == 2 and rank == 3.0


class TestStaleHeapEntries:
    def test_min_correct_after_many_updates_of_same_key(self):
        t = TopK(2)
        t.offer(1, 1.0)
        t.offer(2, 2.0)
        for est in range(3, 50):
            t.offer(1, float(est))  # key 1 keeps growing
        key, rank = t.min()
        assert key == 2 and rank == 2.0

    def test_rebuild_path_when_all_entries_stale(self):
        t = TopK(2)
        t.offer(1, 5.0)
        t.offer(2, 6.0)
        # Overwrite both with new estimates, staling every heap entry,
        # then drain the heap of fresh copies via repeated min() checks.
        t.offer(1, 7.0)
        t.offer(2, 8.0)
        key, rank = t.min()
        assert key == 1 and rank == 7.0


class TestProperties:
    @given(st.lists(st.tuples(st.integers(0, 30),
                              st.floats(min_value=-1000, max_value=1000,
                                        allow_nan=False)),
                    min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_capacity_invariant_and_min_correct(self, offers):
        t = TopK(5)
        for key, est in offers:
            t.offer(key, est)
        assert 0 < len(t) <= 5
        key, rank = t.min()
        assert rank == min(abs(v) for _, v in t.items())
        assert key in t

    @given(st.lists(st.tuples(st.integers(0, 1000),
                              st.floats(min_value=0.1, max_value=1e6)),
                    min_size=6, max_size=200,
                    unique_by=(lambda kv: kv[0], lambda kv: kv[1])))
    @settings(max_examples=50, deadline=None)
    def test_distinct_keys_keeps_the_largest(self, offers):
        """With unique keys and estimates, TopK retains the k largest."""
        t = TopK(5)
        for key, est in offers:
            t.offer(key, est)
        expected = {k for k, _ in
                    sorted(offers, key=lambda kv: -kv[1])[:5]}
        assert set(t.keys()) == expected

    def test_memory_bytes_fixed_by_capacity(self):
        assert TopK(64).memory_bytes() == 64 * 16


class TestOfferMany:
    """offer_many must agree with sequentially offering the same pairs in
    increasing-|estimate| order."""

    @given(st.lists(st.tuples(st.integers(0, 500),
                              st.floats(min_value=0.1, max_value=1e6)),
                    min_size=1, max_size=80,
                    unique_by=(lambda kv: kv[0], lambda kv: kv[1])),
           st.lists(st.tuples(st.integers(0, 500),
                              st.floats(min_value=0.1, max_value=1e6)),
                    min_size=0, max_size=80,
                    unique_by=(lambda kv: kv[0], lambda kv: kv[1])),
           st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_offers(self, first, second, capacity):
        import numpy as np
        seq = TopK(capacity)
        bulk = TopK(capacity)
        for batch in (first, second):
            if not batch:
                continue
            batch = sorted(batch)  # distinct keys, ascending
            keys = np.array([k for k, _ in batch], dtype=np.uint64)
            ests = np.array([e for _, e in batch], dtype=np.float64)
            order = np.argsort(np.abs(ests))
            for i in order:
                seq.offer(int(keys[i]), float(ests[i]))
            bulk.offer_many(keys, ests, sorted_keys=True)
        # Ranks are unique within a batch, but a cross-batch tie at the
        # eviction boundary may legitimately resolve either way; compare
        # the retained rank multisets, which must agree regardless.
        seq_ranks = sorted(abs(v) for _, v in seq.items())
        bulk_ranks = sorted(abs(v) for _, v in bulk.items())
        assert seq_ranks == pytest.approx(bulk_ranks)
        assert len(bulk) == len(seq)

    def test_sorted_and_unsorted_membership_agree(self):
        import numpy as np
        a, b = TopK(4), TopK(4)
        for t in (a, b):
            t.offer(10, 5.0)
            t.offer(999, 50.0)
        keys = np.array([5, 10, 20], dtype=np.uint64)
        ests = np.array([7.0, 1.0, 9.0])
        a.offer_many(keys, ests, sorted_keys=True)
        b.offer_many(keys, ests, sorted_keys=False)
        assert a.items() == b.items()
        # Tracked key 10 got its estimate replaced, not duplicated.
        assert a.estimate(10) == 1.0
        # Tracked key 999 was not in the batch and kept its estimate.
        assert a.estimate(999) == 50.0

    def test_heap_invariant_survives_offer_many(self):
        import numpy as np
        t = TopK(3)
        t.offer_many(np.array([1, 2, 3, 4], dtype=np.uint64),
                     np.array([4.0, 2.0, 8.0, 6.0]))
        assert set(t.keys()) == {3, 4, 1}
        assert t.min() == (1, 4.0)
        t.offer(9, 5.0)  # evicts key 1 through the lazy heap
        assert set(t.keys()) == {3, 4, 9}


class TestCopyIndependence:
    def _filled(self):
        t = TopK(4)
        t.offer_many(np.array([1, 2, 3, 4, 5], dtype=np.uint64),
                     np.array([5.0, -4.0, 3.0, 2.0, 1.0]))
        return t

    @pytest.mark.parametrize("mutate_copy", [True, False])
    def test_mutating_one_side_leaves_the_other(self, mutate_copy):
        original = self._filled()
        clone = original.copy()
        target, other = (clone, original) if mutate_copy \
            else (original, clone)
        before = (other.keys(), other.items(), other.min(), other.offers,
                  other.evictions, other.rejections)
        target.offer(2, 100.0)           # tracked: estimate replaced
        target.offer(9, 50.0)            # evicts the minimum
        target.offer_many(np.array([7, 8], dtype=np.uint64),
                          np.array([60.0, -70.0]), sorted_keys=True)
        assert target.items() != before[1]
        assert (other.keys(), other.items(), other.min(), other.offers,
                other.evictions, other.rejections) == before

    def test_arrays_are_in_storage_order(self):
        t = self._filled()
        keys, ests = t.arrays()
        assert keys.dtype == np.uint64 and ests.dtype == np.float64
        assert list(zip(keys.tolist(), ests.tolist())) == \
            [(k, t.estimate(k)) for k in t.keys()]
