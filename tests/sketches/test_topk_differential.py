"""The array-backed ``TopK`` against the dict-and-``heapq`` heap it
replaced (``reference_topk.ReferenceTopK``), over random interleavings
of scalar offers, bulk offers, copies and ``min()``.

After every step both must agree on storage order (``keys()``),
``items()``, ``min()``, ``len``, membership, estimates and the churn
counters.  Bulk offers come sorted and unsorted, larger than capacity,
with negative estimates and with ties at the eviction boundary.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.topk import TopK
from tests.sketches.reference_topk import ReferenceTopK, reheap

KEYS = st.integers(0, 24)
# Few distinct magnitudes, so ranks tie often, plus arbitrary values.
ESTIMATES = (st.sampled_from([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
             | st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))

OFFER = st.tuples(st.just("offer"), KEYS, ESTIMATES)
OFFER_MANY = st.tuples(
    st.just("offer_many"),
    st.lists(st.tuples(KEYS, ESTIMATES), min_size=0, max_size=20,
             unique_by=lambda kv: kv[0]),
    st.booleans())
# Copy both heaps; the flag says which side later steps mutate.
COPY = st.tuples(st.just("copy"), st.booleans())
MIN = st.tuples(st.just("min"))
OPS = st.lists(st.one_of(OFFER, OFFER_MANY, COPY, MIN), min_size=1,
               max_size=60)


def state(heap):
    """Everything observable, in comparable form."""
    low = heap.min() if len(heap) else None
    return (list(heap.keys()), heap.items(), low, len(heap),
            heap.offers, heap.evictions, heap.rejections)


def assert_same(new, ref):
    assert state(new) == state(ref)
    for key in ref.keys():
        assert key in new
        assert new.estimate(key) == ref.estimate(key)
    untracked = next(k for k in range(30) if k not in ref)
    assert untracked not in new


def apply(op, new, ref):
    if op[0] == "offer":
        _, key, est = op
        assert new.offer(key, est) == ref.offer(key, est)
    elif op[0] == "offer_many":
        _, pairs, sort = op
        if sort:
            pairs = sorted(pairs)
        keys = np.array([k for k, _ in pairs], dtype=np.uint64)
        ests = np.array([e for _, e in pairs], dtype=np.float64)
        new.offer_many(keys, ests, sorted_keys=sort)
        ref.offer_many(keys, ests, sorted_keys=sort)
        reheap(ref)


class TestAgainstReference:
    @given(st.integers(1, 8), OPS)
    @settings(max_examples=300, deadline=None)
    def test_random_interleavings(self, capacity, ops):
        new, ref = TopK(capacity), ReferenceTopK(capacity)
        frozen = []  # (new, ref, expected state) pairs nobody may touch
        for op in ops:
            if op[0] == "copy":
                new_copy, ref_copy = new.copy(), ref.copy()
                if op[1]:  # keep mutating the copies
                    frozen.append((new, ref, state(ref)))
                    new, ref = new_copy, ref_copy
                else:      # keep mutating the originals
                    frozen.append((new_copy, ref_copy, state(ref)))
            else:
                apply(op, new, ref)
            assert_same(new, ref)
            for other_new, other_ref, expected in frozen:
                assert state(other_ref) == expected
                assert state(other_new) == expected

    @given(st.integers(1, 8),
           st.lists(st.tuples(KEYS, ESTIMATES), min_size=1, max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_scalar_offers_match_without_reheap(self, capacity, offers):
        """Scalar offers alone keep the reference's heap valid, so the
        two agree with no repair at all."""
        new, ref = TopK(capacity), ReferenceTopK(capacity)
        for key, est in offers:
            assert new.offer(key, est) == ref.offer(key, est)
            assert_same(new, ref)


class TestTiedMinimum:
    def test_min_is_smallest_rank_then_key_after_a_bulk_offer(self):
        """The stable rank sort can store a tied larger key first; the
        minimum is still the smallest ``(|estimate|, key)`` — where the
        reference, without :func:`reheap`, reports the first stored."""
        t = TopK(2)
        t.offer(2, 1.0)
        t.offer_many(np.array([3], dtype=np.uint64), np.array([-1.0]),
                     sorted_keys=True)
        assert t.keys() == [3, 2]
        assert t.min() == (2, 1.0)
        assert t.offer(9, 5.0)           # evicts key 2, not key 3
        assert t.keys() == [3, 9]
