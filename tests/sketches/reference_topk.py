"""The dict-and-``heapq`` ``TopK`` that the array-backed heap replaced,
frozen as the reference the differential tests drive beside it.

Kept verbatim.  One defect is known and left in place: ``offer_many``
stores its rank-sorted list as the heap, which is not a heap under
``(rank, key)`` order when two retained ranks tie out of key order, so
a later scalar ``min()`` or eviction can pick a tied entry other than
the smallest ``(rank, key)``.  Tests that follow a bulk offer with
scalar operations call :func:`reheap` first.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import ConfigurationError


def reheap(topk: "ReferenceTopK") -> None:
    """Restore the heap invariant ``offer_many`` can leave broken."""
    heapq.heapify(topk._heap)


class ReferenceTopK:
    """Track the ``k`` keys with the largest |estimate| seen so far."""

    __slots__ = ("capacity", "_estimates", "_heap", "offers", "evictions",
                 "rejections")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._estimates: Dict[int, float] = {}
        self._heap: List[Tuple[float, int]] = []  # (|estimate|, key), stale ok
        self.offers = 0      # candidates seen (tracked keys re-offered too)
        self.evictions = 0   # tracked keys displaced by a larger candidate
        self.rejections = 0  # candidates that never displaced anything

    def __len__(self) -> int:
        return len(self._estimates)

    def __contains__(self, key: int) -> bool:
        return key in self._estimates

    def __iter__(self) -> Iterator[int]:
        return iter(self._estimates)

    def offer(self, key: int, estimate: float) -> bool:
        """Offer ``key`` with a (new) estimate; returns True if retained.

        A key already tracked always stays tracked; its estimate is simply
        replaced (estimates from a Count Sketch point query can move both
        up and down as collisions shift).
        """
        est = self._estimates
        rank = abs(estimate)
        self.offers += 1
        if key in est:
            est[key] = estimate
            heapq.heappush(self._heap, (rank, key))
            return True
        if len(est) < self.capacity:
            est[key] = estimate
            heapq.heappush(self._heap, (rank, key))
            return True
        min_key, min_rank = self.min()
        if rank <= min_rank:
            self.rejections += 1
            return False
        del est[min_key]
        self.evictions += 1
        est[key] = estimate
        heapq.heappush(self._heap, (rank, key))
        return True

    def offer_many(self, keys: np.ndarray, estimates: np.ndarray,
                   sorted_keys: bool = False) -> None:
        """Bulk offer of *distinct* keys with fresh estimates.

        Equivalent to calling :meth:`offer` for every pair in increasing
        ``|estimate|`` order — tracked keys get their estimate replaced,
        the rest compete by magnitude — but selects the survivors with
        one ``argpartition`` instead of one heap touch per key, so the
        Python-level work is O(capacity), not O(len(keys)).  Ties at the
        eviction boundary may resolve differently from the sequential
        order; both resolutions are valid top-k sets.  Pass
        ``sorted_keys=True`` when ``keys`` is ascending (e.g. straight
        from ``np.unique``) to replace the membership scan with binary
        search.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        estimates = np.asarray(estimates, dtype=np.float64)
        if len(keys) == 0:
            return
        self.offers += len(keys)
        prev_keys: List[int] = []
        est = self._estimates
        if est:
            old_keys = np.fromiter(est.keys(), dtype=np.uint64,
                                   count=len(est))
            prev_keys = old_keys.tolist()
            if sorted_keys:
                pos = np.searchsorted(keys, old_keys)
                pos[pos == len(keys)] = 0
                kept = old_keys[keys[pos] != old_keys]
            else:
                kept = old_keys[~np.isin(old_keys, keys)]
            if len(kept):
                old_ests = np.array([est[int(k)] for k in kept],
                                    dtype=np.float64)
                keys = np.concatenate([keys, kept])
                estimates = np.concatenate([estimates, old_ests])
        candidates = len(keys)
        ranks = np.abs(estimates)
        if len(keys) > self.capacity:
            cut = len(keys) - self.capacity
            top = np.argpartition(ranks, cut)[cut:]
            keys, estimates, ranks = keys[top], estimates[top], ranks[top]
        order = np.argsort(ranks, kind="stable")
        self._estimates = {
            int(keys[i]): float(estimates[i]) for i in order
        }
        # Ascending (rank, key) list is already a valid min-heap.
        self._heap = [(float(ranks[i]), int(keys[i])) for i in order]
        dropped = candidates - len(self._estimates)
        if dropped:
            # Same taxonomy as the scalar path: a previously tracked key
            # that did not survive is an eviction; a fresh candidate that
            # never made it in is a rejection.
            evicted = sum(1 for k in prev_keys if k not in self._estimates)
            self.evictions += evicted
            self.rejections += dropped - evicted

    def min(self) -> Tuple[int, float]:
        """The tracked ``(key, |estimate|)`` with the smallest magnitude."""
        if not self._estimates:
            raise KeyError("TopK is empty")
        est = self._estimates
        heap = self._heap
        while heap:
            rank, key = heap[0]
            current = est.get(key)
            if current is not None and abs(current) == rank:
                return key, rank
            heapq.heappop(heap)  # stale entry
        # All heap entries were stale; rebuild from the dict.
        self._heap = [(abs(v), k) for k, v in est.items()]
        heapq.heapify(self._heap)
        rank, key = self._heap[0]
        return key, rank

    def copy(self) -> "ReferenceTopK":
        """An independent snapshot (mutating either side is safe)."""
        out = ReferenceTopK.__new__(ReferenceTopK)
        out.capacity = self.capacity
        out._estimates = dict(self._estimates)
        out._heap = list(self._heap)
        out.offers = self.offers
        out.evictions = self.evictions
        out.rejections = self.rejections
        return out

    def estimate(self, key: int) -> float:
        """Tracked (signed) estimate for ``key``; KeyError if not tracked."""
        return self._estimates[key]

    def items(self) -> List[Tuple[int, float]]:
        """All tracked ``(key, estimate)`` pairs, largest |estimate| first."""
        return sorted(self._estimates.items(), key=lambda kv: -abs(kv[1]))

    def keys(self) -> List[int]:
        return list(self._estimates)

    def memory_bytes(self) -> int:
        """Data-plane cost: one 8-byte key + one 8-byte counter per slot."""
        return self.capacity * 16
