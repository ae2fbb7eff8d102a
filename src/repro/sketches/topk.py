"""A fixed-capacity top-k tracker keyed by estimate *magnitude*.

Used as the ``Q_j`` heavy hitter set each UnivMon level maintains alongside
its Count Sketch, and by the Count-Min + heap baseline.  Entries are
``key -> estimate``; ranking (and eviction) is by ``abs(estimate)`` so the
same structure works for insert-only streams (estimates ≥ 0) and for
*difference* streams, where an L2 heavy hitter may have a large negative
delta.

Stored as two parallel arrays, ``uint64`` keys and ``float64`` estimates,
in insertion order: a tracked key keeps its slot when its estimate is
replaced, a new key is appended, and :meth:`TopK.offer_many` leaves the
survivors in ascending rank.  Every reader — the query snapshot, the
merge fold, the wire format — takes the arrays as they are.  The bulk
path is all numpy; the scalar :meth:`TopK.offer` scans the ``capacity``
keys for membership and keeps the minimum cached, so rejecting a
candidate at a full heap recomputes nothing.

Churn accounting: every instance counts ``offers`` (candidates seen),
``evictions`` (tracked keys displaced) and ``rejections`` (candidates
that never made it in) as plain integers — cheap enough for the hot
path, and exported per level by ``repro.obs.observe_sketch`` when a
sealed sketch reaches the control plane.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError


#: The arrays of every empty heap.  Shared and read-only: an offer to an
#: empty heap replaces them, it never writes into them.
_NO_KEYS = np.empty(0, dtype=np.uint64)
_NO_ESTIMATES = np.empty(0, dtype=np.float64)
_NO_KEYS.flags.writeable = False
_NO_ESTIMATES.flags.writeable = False


def _appended(array: np.ndarray, value) -> np.ndarray:
    out = np.empty(len(array) + 1, dtype=array.dtype)
    out[:-1] = array
    out[-1] = value
    return out


class TopK:
    """Track the ``k`` keys with the largest |estimate| seen so far."""

    __slots__ = ("capacity", "_keys", "_ests", "_min", "offers",
                 "evictions", "rejections")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._keys = _NO_KEYS
        self._ests = _NO_ESTIMATES
        # (|estimate|, key, slot) of the minimum, or None when unknown.
        self._min: Optional[Tuple[float, int, int]] = None
        self.offers = 0      # candidates seen (tracked keys re-offered too)
        self.evictions = 0   # tracked keys displaced by a larger candidate
        self.rejections = 0  # candidates that never displaced anything

    @classmethod
    def from_arrays(cls, capacity: int, keys: np.ndarray,
                    estimates: np.ndarray) -> "TopK":
        """The heap that offering each ``(key, estimate)`` pair in turn
        to an empty ``TopK(capacity)`` builds, for at most ``capacity``
        *distinct* keys: it holds them in the given order and counts one
        offer per pair.  Takes ownership of both arrays (pass copies)."""
        out = cls(capacity)
        out._keys = keys
        out._ests = estimates
        out.offers = len(keys)
        return out

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: int) -> bool:
        return self._slot(key) >= 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys.tolist())

    def _slot(self, key: int) -> int:
        """The storage slot of ``key``, or -1 if it is not tracked."""
        keys = self._keys
        if not len(keys):
            return -1
        slot = int((keys == key).argmax())
        return slot if keys[slot] == key else -1

    def offer(self, key: int, estimate: float) -> bool:
        """Offer ``key`` with a (new) estimate; returns True if retained.

        A key already tracked always stays tracked; its estimate is simply
        replaced (estimates from a Count Sketch point query can move both
        up and down as collisions shift).  At a full heap a new key must
        rank above the minimum (:meth:`min`), which it then replaces.
        """
        rank = abs(estimate)
        self.offers += 1
        low = self._min
        slot = self._slot(key)
        if slot >= 0:
            self._ests[slot] = estimate
            if low is not None:
                if (rank, key) < low[:2]:
                    self._min = (rank, key, slot)
                elif slot == low[2]:
                    self._min = None
            return True
        keys, ests = self._keys, self._ests
        if len(keys) < self.capacity:
            self._keys = _appended(keys, key)
            self._ests = _appended(ests, estimate)
            if low is not None and (rank, key) < low[:2]:
                self._min = (rank, key, len(keys))
            return True
        if low is None:
            low = self._min = self._lowest()
        if rank <= low[0]:
            self.rejections += 1
            return False
        # Evict the minimum: later slots shift down, the new key goes last.
        slot = low[2]
        keys[slot:-1] = keys[slot + 1:]
        ests[slot:-1] = ests[slot + 1:]
        keys[-1] = key
        ests[-1] = estimate
        self.evictions += 1
        self._min = None
        return True

    def offer_many(self, keys: np.ndarray, estimates: np.ndarray,
                   sorted_keys: bool = False) -> None:
        """Bulk offer of *distinct* keys with fresh estimates.

        Equivalent to calling :meth:`offer` for every pair in increasing
        ``|estimate|`` order — tracked keys get their estimate replaced,
        the rest compete by magnitude — but selects the survivors with
        one ``argpartition`` over the offered keys plus the tracked keys
        not offered (in that order), then stores them in ascending rank
        with a stable sort.  Ties at the eviction boundary may resolve
        differently from the sequential order; both resolutions are
        valid top-k sets.  Pass ``sorted_keys=True`` when ``keys`` is
        ascending (e.g. straight from ``np.unique``): membership then
        binary-searches the tracked keys into the batch instead of
        sorting the tracked keys first.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        estimates = np.asarray(estimates, dtype=np.float64)
        n = len(keys)
        if n == 0:
            return
        self.offers += n
        old_keys = self._keys
        tracked = None  # per candidate: was it in the heap before?
        if len(old_keys):
            if sorted_keys:
                pos = np.searchsorted(keys, old_keys)
                pos[pos == n] = 0
                offered = keys[pos] == old_keys
                tracked = np.zeros(n, dtype=bool)
                tracked[pos[offered]] = True
            else:
                by_key = np.argsort(old_keys)
                ordered = old_keys[by_key]
                pos = np.searchsorted(ordered, keys)
                pos[pos == len(ordered)] = 0
                tracked = ordered[pos] == keys
                offered = np.zeros(len(old_keys), dtype=bool)
                offered[by_key[pos[tracked]]] = True
            kept = ~offered
            if kept.any():
                keys = np.concatenate([keys, old_keys[kept]])
                estimates = np.concatenate([estimates, self._ests[kept]])
                tracked = np.concatenate(
                    [tracked, np.ones(len(keys) - n, dtype=bool)])
        candidates = len(keys)
        ranks = np.abs(estimates)
        evicted = 0
        if candidates > self.capacity:
            cut = candidates - self.capacity
            top = np.argpartition(ranks, cut)[cut:]
            keys, estimates, ranks = keys[top], estimates[top], ranks[top]
            if tracked is not None:
                # Every tracked key is exactly one candidate.
                evicted = len(old_keys) - int(np.count_nonzero(tracked[top]))
        order = np.argsort(ranks, kind="stable")
        self._keys = keys[order]
        self._ests = estimates[order]
        self._min = None
        dropped = candidates - len(order)
        if dropped:
            # Same taxonomy as the scalar path: a previously tracked key
            # that did not survive is an eviction; a fresh candidate that
            # never made it in is a rejection.
            self.evictions += evicted
            self.rejections += dropped - evicted

    def _lowest(self) -> Tuple[float, int, int]:
        """``(|estimate|, key, slot)`` of the smallest ``(|estimate|,
        key)`` tracked."""
        ranks = np.abs(self._ests)
        ties = np.flatnonzero(ranks == ranks.min())
        slot = int(ties[0] if len(ties) == 1
                   else ties[np.argmin(self._keys[ties])])
        return float(ranks[slot]), int(self._keys[slot]), slot

    def min(self) -> Tuple[int, float]:
        """The tracked ``(key, |estimate|)`` with the smallest magnitude
        (on a tie, the smallest key)."""
        if not len(self._keys):
            raise KeyError("TopK is empty")
        if self._min is None:
            self._min = self._lowest()
        rank, key, _ = self._min
        return int(key), float(rank)

    def copy(self) -> "TopK":
        """An independent snapshot (mutating either side is safe)."""
        out = TopK.__new__(TopK)
        out.capacity = self.capacity
        out._keys = self._keys.copy()
        out._ests = self._ests.copy()
        out._min = self._min
        out.offers = self.offers
        out.evictions = self.evictions
        out.rejections = self.rejections
        return out

    def estimate(self, key: int) -> float:
        """Tracked (signed) estimate for ``key``; KeyError if not tracked."""
        slot = self._slot(key)
        if slot < 0:
            raise KeyError(key)
        return float(self._ests[slot])

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The heap's own key (``uint64``) and estimate (``float64``)
        arrays, in storage order.  Read them, never write them; a later
        offer may change them in place, so copy what you keep."""
        return self._keys, self._ests

    def ranked(self) -> Tuple[np.ndarray, np.ndarray]:
        """Tracked keys and estimates as new arrays, largest |estimate|
        first; ties keep storage order."""
        order = np.argsort(-np.abs(self._ests), kind="stable")
        return self._keys[order], self._ests[order]

    def items(self) -> List[Tuple[int, float]]:
        """All tracked ``(key, estimate)`` pairs, largest |estimate| first."""
        keys, ests = self.ranked()
        return list(zip(keys.tolist(), ests.tolist()))

    def keys(self) -> List[int]:
        """Tracked keys in storage order."""
        return self._keys.tolist()

    def memory_bytes(self) -> int:
        """Data-plane cost: one 8-byte key + one 8-byte counter per slot."""
        return self.capacity * 16
