"""One level of the universal sketch: a Count Sketch plus its ``Q_j`` heap.

Algorithm 1 keeps, for every sampled substream ``D_j``, a Count Sketch and
the substream's top-k L2 heavy hitters.  The heap entries (key, estimated
count) are exactly the ``(i, w_j(i))`` pairs Algorithm 2 consumes.

Heavy hitter tracking piggybacks on the counter update: the same per-row
(bucket, sign) pairs the update touches yield the post-update median
estimate, so tracking costs no extra hashing.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.sketches.base import UpdateCost
from repro.sketches.countsketch import CountSketch
from repro.sketches.topk import TopK


class SketchLevel:
    """Count Sketch + top-k heavy hitter heap for one substream ``D_j``."""

    __slots__ = ("sketch", "topk", "packets", "weight")

    def __init__(self, rows: int, width: int, heap_size: int,
                 seed: Optional[int] = None,
                 counter_bytes: int = 4) -> None:
        self.sketch = CountSketch(rows=rows, width=width, seed=seed,
                                  counter_bytes=counter_bytes)
        self.topk = TopK(heap_size)
        self.packets = 0   # substream length m_j
        self.weight = 0    # substream total weight

    def update(self, key: int, weight: int = 1) -> None:
        """Fold one element of ``D_j`` in and refresh its heap estimate."""
        sketch = self.sketch
        table = sketch.table
        w = sketch.width
        estimates = np.empty(sketch.rows, dtype=np.float64)
        for r, h in enumerate(sketch._hashes):
            v = h(key)
            sign = 1 if (v >> 63) else -1
            bucket = v % w
            table[r, bucket] += sign * weight
            estimates[r] = sign * table[r, bucket]
        self.packets += 1
        self.weight += weight
        self.topk.offer(key, float(np.median(estimates)))

    def update_array(self, keys: np.ndarray,
                     weights: Optional[np.ndarray] = None,
                     distinct: Optional[np.ndarray] = None) -> None:
        """Bulk path: update counters vectorised, then refresh the heap
        from the post-batch point estimates of the batch's distinct keys.

        Equivalent data-plane state; the heap contents are at least as
        accurate as the streaming heap (estimates are post-batch).
        ``distinct``, when given, must be the sorted distinct keys of
        ``keys`` — the universal sketch computes it once for the whole
        batch and hands each level its slice, skipping a per-level sort.
        """
        if len(keys) == 0:
            return
        self.sketch.update_array(keys, weights)
        self.packets += len(keys)
        if weights is None:
            self.weight += len(keys)
        else:
            self.weight += int(np.sum(weights))
        uniq = np.unique(keys) if distinct is None else distinct
        estimates = self.sketch.query_many(uniq)
        # Bulk merge: equivalent to offering every (key, estimate) in
        # increasing-|estimate| order, in O(capacity) Python work.
        self.topk.offer_many(uniq, estimates, sorted_keys=True)

    def copy(self) -> "SketchLevel":
        """An independent snapshot sharing only the (immutable) hashes."""
        out = SketchLevel.__new__(SketchLevel)
        out.sketch = self.sketch.copy()
        out.topk = self.topk.copy()
        out.packets = self.packets
        out.weight = self.weight
        return out

    def heavy_hitters(self) -> List[Tuple[int, float]]:
        """The level's ``Q_j``: (key, w_j(key)) pairs, largest first."""
        return self.topk.items()

    def memory_bytes(self) -> int:
        return self.sketch.memory_bytes() + self.topk.memory_bytes()

    def update_cost(self) -> UpdateCost:
        base = self.sketch.update_cost()
        # Heap maintenance: one bounded-size heap touch per update.
        return UpdateCost(hashes=base.hashes,
                          counter_updates=base.counter_updates,
                          memory_words=base.memory_words + 1)
