"""One level of the universal sketch: a Count Sketch plus its ``Q_j`` heap.

Algorithm 1 keeps, for every sampled substream ``D_j``, a Count Sketch and
the substream's top-k L2 heavy hitters.  The heap entries (key, estimated
count) are exactly the ``(i, w_j(i))`` pairs Algorithm 2 consumes.

Heavy hitter tracking piggybacks on the counter update: the same per-row
(bucket, sign) pairs the update touches yield the post-update median
estimate, so tracking costs no extra hashing.  The bulk path keeps that
property per batch: a batch is first folded to its distinct keys
(:func:`aggregate`), and each distinct key is hashed once for both its
counter update and its heap refresh.

Inside a :class:`~repro.core.universal.UniversalSketch` a level is a thin
view: its ``sketch.table`` is the slice ``counters[j]`` of the sketch's
counter tensor (:meth:`SketchLevel.over`), so the scalar path and every
reader of ``level.sketch`` see the tensor.  The universal sketch runs
its bulk paths on the tensor itself and calls
:meth:`SketchLevel.update_distinct` level by level only for batches with
many distinct keys.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.sketches.base import UpdateCost, check_batch
from repro.sketches.countsketch import CountSketch
from repro.sketches.topk import TopK


def aggregate(keys: np.ndarray, weights: Optional[np.ndarray] = None
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold a batch of packets to ``(keys, packets, weights)`` per
    distinct key: the sorted distinct keys, each key's packet count and
    its ``int64`` weight sum (unweighted, the packet count itself).

    Weights truncate per element first, like the scalar path's
    ``int(w)``.  Their sums run in ``float64``, as the counter updates
    always have, so they are exact while every partial sum stays below
    ``2**53`` in magnitude.
    """
    if weights is None:
        uniq, packets = np.unique(keys, return_counts=True)
        return uniq, packets, packets
    weights = np.asarray(weights).astype(np.int64, copy=False)
    uniq, inverse, packets = np.unique(keys, return_inverse=True,
                                       return_counts=True)
    sums = np.bincount(inverse, weights=weights, minlength=len(uniq))
    return uniq, packets, sums.astype(np.int64)


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

    @classmethod
    def over(cls, sketch: CountSketch, topk: TopK) -> "SketchLevel":
        """A level around ``sketch`` (typically a
        :meth:`CountSketch.over` view) and ``topk``, with no packets
        or weight yet."""
        out = cls.__new__(cls)
        out.sketch = sketch
        out.topk = topk
        out.packets = 0
        out.weight = 0
        return out

    def update(self, key: int, weight: int = 1) -> None:
        """Fold one element of ``D_j`` in and refresh its heap estimate."""
        sketch = self.sketch
        table = sketch.table
        w = sketch.width
        estimates = np.empty(sketch.rows, dtype=np.float64)
        for r, h in enumerate(sketch._family.hashes):
            v = h(key)
            sign = 1 if (v >> 63) else -1
            bucket = v % w
            table[r, bucket] += sign * weight
            estimates[r] = sign * table[r, bucket]
        self.packets += 1
        self.weight += weight
        self.topk.offer(key, float(np.median(estimates)))

    def update_array(self, keys: np.ndarray,
                     weights: Optional[np.ndarray] = None) -> None:
        """Bulk path over raw packets: :func:`aggregate` the batch, then
        :meth:`update_distinct`.  Raises
        :class:`~repro.errors.ConfigurationError` for a malformed batch
        (see :func:`~repro.sketches.base.check_batch`)."""
        keys = check_batch(keys, weights)
        if len(keys):
            self.update_distinct(*aggregate(keys, weights))

    def update_distinct(self, keys: np.ndarray, packets: np.ndarray,
                        weights: np.ndarray) -> None:
        """Fold in an aggregated batch (the output of :func:`aggregate`):
        add each distinct key's weight to the counters, then refresh the
        heap from the post-batch point estimates of those keys.  Each
        key is hashed once for both.

        Same counters, packets and weight as the per-packet bulk update
        of the raw batch; the heap contents are at least as accurate as
        the streaming heap (estimates are post-batch).
        """
        self.packets += int(packets.sum())
        self.weight += int(weights.sum())
        estimates = self.sketch._update_query_many(keys, weights)
        # Bulk merge: equivalent to offering every (key, estimate) in
        # increasing-|estimate| order, in O(capacity) Python work.
        self.topk.offer_many(keys, estimates, sorted_keys=True)

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
