"""The per-level ``UniversalSketch`` that the counter tensor replaced,
frozen as the reference the differential tests drive beside it.

Each level is a standalone :class:`~repro.core.level.SketchLevel` that
owns its Count Sketch table; bulk ingest, ``merge``/``subtract`` and
``copy`` loop over the levels exactly as they did before every counter
moved into one tensor.  Kept verbatim, less the instrumentation and the
control-plane wrappers the tests do not call.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.level import SketchLevel, aggregate
from repro.hashing.sampling import LevelSampler
from repro.hashing.tabulation import derived_seeds
from repro.sketches.base import check_batch
from repro.sketches.topk import TopK


class ReferenceUniversal:
    """Algorithm 1 as ``levels + 1`` independent per-level sketches."""

    def __init__(self, levels: int, rows: int, width: int, heap_size: int,
                 seed: int, counter_bytes: int = 4) -> None:
        self.num_levels = levels
        self.rows = rows
        self.width = width
        self.heap_size = heap_size
        self.seed = seed
        self.counter_bytes = counter_bytes
        sampler_seed, *level_seeds = derived_seeds(seed, levels + 2)
        self.sampler = LevelSampler(levels, seed=sampler_seed)
        self.levels: List[SketchLevel] = [
            SketchLevel(rows=rows, width=width, heap_size=heap_size,
                        seed=level_seed, counter_bytes=counter_bytes)
            for level_seed in level_seeds
        ]
        self.packets = 0

    def update(self, key: int, weight: int = 1) -> None:
        depth = self.sampler.deepest_level(key)
        levels = self.levels
        for j in range(depth + 1):
            levels[j].update(key, weight)
        self.packets += 1

    def update_array(self, keys: np.ndarray,
                     weights: Optional[np.ndarray] = None) -> None:
        keys = check_batch(keys, weights)
        n = len(keys)
        if n == 0:
            return
        keys, packets, weights = aggregate(keys, weights)
        depths = self.sampler.deepest_level_array(keys)
        for j, level in enumerate(self.levels):
            if j:
                # Depth is prefix-closed, so level j's keys are the
                # previous level's keys of depth >= j (still sorted).
                deeper = depths >= j
                if not deeper.any():
                    break
                keys, packets, weights, depths = (
                    keys[deeper], packets[deeper], weights[deeper],
                    depths[deeper])
            level.update_distinct(keys, packets, weights)
        self.packets += n

    def _combine(self, others: Tuple["ReferenceUniversal", ...],
                 sign: int) -> "ReferenceUniversal":
        out = self.copy()
        if not others:
            return out
        fold = np.add if sign > 0 else np.subtract
        for j, lvl in enumerate(out.levels):
            parts = [other.levels[j] for other in others]
            table = lvl.sketch.table
            for part in parts:
                fold(table, part.sketch.table, out=table)
            lvl.packets += sum(part.packets for part in parts)
            lvl.weight += sign * sum(part.weight for part in parts)
            heaps = [lvl.topk] + [part.topk for part in parts]
            keys = np.unique(np.concatenate([h.arrays()[0] for h in heaps]))
            heap = TopK(self.heap_size)
            if len(keys):
                heap.offer_many(keys, lvl.sketch.query_many(keys),
                                sorted_keys=True)
            heap.offers = sum(h.offers for h in heaps)
            heap.evictions = sum(h.evictions for h in heaps)
            heap.rejections = sum(h.rejections for h in heaps)
            lvl.topk = heap
        out.packets += sum(other.packets for other in others)
        return out

    def copy(self) -> "ReferenceUniversal":
        out = ReferenceUniversal.__new__(ReferenceUniversal)
        out.num_levels = self.num_levels
        out.rows = self.rows
        out.width = self.width
        out.heap_size = self.heap_size
        out.seed = self.seed
        out.counter_bytes = self.counter_bytes
        out.sampler = self.sampler
        out.levels = [level.copy() for level in self.levels]
        out.packets = self.packets
        return out

    def merge(self, *others: "ReferenceUniversal") -> "ReferenceUniversal":
        return self._combine(others, +1)

    def subtract(self, other: "ReferenceUniversal") -> "ReferenceUniversal":
        return self._combine((other,), -1)
