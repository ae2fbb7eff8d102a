"""OpenSketch superspreader detection task.

A *superspreader* is a source contacting more than ``k`` distinct
destinations (scanners, worms) — one of OpenSketch's flagship library
tasks, built from exactly its primitives: a bloom filter deduplicates
(src, dst) pairs, and a count-min sketch counts *first-contact* events
per source, so its per-source estimate approximates the distinct
destination count.

This task is baseline-only in this repository: the universal sketch's
G-sums are statistics of one frequency vector, while superspreaders need
a per-key distinct count (a vector of F0s) — precisely the
"multidimensional" frontier §5 leaves open.  Having the custom task here
makes that boundary concrete and testable.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.sketches.base import Sketch, UpdateCost
from repro.sketches.bloom import BloomFilter
from repro.sketches.countmin import CountMinSketch
from repro.sketches.topk import TopK


class SuperSpreaderTask(Sketch):
    """Detect sources contacting more than ``k`` distinct destinations.

    ``update`` takes the packed (src, dst) pair key produced by
    :data:`repro.dataplane.keys.src_dst_key`; the source is the key's
    high 32 bits.

    Parameters
    ----------
    rows, width:
        Geometry of the per-source first-contact counter (count-min).
    bloom_bits:
        Bloom filter size for (src, dst) deduplication; undersizing it
        makes the filter saturate and *undercount* (false positives in
        the filter suppress first-contact events).
    heap_size:
        Candidate sources tracked for reporting.
    """

    def __init__(self, rows: int = 3, width: int = 4096,
                 bloom_bits: int = 1 << 18, heap_size: int = 128,
                 seed: Optional[int] = None) -> None:
        if seed is None:
            raise ConfigurationError(
                "SuperSpreaderTask needs an explicit seed")
        self._bloom = BloomFilter(bits=bloom_bits, num_hashes=4, seed=seed)
        self._counts = CountMinSketch(rows=rows, width=width,
                                      seed=seed + 1)
        self._heap = TopK(heap_size)

    @staticmethod
    def source_of(pair_key: int) -> int:
        return (pair_key >> 32) & 0xFFFFFFFF

    def update(self, key: int, weight: int = 1) -> None:
        """Fold one (src, dst) pair key in (weight is ignored: contact
        uniqueness, not volume, is what counts)."""
        if self._bloom.add_if_new(key):
            src = self.source_of(key)
            self._counts.update(src, 1)
            self._heap.offer(src, float(self._counts.query(src)))

    def update_array(self, keys: np.ndarray,
                     weights: Optional[np.ndarray] = None) -> None:
        """Bulk path: the Bloom filter and the first-contact counters
        end as the per-packet loop leaves them (the filter decides each
        pair in batch order, :meth:`BloomFilter.add_if_new_array`); the
        heap is refreshed once, from post-batch estimates of the sources
        that made a first contact."""
        keys = np.asarray(keys, dtype=np.uint64)
        new = self._bloom.add_if_new_array(keys)
        sources = (keys[new] >> np.uint64(32)) & np.uint64(0xFFFFFFFF)
        if not len(sources):
            return
        self._counts.update_array(sources)
        uniq = np.unique(sources)
        self._heap.offer_many(uniq, self._counts.query_many(uniq),
                              sorted_keys=True)

    def distinct_destinations(self, src: int) -> float:
        """Estimated distinct destinations contacted by ``src``."""
        return float(self._counts.query(src))

    def superspreaders(self, k: int) -> List[Tuple[int, float]]:
        """Tracked sources whose estimate exceeds ``k``, largest first."""
        return [(src, est) for src, est in self._heap.items() if est > k]

    def memory_bytes(self) -> int:
        return (self._bloom.memory_bytes() + self._counts.memory_bytes()
                + self._heap.memory_bytes())

    def update_cost(self) -> UpdateCost:
        bloom = self._bloom.update_cost()
        # The count-min + heap path only runs on first contacts; charge
        # the expected amortised cost assuming mostly-repeat traffic.
        return UpdateCost(hashes=bloom.hashes + 1,
                          counter_updates=bloom.counter_updates + 1,
                          memory_words=bloom.memory_words + 2)
