"""Bloom filter (Bloom 1970).

Used by the OpenSketch-style DDoS pipeline to test "is this (src, dst)
flow new?" before incrementing a per-destination counter, and generally
available as a substrate primitive.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.tabulation import TabulationHash
from repro.sketches.base import Sketch, UpdateCost


class BloomFilter(Sketch):
    """A ``bits``-bit Bloom filter with ``num_hashes`` hash functions."""

    __slots__ = ("bits", "num_hashes", "seed", "_bitmap", "_hashes")

    def __init__(self, bits: int, num_hashes: int = 4,
                 seed: Optional[int] = None) -> None:
        if bits < 8:
            raise ConfigurationError(f"bits must be >= 8, got {bits}")
        if num_hashes < 1:
            raise ConfigurationError(
                f"num_hashes must be >= 1, got {num_hashes}")
        self.bits = bits
        self.num_hashes = num_hashes
        self.seed = seed
        self._bitmap = np.zeros(bits, dtype=bool)
        rng = random.Random(seed)
        self._hashes: List[TabulationHash] = [
            TabulationHash(rng=rng) for _ in range(num_hashes)
        ]

    @classmethod
    def for_capacity(cls, capacity: int, fp_rate: float = 0.01,
                     seed: Optional[int] = None) -> "BloomFilter":
        """Size a filter for ``capacity`` insertions at ``fp_rate``."""
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 < fp_rate < 1.0:
            raise ConfigurationError(f"fp_rate must be in (0,1), got {fp_rate}")
        bits = max(8, int(math.ceil(-capacity * math.log(fp_rate)
                                    / (math.log(2) ** 2))))
        k = max(1, int(round(bits / capacity * math.log(2))))
        return cls(bits=bits, num_hashes=k, seed=seed)

    def update(self, key: int, weight: int = 1) -> None:
        self.add(key)

    def add(self, key: int) -> None:
        for h in self._hashes:
            self._bitmap[h(key) % self.bits] = True

    def __contains__(self, key: int) -> bool:
        return all(self._bitmap[h(key) % self.bits] for h in self._hashes)

    def add_if_new(self, key: int) -> bool:
        """Add ``key``; return True iff it was (probably) not present.

        The one-pass test-and-set the DDoS pipeline uses.
        """
        is_new = False
        for h in self._hashes:
            idx = h(key) % self.bits
            if not self._bitmap[idx]:
                is_new = True
                self._bitmap[idx] = True
        return is_new

    def add_if_new_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`add_if_new` over a ``uint64`` key array, in
        order: ``new[p]`` is what ``add_if_new(keys[p])`` returns once
        the keys before it are in.

        A key finds one of its bits unset exactly when the bit was unset
        before the batch and no earlier key of the batch touched it, so
        each bit's first toucher (one ``np.minimum.at``) decides every
        key at once.  The bitmap ends as the per-key loop leaves it.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        n = len(keys)
        bits = np.uint64(self.bits)
        index = np.stack([(h.hash_array(keys) % bits).astype(np.intp)
                          for h in self._hashes], axis=1)
        order = np.arange(n)[:, None]
        first = np.full(self.bits, n, dtype=np.intp)
        np.minimum.at(first, index, order)
        new = (~self._bitmap[index] & (first[index] == order)).any(axis=1)
        self._bitmap[index] = True
        return new

    def fill_ratio(self) -> float:
        return float(self._bitmap.mean())

    def memory_bytes(self) -> int:
        return (self.bits + 7) // 8

    def update_cost(self) -> UpdateCost:
        return UpdateCost(hashes=self.num_hashes,
                          counter_updates=self.num_hashes,
                          memory_words=self.num_hashes)
