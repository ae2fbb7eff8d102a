"""A fixed reference kernel that tracks how fast the host runs right now.

The single-thread epoch loops mix two kinds of work: numpy gathers, sorts
and bincounts over key arrays, and plain-Python dict and heap passes.  The
kernel does a fixed amount of both, so a host that slows down for a while
slows the kernel and the loop by about the same factor.  Timing the kernel
between epochs and dividing each epoch's time by the kernel time measured
around it removes most of the host's drift from the reported figures.

The kernel imports nothing from ``repro``: no change to the program under
test can move it.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Sequence

import numpy as np

#: Kernel median (ms) on the host the benchmark was calibrated on; a
#: normalised time reads "ms at that host's speed".
NOMINAL_MS = 2.0

_KEYS = 8192
_ITEMS = 1500


class ReferenceKernel:
    """Fixed work: one tabulation-style gather, a sort, a unique, a
    bincount, and a dict + bounded-heap pass in plain Python."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20151116)
        self._keys = rng.integers(0, 1 << 63, size=_KEYS, dtype=np.uint64)
        self._table = rng.integers(0, 1 << 62, size=(8, 256), dtype=np.int64)
        self._items = rng.integers(0, 1 << 30, size=_ITEMS).tolist()

    def run(self) -> int:
        view = self._keys.view(np.uint8).reshape(-1, 8)
        acc = np.take(self._table[0], view[:, 0])
        for i in range(1, 8):
            acc ^= np.take(self._table[i], view[:, i])
        order = np.argsort(acc & np.int64(255), kind="stable")
        uniq = np.unique(acc[order] & np.int64(0xFFFFF))
        counts = np.bincount((acc & np.int64(2047)).astype(np.intp),
                             minlength=2048)
        tally = {}
        for item in self._items:
            slot = item & 1023
            tally[slot] = tally.get(slot, 0) + 1
        heap: List[tuple] = []
        for slot, count in tally.items():
            if len(heap) < 64:
                heapq.heappush(heap, (count, slot))
            elif count > heap[0][0]:
                heapq.heapreplace(heap, (count, slot))
        return int(counts[0]) + len(uniq) + len(heap)

    def time_ms(self) -> float:
        start = time.perf_counter()
        self.run()
        return (time.perf_counter() - start) * 1e3


def scale(ref_ms: Sequence[float], radius: int) -> np.ndarray:
    """Per-sample factor that brings a time to the calibration host's
    speed: ``NOMINAL_MS`` over the median kernel time within ``radius``
    samples either side.  The median keeps one noisy kernel timing from
    skewing the epoch it sits next to, while drift over tens of seconds
    is still followed."""
    ref = np.asarray(ref_ms, dtype=np.float64)
    local = np.array([np.median(ref[max(0, i - radius):i + radius + 1])
                      for i in range(len(ref))])
    return NOMINAL_MS / local
