"""k-ary sketch for change detection (Krishnamurthy et al., IMC 2003).

The custom baseline UnivMon is compared against in Figure 6.  A k-ary
sketch is a ``rows x width`` counter array (same geometry as Count-Min but
queried differently): the per-row *unbiased* point estimate removes the
expected collision mass,

    est_r(x) = (T[r, h_r(x)] - S / width) / (1 - 1/width),

with ``S`` the total stream weight, and the final estimate is the median
over rows.  Change detection sketches two adjacent intervals with the same
seeds, takes the counter-wise difference, and reports keys whose estimated
|difference| exceeds ``phi`` times the total change.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, IncompatibleSketchError
from repro.hashing.tabulation import tabulation_family
from repro.sketches.countmin import _add_rows, _row_buckets
from repro.sketches.base import Sketch, UpdateCost


class KArySketch(Sketch):
    """A ``rows x width`` k-ary sketch over integer keys."""

    __slots__ = ("rows", "width", "seed", "counter_bytes", "table", "_family")

    def __init__(self, rows: int, width: int, seed: Optional[int] = None,
                 counter_bytes: int = 4) -> None:
        if rows < 1 or width < 2:
            raise ConfigurationError(
                f"need rows >= 1 and width >= 2, got {rows}, {width}")
        self.rows = rows
        self.width = width
        self.seed = seed
        self.counter_bytes = counter_bytes
        self.table = np.zeros((rows, width), dtype=np.int64)
        self._family = tabulation_family(seed, rows)

    def update(self, key: int, weight: int = 1) -> None:
        for r, h in enumerate(self._family.hashes):
            self.table[r, h(key) % self.width] += weight

    def update_array(self, keys: np.ndarray,
                     weights: Optional[np.ndarray] = None) -> None:
        """Bulk update: every row hashed in one gather
        (``countmin._row_buckets``), then one ``bincount`` per row."""
        if len(keys) == 0:
            return
        if weights is not None:
            weights = np.asarray(weights).astype(np.int64, copy=False)
        _add_rows(self.table, _row_buckets(self._family, self.width, keys),
                  weights)

    def total(self) -> int:
        """Total stream weight S (row 0's sum; identical across rows)."""
        return int(self.table[0].sum())

    def query(self, key: int) -> float:
        """Unbiased per-key estimate (median of per-row estimates)."""
        s = float(self.total())
        w = self.width
        estimates = np.empty(self.rows, dtype=np.float64)
        for r, h in enumerate(self._family.hashes):
            v = float(self.table[r, h(key) % w])
            estimates[r] = (v - s / w) / (1.0 - 1.0 / w)
        return float(np.median(estimates))

    def query_many(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        s = float(self.total())
        w = self.width
        counters = np.take_along_axis(
            self.table, _row_buckets(self._family, w, keys), axis=1)
        return np.median((counters - s / w) / (1.0 - 1.0 / w), axis=0)

    def f2_estimate(self) -> float:
        """Unbiased F2 estimate from a single k-ary sketch row set."""
        s = float(self.total())
        w = self.width
        row_est = ((self.table.astype(np.float64) ** 2).sum(axis=1) - s * s / w) \
            * (w / (w - 1.0))
        return float(np.median(row_est))

    def subtract(self, other: "KArySketch") -> "KArySketch":
        """Counter-wise difference sketch (interval A minus interval B)."""
        self._check_compatible(other)
        out = KArySketch.__new__(KArySketch)
        out.rows, out.width, out.seed = self.rows, self.width, self.seed
        out.counter_bytes = self.counter_bytes
        out.table = self.table - other.table
        out._family = self._family
        return out

    def merge(self, other: "KArySketch") -> "KArySketch":
        self._check_compatible(other)
        out = KArySketch.__new__(KArySketch)
        out.rows, out.width, out.seed = self.rows, self.width, self.seed
        out.counter_bytes = self.counter_bytes
        out.table = self.table + other.table
        out._family = self._family
        return out

    def _check_compatible(self, other: "KArySketch") -> None:
        if not isinstance(other, KArySketch):
            raise IncompatibleSketchError(
                f"cannot combine KArySketch with {type(other).__name__}")
        if (self.rows, self.width) != (other.rows, other.width) \
                or self.seed is None or self.seed != other.seed:
            raise IncompatibleSketchError(
                "k-ary sketches must share geometry and an explicit seed")

    def memory_bytes(self) -> int:
        return self.rows * self.width * self.counter_bytes

    def update_cost(self) -> UpdateCost:
        return UpdateCost(hashes=self.rows, counter_updates=self.rows,
                          memory_words=self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KArySketch(rows={self.rows}, width={self.width}, seed={self.seed})"


def total_change(diff: KArySketch) -> float:
    """Estimate the total L1 change ``D = sum_x |f_A(x) - f_B(x)|``.

    A k-ary sketch cannot compute an L1 norm directly; following the
    original paper's practice we use the per-row sum of absolute bucket
    differences, which upper-approximates D (collisions can only cancel),
    taking the median across rows.
    """
    return float(np.median(np.abs(diff.table).sum(axis=1)))
