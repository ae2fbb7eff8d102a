"""Count-Min sketch (Cormode & Muthukrishnan 2005).

The workhorse of the OpenSketch library the paper benchmarks against.  Each
row hashes the key to a bucket and adds the weight; a point query takes the
*minimum* over rows, which overestimates by at most ``eps * L1`` with
probability ``1 - delta`` for ``width = e/eps`` and ``rows = ln(1/delta)``.

The optional *conservative update* variant only increments the minimal
counters, trading update cost for less overestimation — OpenSketch's
heavy-hitter pipeline uses it, so the baseline here supports it too.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError, IncompatibleSketchError
from repro.hashing.tabulation import (
    TabulationFamily,
    gather_packed,
    pack_tabulation_fields,
    tabulation_family,
)
from repro.sketches.base import Sketch, UpdateCost


def _row_buckets(family: TabulationFamily, width: int,
                 keys: np.ndarray) -> np.ndarray:
    """Every row's bucket for every key, as a ``(rows, len(keys))``
    ``int64`` array, for the signless tableau sketches (Count-Min,
    k-ary).  The bulk paths' one place to hash.

    A power-of-two width whose per-row bucket fields fit one 64-bit word
    takes one XOR-gather of a fused bucket table, built once per hash
    family; any other width takes one stacked gather of the full hashes
    (:meth:`~repro.hashing.tabulation.TabulationFamily.hash_matrix`),
    reduced modulo ``width`` as the scalar path does.
    """
    rows = len(family.hashes)
    lg2w = width.bit_length() - 1
    if width == 1 << lg2w and lg2w > 0 and rows * lg2w <= 63:
        mask = np.uint64(width - 1)
        packed = family.derived(
            ("bucket", width),
            lambda hashes: pack_tabulation_fields(
                hashes, lambda t: t & mask, lg2w))
        words = gather_packed(packed, keys)
        buckets = np.empty((rows, len(keys)), dtype=np.int64)
        for r, out in enumerate(buckets):
            np.right_shift(words, r * lg2w, out=out)
        buckets &= width - 1
        return buckets
    return (family.hash_matrix(keys) % np.uint64(width)).astype(np.int64)


def _add_rows(table: np.ndarray, buckets: np.ndarray,
              weights: Optional[np.ndarray]) -> None:
    """Add ``weights`` (one each when ``None``) at each row's buckets,
    with one ``np.bincount`` per row."""
    width = table.shape[1]
    wf = None if weights is None else weights.astype(np.float64)
    for row, bucket in zip(table, buckets):
        if wf is None:
            row += np.bincount(bucket, minlength=width)
        else:
            # float64 sums of int64 weights < 2**53 stay exact.
            row += np.bincount(bucket, weights=wf,
                               minlength=width).astype(np.int64)


class CountMinSketch(Sketch):
    """A ``rows x width`` Count-Min sketch over integer keys."""

    __slots__ = ("rows", "width", "seed", "conservative", "counter_bytes",
                 "table", "_family")

    def __init__(self, rows: int, width: int, seed: Optional[int] = None,
                 conservative: bool = False, counter_bytes: int = 4) -> None:
        if rows < 1:
            raise ConfigurationError(f"rows must be >= 1, got {rows}")
        if width < 1:
            raise ConfigurationError(f"width must be >= 1, got {width}")
        self.rows = rows
        self.width = width
        self.seed = seed
        self.conservative = conservative
        self.counter_bytes = counter_bytes
        self.table = np.zeros((rows, width), dtype=np.int64)
        self._family = tabulation_family(seed, rows)

    def _buckets(self, key: int) -> List[int]:
        return [h(key) % self.width for h in self._family.hashes]

    def update(self, key: int, weight: int = 1) -> None:
        buckets = self._buckets(key)
        table = self.table
        if self.conservative and weight > 0:
            current = min(table[r, b] for r, b in enumerate(buckets))
            target = current + weight
            for r, b in enumerate(buckets):
                if table[r, b] < target:
                    table[r, b] = target
        else:
            for r, b in enumerate(buckets):
                table[r, b] += weight

    def update_array(self, keys: np.ndarray,
                     weights: Optional[np.ndarray] = None) -> None:
        """Vectorised bulk update (plain, non-conservative semantics).

        Hashes every row in one gather (:func:`_row_buckets`) and
        accumulates each row with one ``np.bincount``."""
        if weights is not None:
            weights = np.asarray(weights).astype(np.int64, copy=False)
        if self.conservative:
            # Conservative update is inherently sequential; fall back.
            if weights is None:
                for k in np.asarray(keys).tolist():
                    self.update(int(k))
            else:
                for k, w in zip(np.asarray(keys).tolist(), weights.tolist()):
                    self.update(int(k), int(w))
            return
        if len(keys) == 0:
            return
        _add_rows(self.table, _row_buckets(self._family, self.width, keys),
                  weights)

    def query(self, key: int) -> int:
        """Point estimate: min over rows (never underestimates for
        non-negative streams)."""
        return int(min(self.table[r, b]
                       for r, b in enumerate(self._buckets(key))))

    def query_many(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        buckets = _row_buckets(self._family, self.width, keys)
        return np.take_along_axis(self.table, buckets, axis=1).min(axis=0)

    def l1_estimate(self) -> int:
        """Total stream weight (exact for non-negative streams: row sum)."""
        return int(self.table[0].sum())

    def _check_compatible(self, other: "CountMinSketch") -> None:
        if not isinstance(other, CountMinSketch):
            raise IncompatibleSketchError(
                f"cannot combine CountMinSketch with {type(other).__name__}")
        if (self.rows, self.width) != (other.rows, other.width):
            raise IncompatibleSketchError(
                f"geometry mismatch: {self.rows}x{self.width} vs "
                f"{other.rows}x{other.width}")
        if self.seed is None or self.seed != other.seed:
            raise IncompatibleSketchError(
                "sketches must share an explicit seed to be combined")
        if self.conservative or other.conservative:
            raise IncompatibleSketchError(
                "conservative-update sketches are not linear and cannot "
                "be merged")

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Return the sketch of the concatenated streams."""
        self._check_compatible(other)
        out = CountMinSketch.__new__(CountMinSketch)
        out.rows = self.rows
        out.width = self.width
        out.seed = self.seed
        out.conservative = False
        out.counter_bytes = self.counter_bytes
        out.table = self.table + other.table
        out._family = self._family
        return out

    def memory_bytes(self) -> int:
        return self.rows * self.width * self.counter_bytes

    def update_cost(self) -> UpdateCost:
        extra = self.rows if self.conservative else 0  # read-before-write
        return UpdateCost(hashes=self.rows,
                          counter_updates=self.rows,
                          memory_words=self.rows + extra)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CountMinSketch(rows={self.rows}, width={self.width}, "
                f"seed={self.seed}, conservative={self.conservative})")
