"""Count Sketch (Charikar, Chen, Farach-Colton 2002).

The L2 heavy hitter / point-query structure at the heart of UnivMon: each of
``rows`` rows hashes the key to one of ``width`` buckets and adds
``sign(key) * weight`` there; a point query returns the median over rows of
``sign(key) * bucket``.  The estimator is unbiased with per-row standard
deviation ``L2 / sqrt(width)``, and the median over rows turns that into a
high-probability guarantee.

Count Sketch is *linear*: sketches with the same geometry and seed can be
added and subtracted counter-by-counter.  Subtraction is what makes change
detection (Figure 6) essentially free for UnivMon.

Both bucket index and sign are derived from a single tabulation hash per
row (low bits -> bucket, top bit -> sign); simple tabulation is 3-wise
independent, more than the pairwise independence the analysis needs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from repro.errors import ConfigurationError, IncompatibleSketchError
from repro.hashing.tabulation import (
    TabulationFamily,
    gather_packed,
    pack_tabulation_fields,
    tabulation_family,
)
from repro.sketches.base import Sketch, UpdateCost, check_batch


class CountSketch(Sketch):
    """A ``rows x width`` Count Sketch over integer keys.

    Parameters
    ----------
    rows:
        Number of independent hash rows (median is taken across these).
    width:
        Buckets per row; per-row error is ``L2 / sqrt(width)``.
    seed:
        Seeds the row hashes; equal (rows, width, seed) sketches are
        mergeable and subtractable.
    counter_bytes:
        Bytes charged per counter in :meth:`memory_bytes` (hardware
        sketches use 4-byte counters; the accounting follows suit).
    """

    __slots__ = ("rows", "width", "seed", "counter_bytes", "table", "_family")

    def __init__(self, rows: int, width: int, seed: Optional[int] = None,
                 counter_bytes: int = 4) -> None:
        if rows < 1:
            raise ConfigurationError(f"rows must be >= 1, got {rows}")
        if width < 1:
            raise ConfigurationError(f"width must be >= 1, got {width}")
        self.rows = rows
        self.width = width
        self.seed = seed
        self.counter_bytes = counter_bytes
        self.table = np.zeros((rows, width), dtype=np.int64)
        self._family = tabulation_family(seed, rows)

    @classmethod
    def over(cls, table: np.ndarray, family: TabulationFamily,
             seed: Optional[int] = None,
             counter_bytes: int = 4) -> "CountSketch":
        """A Count Sketch whose counters are ``table``, a ``(rows,
        width)`` ``int64`` array it updates in place but does not own
        (one level of a universal sketch's counter tensor), hashing
        with ``family``'s ``rows`` hashes."""
        out = cls.__new__(cls)
        out.rows, out.width = table.shape
        out.seed = seed
        out.counter_bytes = counter_bytes
        out.table = table
        out._family = family
        return out

    def _packed_state(self):
        """Fused slot tables for the bulk path, built once per hash
        family and shared by every sketch of it (copies, decoded frames,
        equal-seed sketches; see
        :meth:`~repro.hashing.tabulation.TabulationFamily.derived`).

        When ``width`` is a power of two and every row's ``(sign,
        bucket)`` field fits one 64-bit word, returns ``(tables,
        field_bits)`` where XOR-gathering ``tables`` yields, per row ``r``
        at bit offset ``r * field_bits``, the slot ``sign_bit * width +
        bucket`` — both derived from the hash exactly as the scalar path
        derives them.  Returns ``(None, 0)`` when the geometry cannot be
        packed (the generic bulk path is used instead).
        """
        lg2w = self.width.bit_length() - 1
        field_bits = lg2w + 1
        if self.width != 1 << lg2w or self.rows * field_bits > 63:
            return (None, 0)
        mask = np.uint64(self.width - 1)
        shift = np.uint64(lg2w)
        tables = self._family.derived(
            ("countsketch", self.width),
            lambda hashes: pack_tabulation_fields(
                hashes,
                lambda t: (t & mask) | ((t >> np.uint64(63)) << shift),
                field_bits))
        return (tables, field_bits)

    # ------------------------------------------------------------------ #
    # update / query
    # ------------------------------------------------------------------ #

    def update(self, key: int, weight: int = 1) -> None:
        table = self.table
        width = self.width
        for r, h in enumerate(self._family.hashes):
            v = h(key)
            sign = 1 if (v >> 63) else -1
            table[r, v % width] += sign * weight

    def _row_slots(self, keys: np.ndarray) -> Iterator[np.ndarray]:
        """Each row's slot ``sign_bit * width + bucket`` for every key:
        one ``int64`` array per row, in row order.

        The one place the bulk paths hash.  A packed geometry
        (:meth:`_packed_state`) evaluates every row with one XOR-gather
        and yields each row's bit field in turn, so a large batch never
        holds more than one row's slots; any other geometry evaluates all
        rows with one stacked gather
        (:meth:`~repro.hashing.tabulation.TabulationFamily.hash_matrix`)
        and derives each slot from the hash as the scalar path does
        (hash modulo ``width`` -> bucket, top bit -> sign).
        """
        packed, field_bits = self._packed_state()
        if packed is not None:
            words = gather_packed(packed, keys)
            fmask = np.int64(2 * self.width - 1)
            for r in range(self.rows):
                slot = words >> np.int64(r * field_bits)
                slot &= fmask
                yield slot
            return
        width = np.uint64(self.width)
        v = self._family.hash_matrix(keys)
        slots = (v >> np.uint64(63)) * width
        slots += v % width
        yield from slots.view(np.int64)  # every slot < 2 * width

    def _add(self, row_slots: Iterable[np.ndarray],
             weights: Optional[np.ndarray]) -> None:
        """Add ``weights`` (``float64``; one each when ``None``) at each
        row's slots with one ``np.bincount`` per row over ``2 * width``
        slots.  The sign bit selects the half, so the signed sum is
        ``counts[width:] - counts[:width]`` with no sign multiply."""
        width = self.width
        for row, slot in zip(self.table, row_slots):
            counts = np.bincount(slot, weights=weights, minlength=2 * width)
            if weights is not None:
                # float64 sums of int64 weights < 2**53 stay exact.
                counts = counts.astype(np.int64)
            row += counts[width:]
            row -= counts[:width]

    def _estimates(self, row_slots: Iterable[np.ndarray],
                   n: int) -> np.ndarray:
        """Median over rows of each row's signed counter at the slots of
        ``n`` keys, as ``float64``.

        Sorting the few rows in place and reading the middle row (the
        mean of the two middle rows when ``rows`` is even) gives the
        value ``np.median`` gives, bit for bit, without its fixed cost
        per call: the middle pair is converted to ``float64`` before it
        is summed and halved, as ``np.median`` does, and as :meth:`query`
        does on its ``float64`` row estimates.
        """
        # Each row laid out as [-row, +row]: a slot (sign bit * width +
        # bucket, always < 2 * width) reads its signed counter directly.
        signed = np.concatenate((-self.table, self.table), axis=1)
        vals = np.empty((self.rows, n), dtype=np.int64)
        for row, slot, out in zip(signed, row_slots, vals):
            row.take(slot, mode="clip", out=out)
        vals.sort(axis=0)
        mid = self.rows // 2
        if self.rows % 2:
            return vals[mid].astype(np.float64)
        return (vals[mid - 1].astype(np.float64) + vals[mid]) / 2

    def update_array(self, keys: np.ndarray,
                     weights: Optional[np.ndarray] = None) -> None:
        """Vectorised bulk update (numpy ``uint64`` keys): the batch is
        hashed once (:meth:`_row_slots`) and each row accumulates it
        with one ``np.bincount`` (:meth:`_add`).  Raises
        :class:`~repro.errors.ConfigurationError` for a malformed batch
        (see :func:`~repro.sketches.base.check_batch`)."""
        keys = check_batch(keys, weights)
        if len(keys) == 0:
            return
        if weights is not None:
            # Truncate per element, like the scalar path's int(w).
            weights = np.asarray(weights).astype(np.int64, copy=False) \
                .astype(np.float64)
        self._add(self._row_slots(keys), weights)

    def _update_query_many(self, keys: np.ndarray,
                           weights: np.ndarray) -> np.ndarray:
        """:meth:`update_array` then :meth:`query_many` over the same
        keys, hashing them once.  The universal sketch's per-level fold
        of distinct keys, whose ``weights`` are ``int64`` sums."""
        slots = list(self._row_slots(keys))
        self._add(slots, weights.astype(np.float64))
        return self._estimates(slots, len(keys))

    def query(self, key: int) -> float:
        """Unbiased point estimate of the key's total weight (median rule)."""
        estimates = np.empty(self.rows, dtype=np.float64)
        for r, h in enumerate(self._family.hashes):
            v = h(key)
            sign = 1 if (v >> 63) else -1
            estimates[r] = sign * self.table[r, v % self.width]
        return float(np.median(estimates))

    def query_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised point queries for a ``uint64`` key array."""
        keys = np.asarray(keys, dtype=np.uint64)
        return self._estimates(self._row_slots(keys), len(keys))

    def l2_estimate(self) -> float:
        """Estimate of the stream's L2 norm (median of per-row norms)."""
        row_norms = np.sqrt((self.table.astype(np.float64) ** 2).sum(axis=1))
        return float(np.median(row_norms))

    def f2_estimate(self) -> float:
        """Estimate of the second frequency moment ``F2 = sum f_i**2``."""
        row_f2 = (self.table.astype(np.float64) ** 2).sum(axis=1)
        return float(np.median(row_f2))

    # ------------------------------------------------------------------ #
    # linearity
    # ------------------------------------------------------------------ #

    def _check_compatible(self, other: "CountSketch") -> None:
        if not isinstance(other, CountSketch):
            raise IncompatibleSketchError(
                f"cannot combine CountSketch with {type(other).__name__}")
        if (self.rows, self.width) != (other.rows, other.width):
            raise IncompatibleSketchError(
                f"geometry mismatch: {self.rows}x{self.width} vs "
                f"{other.rows}x{other.width}")
        if self.seed is None or self.seed != other.seed:
            raise IncompatibleSketchError(
                "sketches must share an explicit seed to be combined")

    def merge(self, other: "CountSketch") -> "CountSketch":
        """Return the sketch of the concatenated streams (self + other)."""
        self._check_compatible(other)
        out = self.copy()
        out.table += other.table
        return out

    def subtract(self, other: "CountSketch") -> "CountSketch":
        """Return the sketch of the *difference* stream (self - other).

        Point queries on the result estimate ``f_A(x) - f_B(x)``; this is
        the primitive behind UnivMon change detection.
        """
        self._check_compatible(other)
        out = self.copy()
        out.table -= other.table
        return out

    def copy(self) -> "CountSketch":
        out = CountSketch.__new__(CountSketch)
        out.rows = self.rows
        out.width = self.width
        out.seed = self.seed
        out.counter_bytes = self.counter_bytes
        out.table = self.table.copy()
        out._family = self._family  # immutable, shareable
        return out

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        return self.rows * self.width * self.counter_bytes

    def update_cost(self) -> UpdateCost:
        return UpdateCost(hashes=self.rows, counter_updates=self.rows,
                          memory_words=self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CountSketch(rows={self.rows}, width={self.width}, "
                f"seed={self.seed})")
