"""Reversible sketch via modular hashing (Schweller et al., ToN 2007).

Section 5 of the paper ("Reversibility") asks whether the keys behind
anomalous buckets can be *recovered* instead of thrown away.  The classic
answer is modular hashing: split the 32-bit key into ``chunks`` pieces,
hash each piece independently to a few bits, and concatenate the piece
hashes into the bucket index.  Recovery then works per piece: for a heavy
bucket, each index chunk constrains its key piece to the small preimage
set of that chunk hash, and intersecting candidate sets across several
independent rows prunes the false combinations.

The price of reversibility is a weaker hash (pieces are hashed
independently, so structured keys collide more) — the trade-off the
original paper documents, visible here in the tests.

This implementation recovers exact-key candidates for L1-heavy buckets
of an insert-only or difference stream, making it a drop-in "which key
caused this change?" companion to the k-ary change sketch.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, IncompatibleSketchError
from repro.sketches.base import Sketch, UpdateCost, check_batch

#: Per-piece hash tables and preimage maps of seeded sketches, by
#: ``(rows, chunk_bits, bucket_bits_per_chunk, seed)``: every epoch
#: builds fresh equal-seed sketches (and each subtract one more), and
#: the tables depend on nothing else.  Bounded like the tabulation
#: family cache: it clears rather than grows past its bound.
_TABLE_CACHE: dict = {}
_TABLE_CACHE_MAX = 64

_Preimages = List[List[Dict[int, List[int]]]]


def _build_tables(rows: int, chunks: int, chunk_bits: int,
                  bucket_bits: int, seed: Optional[int]
                  ) -> Tuple[np.ndarray, _Preimages]:
    """``random.Random(seed)``'s piece-hash tables, ``(rows, chunks,
    2**chunk_bits)`` (drawn row by row, chunk by chunk, piece value by
    piece value), and per ``(row, chunk)`` the map from hash value to
    the piece values that hash to it, in increasing order."""
    rng = random.Random(seed)
    chunk_values = 1 << chunk_bits
    draws = [rng.getrandbits(bucket_bits)
             for _ in range(rows * chunks * chunk_values)]
    tables = np.array(draws, dtype=np.int64).reshape(rows, chunks,
                                                     chunk_values)
    tables.flags.writeable = False
    preimages: _Preimages = []
    for row in tables.tolist():
        row_pre = []
        for chunk in row:
            buckets: Dict[int, List[int]] = {}
            for v, hash_value in enumerate(chunk):
                buckets.setdefault(hash_value, []).append(v)
            row_pre.append(buckets)
        preimages.append(row_pre)
    return tables, preimages


def _modular_tables(rows: int, chunks: int, chunk_bits: int,
                    bucket_bits: int, seed: Optional[int]
                    ) -> Tuple[np.ndarray, _Preimages]:
    """:func:`_build_tables`, memoised for seeded sketches.  Shared
    read-only: the table array is not writeable, and no sketch mutates
    the preimage maps.  ``seed=None`` means fresh randomness and is
    never cached."""
    if seed is None:
        return _build_tables(rows, chunks, chunk_bits, bucket_bits, None)
    key = (rows, chunk_bits, bucket_bits, int(seed))
    cached = _TABLE_CACHE.get(key)
    if cached is None:
        if len(_TABLE_CACHE) >= _TABLE_CACHE_MAX:
            _TABLE_CACHE.clear()
        cached = _TABLE_CACHE[key] = _build_tables(
            rows, chunks, chunk_bits, bucket_bits, seed)
    return cached


class ReversibleSketch(Sketch):
    """A reversible counting sketch over 32-bit keys.

    Parameters
    ----------
    rows:
        Independent modular-hash rows; recovery intersects across them.
    chunk_bits:
        Bits per key piece (key is split into ``32 / chunk_bits`` pieces).
    bucket_bits_per_chunk:
        Bits each piece hash contributes to the bucket index.  The table
        width is ``2 ** (pieces * bucket_bits_per_chunk)``.
    """

    def __init__(self, rows: int = 4, chunk_bits: int = 8,
                 bucket_bits_per_chunk: int = 3,
                 seed: Optional[int] = None) -> None:
        if 32 % chunk_bits != 0:
            raise ConfigurationError(
                f"chunk_bits {chunk_bits} must divide 32")
        if not 1 <= bucket_bits_per_chunk <= chunk_bits:
            raise ConfigurationError(
                "bucket_bits_per_chunk must be in [1, chunk_bits]")
        if rows < 1:
            raise ConfigurationError(f"rows must be >= 1, got {rows}")
        self.rows = rows
        self.chunk_bits = chunk_bits
        self.bucket_bits = bucket_bits_per_chunk
        self.chunks = 32 // chunk_bits
        self.width = 1 << (self.chunks * bucket_bits_per_chunk)
        self.seed = seed
        # Per (row, chunk): a lookup table mapping piece value -> hash,
        # and per (row, chunk, hash value) the piece values behind it.
        self._tables, self._preimages = _modular_tables(
            rows, self.chunks, chunk_bits, bucket_bits_per_chunk, seed)
        self.table = np.zeros((rows, self.width), dtype=np.int64)

    # ------------------------------------------------------------------ #
    # hashing
    # ------------------------------------------------------------------ #

    def _pieces(self, key: int) -> List[int]:
        mask = (1 << self.chunk_bits) - 1
        return [(key >> (self.chunk_bits * i)) & mask
                for i in range(self.chunks)]

    def bucket(self, row: int, key: int) -> int:
        """The modular-hash bucket of ``key`` in ``row``."""
        index = 0
        for c, piece in enumerate(self._pieces(key)):
            index |= int(self._tables[row, c, piece]) \
                << (self.bucket_bits * c)
        return index

    def _row_buckets(self, keys: np.ndarray,
                     rows: Sequence[int]) -> np.ndarray:
        """The bucket of every key in each of ``rows``, as a ``(len(rows),
        len(keys))`` array: the key pieces are extracted once, and each
        row gathers its piece hashes from them."""
        keys = np.asarray(keys, dtype=np.uint64)
        mask = np.uint64((1 << self.chunk_bits) - 1)
        pieces = [((keys >> np.uint64(self.chunk_bits * c)) & mask)
                  .astype(np.intp) for c in range(self.chunks)]
        out = np.zeros((len(rows), len(keys)), dtype=np.int64)
        for index, row in zip(out, rows):
            for c, piece in enumerate(pieces):
                index |= self._tables[row, c].take(piece) \
                    << (self.bucket_bits * c)
        return out

    # ------------------------------------------------------------------ #
    # stream interface
    # ------------------------------------------------------------------ #

    def update(self, key: int, weight: int = 1) -> None:
        for r in range(self.rows):
            self.table[r, self.bucket(r, key)] += weight

    def update_array(self, keys: np.ndarray,
                     weights: Optional[np.ndarray] = None) -> None:
        """Bulk :meth:`update`: one ``np.bincount`` per row.  Weights
        truncate per element, like the scalar path's ``int(w)``."""
        keys = check_batch(keys, weights)
        if weights is not None:
            # float64 sums of int64 weights < 2**53 stay exact.
            weights = np.asarray(weights).astype(np.int64, copy=False) \
                .astype(np.float64)
        buckets = self._row_buckets(keys, range(self.rows))
        for row, row_buckets in zip(self.table, buckets):
            counts = np.bincount(row_buckets, weights=weights,
                                 minlength=self.width)
            row += counts.astype(np.int64, copy=False)

    def query(self, key: int) -> float:
        """Point estimate (k-ary style unbiased median over rows)."""
        s = float(self.table[0].sum())
        w = self.width
        estimates = [
            (float(self.table[r, self.bucket(r, key)]) - s / w)
            / (1.0 - 1.0 / w)
            for r in range(self.rows)
        ]
        return float(np.median(estimates))

    def subtract(self, other: "ReversibleSketch") -> "ReversibleSketch":
        if not isinstance(other, ReversibleSketch) \
                or (self.rows, self.chunk_bits, self.bucket_bits, self.seed)\
                != (other.rows, other.chunk_bits, other.bucket_bits,
                    other.seed) or self.seed is None:
            raise IncompatibleSketchError(
                "reversible sketches must share geometry and explicit seed")
        out = ReversibleSketch(rows=self.rows, chunk_bits=self.chunk_bits,
                               bucket_bits_per_chunk=self.bucket_bits,
                               seed=self.seed)
        out.table = self.table - other.table
        return out

    # ------------------------------------------------------------------ #
    # reversal
    # ------------------------------------------------------------------ #

    def _heavy_buckets(self, row: int, threshold: float) -> List[int]:
        return np.nonzero(np.abs(self.table[row]) >= threshold)[0].tolist()

    def _viable_pieces(self, rows: Sequence[int],
                       threshold: float) -> np.ndarray:
        """Per chunk, a mask over piece values: True where the piece's
        hash, in every one of ``rows``, equals that chunk's field of one
        of the row's buckets with |count| >= ``threshold``.  A key with
        a non-viable piece has a light bucket in some row."""
        field = (1 << self.bucket_bits) - 1
        viable = np.ones((self.chunks, 1 << self.chunk_bits), dtype=bool)
        for row in rows:
            buckets = np.asarray(self._heavy_buckets(row, threshold),
                                 dtype=np.int64)
            for c in range(self.chunks):
                fields = np.zeros(field + 1, dtype=bool)
                fields[(buckets >> (self.bucket_bits * c)) & field] = True
                viable[c] &= fields[self._tables[row, c]]
        return viable

    def _candidate_array(self, row: int, bucket: int,
                         viable: np.ndarray) -> np.ndarray:
        """The keys a bucket's modular hash could have come from whose
        pieces are all ``viable`` (:meth:`_viable_pieces`), built by
        broadcasting the filtered per-chunk preimage sets, in the order
        ``itertools.product`` gives over them."""
        mask = (1 << self.bucket_bits) - 1
        per_chunk: List[np.ndarray] = []
        for c in range(self.chunks):
            hash_value = (bucket >> (self.bucket_bits * c)) & mask
            pre = np.asarray(self._preimages[row][c].get(hash_value, []),
                             dtype=np.intp)
            pre = pre[viable[c][pre]]
            if not len(pre):
                return np.empty(0, dtype=np.uint64)
            per_chunk.append(pre.astype(np.uint64))
        keys = per_chunk[0]
        for c in range(1, self.chunks):
            shifted = per_chunk[c] << np.uint64(self.chunk_bits * c)
            keys = (keys[:, None] | shifted[None, :]).ravel()
        return keys

    def recover_heavy_keys(self, threshold: float,
                           verify_rows: Optional[int] = None,
                           max_buckets: int = 32) -> List[Tuple[int, float]]:
        """Recover the keys of buckets with |count| >= threshold.

        Enumerate the modular-hash preimages of row 0's heavy buckets and
        keep the candidates whose buckets are heavy in (all) other rows
        too — the cross-row intersection that makes reversal sound.
        Each chunk's preimages are first narrowed to the pieces whose
        hash matches a heavy bucket's field in every verify row
        (:meth:`_viable_pieces`), which drops only keys the full-key
        check would reject, before the product is formed.

        Returns ``(key, estimate)`` pairs sorted by |estimate|.  Raises
        ConfigurationError if row 0 has more than ``max_buckets`` heavy
        buckets (the preimage enumeration would blow up — raise the
        threshold instead).
        """
        verify_rows = self.rows if verify_rows is None else verify_rows
        heavy0 = self._heavy_buckets(0, threshold)
        if len(heavy0) > max_buckets:
            raise ConfigurationError(
                f"{len(heavy0)} heavy buckets in row 0 exceeds "
                f"max_buckets={max_buckets}; raise the threshold")
        verify = range(1, verify_rows)
        viable = self._viable_pieces(verify, threshold)
        recovered: Dict[int, float] = {}
        for bucket in heavy0:
            candidates = self._candidate_array(0, bucket, viable)
            if candidates.size == 0:
                continue
            buckets = self._row_buckets(candidates, verify)
            confirmed = np.ones(len(candidates), dtype=bool)
            for r, row_buckets in zip(verify, buckets):
                confirmed &= np.abs(self.table[r, row_buckets]) >= threshold
            for key in candidates[confirmed].tolist():
                key = int(key)
                if key not in recovered:
                    recovered[key] = self.query(key)
        survivors = [(k, est) for k, est in recovered.items()
                     if abs(est) >= threshold * 0.5]
        survivors.sort(key=lambda kv: -abs(kv[1]))
        return survivors

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        return self.rows * self.width * 4

    def update_cost(self) -> UpdateCost:
        # One table lookup per (row, chunk) plus one counter per row.
        return UpdateCost(hashes=self.rows * self.chunks,
                          counter_updates=self.rows,
                          memory_words=self.rows * (self.chunks + 1))
