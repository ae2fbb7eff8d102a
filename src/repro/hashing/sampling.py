"""UnivMon level sampling (the ``h_1 .. h_L : [n] -> {0,1}`` stack).

Algorithm 1 of the paper keeps ``log n`` substreams: a key belongs to
substream ``D_j`` iff ``h_1(key) = ... = h_j(key) = 1`` for ``j`` independent
pairwise hash bits.  Every key is therefore in ``D_0`` (the full stream), and
membership is *prefix-closed*: if a key is in ``D_j`` it is in all shallower
substreams too.  The deepest substream a key belongs to is fully described by
one number — the index of the first hash that outputs 0.

:class:`LevelSampler` exposes exactly that number, so the data plane does a
single O(levels) pass per packet instead of the naive O(levels**2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.hashing.tabulation import (
    gather_packed,
    pack_tabulation_fields,
    tabulation_family,
)


class LevelSampler:
    """The sampling-hash stack shared by a universal sketch's levels.

    Parameters
    ----------
    levels:
        Number of sampled substreams *below* the full stream; the sketch
        has ``levels + 1`` Count Sketch instances (level 0 = full stream).
    seed:
        Seeds the underlying hash functions.  Two samplers with the same
        seed and level count are identical, which is the precondition for
        merging or differencing universal sketches.
    """

    __slots__ = ("levels", "_family", "seed")

    def __init__(self, levels: int, seed: Optional[int] = None) -> None:
        if levels < 0:
            raise ConfigurationError(f"levels must be >= 0, got {levels}")
        self.levels = levels
        self.seed = seed
        # One independent hash per level; bit j of a key is hash_j's parity.
        self._family = tabulation_family(seed, levels)

    def bit(self, level: int, key: int) -> int:
        """The value of ``h_level(key)`` in {0, 1} (level is 1-based)."""
        if not 1 <= level <= self.levels:
            raise ConfigurationError(
                f"level must be in [1, {self.levels}], got {level}")
        return self._family.hashes[level - 1](key) & 1

    def _packed_parity(self) -> Optional[np.ndarray]:
        """The fused parity table, or ``None`` when it cannot be packed
        (more than 63 levels).  Built once per hash family, so every
        equal-seed sampler shares it."""
        if self.levels > 63:
            return None
        return self._family.derived(
            ("parity",),
            lambda hashes: pack_tabulation_fields(
                hashes, lambda t: t & np.uint64(1), 1))

    def bit_array(self, level: int, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`bit`: ``h_level`` over a ``uint64`` key array.

        Fast path reuses the packed-tabulation parity table built for
        :meth:`deepest_level_array` — one XOR-gather yields every level's
        parity bit at once, and bit ``level - 1`` of the gathered word is
        selected.  The control plane uses this to precompute, per
        snapshot, the sampling bits Algorithm 2's Recursive Sum consumes,
        instead of re-hashing one key at a time per estimate.
        """
        if not 1 <= level <= self.levels:
            raise ConfigurationError(
                f"level must be in [1, {self.levels}], got {level}")
        words = self.parity_words(keys)
        if words is not None:
            return ((words >> np.int64(level - 1)) & np.int64(1)) \
                .astype(np.int64)
        return (self._family.hashes[level - 1].hash_array(
            np.asarray(keys, dtype=np.uint64))
            & np.uint64(1)).astype(np.int64)

    def parity_words(self, keys: np.ndarray) -> Optional[np.ndarray]:
        """All levels' sampling bits for ``keys`` in one XOR-gather.

        Bit ``j - 1`` of the returned ``int64`` word is ``h_j(key) & 1``.
        The query snapshot concatenates every level's heavy-hitter keys
        and calls this once, amortising the gather's fixed cost across
        the whole cascade.  ``None`` when the parity table cannot be
        packed (more than 63 levels) — callers fall back to per-level
        hashing.
        """
        packed = self._packed_parity()
        if packed is None:
            return None
        return gather_packed(packed, np.asarray(keys, dtype=np.uint64))

    def deepest_level(self, key: int) -> int:
        """Deepest substream index ``j`` such that key is in ``D_j``.

        Returns a value in ``[0, levels]``: 0 means only the full stream,
        ``levels`` means the key survives every sampling hash.
        """
        depth = 0
        for h in self._family.hashes:
            if h(key) & 1:
                depth += 1
            else:
                break
        return depth

    def deepest_level_array(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`deepest_level` for a ``uint64`` key array.

        Fast path: every level's parity bit is packed at bit ``j`` of one
        fused tabulation table (:func:`pack_tabulation_fields` with a
        1-bit field per level), so a single XOR-gather yields, per key,
        the word whose bit ``j`` is ``h_{j+1}(key) & 1``.  The depth is
        the run of trailing ones of that word — the position of the
        lowest zero bit, found with ``(x & -x)`` on the complement.
        Falls back to one stacked gather of every level's full hash
        when ``levels > 63``.
        """
        n = len(keys)
        if self.levels == 0:
            return np.zeros(n, dtype=np.int64)
        packed = self._packed_parity()
        if packed is not None:
            bits = gather_packed(packed, keys)
            mask = np.int64((1 << self.levels) - 1)
            inv = ~bits & mask          # zero bits of the parity word
            low = inv & -inv            # lowest zero bit (0 if none)
            depth = np.bitwise_count((low - np.int64(1)) & mask)
            return np.where(inv == 0, np.int64(self.levels),
                            depth).astype(np.int64)
        bits = (self._family.hash_matrix(keys) & np.uint64(1)).astype(bool)
        # Depth = index of first False row, or `levels` if all True.
        all_true = bits.all(axis=0)
        first_zero = np.argmin(bits, axis=0)  # 0 if bits[0] False, etc.
        depth = np.where(all_true, self.levels, first_zero)
        return depth.astype(np.int64)

    def compatible_with(self, other: "LevelSampler") -> bool:
        """True when both samplers hash identically (same seed geometry)."""
        return (self.levels == other.levels and self.seed == other.seed
                and self.seed is not None)
