"""Simple tabulation hashing (Zobrist / Patrascu-Thorup).

The 64-bit key is split into 8 bytes; each byte indexes its own table of 256
random 64-bit words, and the results are XORed.  Simple tabulation is
3-wise independent (strictly more than the pairwise independence the
sketches require) and in practice behaves like a fully random function for
the workloads here (Patrascu & Thorup, "The Power of Simple Tabulation
Hashing").

It is the fast path for per-packet scalar hashing: eight table lookups and
XORs beat modular polynomial evaluation by a wide margin in CPython, and
the batched :meth:`TabulationHash.hash_array` variant is pure numpy fancy
indexing, which is what makes trace-scale benchmarks tractable.

Multi-row bulk hashing goes further, along two paths.  Because
tabulation hashing is a XOR of byte-table entries, any function of the
hash that commutes with XOR (bit masks, bit selects, shifts) can be
*precomputed into the tables*; and several rows' fields can be packed
into disjoint bit ranges of one 64-bit word, since XOR never carries
between fields.  A sketch with ``rows`` hash functions and a
power-of-two width then evaluates every row's bucket (and sign bit) with
a single set of eight gathers from one fused ``(8, 256)`` table — see
:func:`pack_tabulation_fields` / :func:`gather_packed` and their use in
``repro.sketches.countsketch``.  A width that is not a power of two
needs each row's full 64-bit hash (bucket = hash modulo width, which
does not commute with XOR); :meth:`TabulationFamily.hash_matrix` gathers
those for all rows at once from the family's stacked ``(8, 256, rows)``
table, so it too costs eight gathers per call, not eight per row.

Both kinds of table depend only on the seed.  :func:`tabulation_family`
memoises each seeded family, and the family memoises the tables derived
from it (:meth:`TabulationFamily.derived`), so equal-seed sketches —
every frame decode, every merge fold, every epoch's fresh sketch — build
them once per process, not once per sketch.
"""

from __future__ import annotations

import random
import sys
from typing import Callable, Hashable, Optional, Sequence, Tuple

import numpy as np

_MASK64 = (1 << 64) - 1

_LITTLE_ENDIAN = sys.byteorder == "little"


def byte_view(xs: np.ndarray) -> np.ndarray:
    """The 8 bytes of each ``uint64`` key as an ``(n, 8)`` view.

    Column ``i`` holds bits ``[8i, 8i+8)`` of the key (the same byte
    order the scalar path uses), with no arithmetic: on little-endian
    hosts this is a zero-copy reinterpret of the key buffer, on
    big-endian a reversed view of it.  ``np.take`` accepts the strided
    uint8 columns directly, which skips the shift/mask/astype cascade
    per byte and is a large share of the bulk-path win.
    """
    xs = np.ascontiguousarray(xs, dtype=np.uint64)
    view = xs.view(np.uint8).reshape(len(xs), 8)
    return view if _LITTLE_ENDIAN else view[:, ::-1]


def pack_tabulation_fields(hashes: Sequence["TabulationHash"],
                           field_of: Callable[[np.ndarray], np.ndarray],
                           field_bits: int) -> np.ndarray:
    """Fuse several tabulation hashes into one ``(8, 256)`` ``int64`` table.

    ``field_of`` maps a hash's raw ``(8, 256)`` uint64 tables to the
    per-entry field value (``< 2**field_bits``) and must commute with
    XOR — compositions of bit masks, selects and shifts do.  Row ``r``'s
    field lands at bit offset ``r * field_bits``; XOR-gathering the
    result (:func:`gather_packed`) therefore evaluates *every* row's
    field in one pass.  Requires ``len(hashes) * field_bits <= 63``.
    """
    if len(hashes) * field_bits > 63:
        raise ValueError(
            f"cannot pack {len(hashes)} fields of {field_bits} bits "
            f"into one 64-bit word")
    packed = np.zeros((8, 256), dtype=np.int64)
    for r, h in enumerate(hashes):
        packed |= field_of(h._np_tables).astype(np.int64) << (r * field_bits)
    return packed


def gather_packed(packed: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """XOR-gather a fused table over a key array (``int64`` output).

    ``mode="clip"`` skips the bounds check: a byte always indexes one of
    the 256 entries, so clipping never changes a value.
    """
    view = byte_view(xs)
    out = np.take(packed[0], view[:, 0], mode="clip")
    scratch = np.empty(len(out), dtype=np.int64)
    for i in range(1, 8):
        np.take(packed[i], view[:, i], mode="clip", out=scratch)
        np.bitwise_xor(out, scratch, out=out)
    return out


class TabulationHash:
    """A single tabulation hash function ``h : [2**64) -> [2**64)``.

    The bulk paths read the ``(8, 256)`` ``uint64`` table; the scalar
    :meth:`__call__` reads it as Python lists, built on its first call
    (most hashes are only ever used in bulk, and the lists cost about
    90 KiB per hash).
    """

    __slots__ = ("_tables", "_np_tables")

    def __init__(self, seed: Optional[int] = None,
                 rng: Optional[random.Random] = None) -> None:
        if rng is None:
            rng = random.Random(seed)
        self._np_tables = np.fromiter(
            (rng.getrandbits(64) for _ in range(8 * 256)), dtype=np.uint64,
            count=8 * 256).reshape(8, 256)
        self._tables: Optional[list] = None

    def __call__(self, x: int) -> int:
        x &= _MASK64
        t = self._tables
        if t is None:
            # Two threads racing here build equal lists; either is kept.
            t = self._tables = self._np_tables.tolist()
        return (
            t[0][x & 0xFF]
            ^ t[1][(x >> 8) & 0xFF]
            ^ t[2][(x >> 16) & 0xFF]
            ^ t[3][(x >> 24) & 0xFF]
            ^ t[4][(x >> 32) & 0xFF]
            ^ t[5][(x >> 40) & 0xFF]
            ^ t[6][(x >> 48) & 0xFF]
            ^ t[7][(x >> 56) & 0xFF]
        )

    def hash_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised evaluation over a ``uint64`` numpy array."""
        xs = xs.astype(np.uint64, copy=False)
        out = self._np_tables[0][(xs & np.uint64(0xFF)).astype(np.intp)]
        for i in range(1, 8):
            byte = ((xs >> np.uint64(8 * i)) & np.uint64(0xFF)).astype(np.intp)
            out ^= self._np_tables[i][byte]
        return out

    def bucket(self, x: int, width: int) -> int:
        """Hash ``x`` onto ``[0, width)``."""
        return self(x) % width

    def sign(self, x: int) -> int:
        """Hash ``x`` onto ``{-1, +1}`` using the top bit."""
        return 1 if (self(x) >> 63) else -1


class TabulationFamily:
    """``count`` tabulation hashes drawn in turn from one random stream,
    with the bulk tables derived from them.

    The hashes' byte tables are stored once, stacked as ``(8, 256,
    count)``: entry ``[i, b, r]`` is ``hashes[r]``'s word for byte value
    ``b`` at byte position ``i``, and each hash's own ``(8, 256)`` table
    is a view of column ``r``.  A byte value then selects a contiguous
    run of ``count`` words, one per hash, which is what lets
    :meth:`hash_matrix` gather every row with one ``take`` per byte.

    The hashes and the stacked table never change after construction,
    and a derived table never changes once built (:meth:`derived`), so
    sketches, their copies and every equal-seed sketch share one
    instance (see :func:`tabulation_family`).
    """

    __slots__ = ("hashes", "stacked", "_derived")

    def __init__(self, count: int, rng: random.Random,
                 stacked: Optional[np.ndarray] = None) -> None:
        """Draw ``count`` hashes from ``rng`` into ``stacked``, an
        ``(8, 256, count)`` ``uint64`` array the family takes as its
        table (a slice of a :class:`TabulationStack`), or into a new
        one."""
        if stacked is None:
            stacked = np.empty((8, 256, count), dtype=np.uint64)
        hashes = []
        for r in range(count):
            h = TabulationHash(rng=rng)
            stacked[:, :, r] = h._np_tables
            h._np_tables = stacked[:, :, r]
            hashes.append(h)
        stacked.flags.writeable = False  # shared: see tabulation_family
        self.hashes = tuple(hashes)
        self.stacked = stacked
        self._derived: dict = {}

    def hash_matrix(self, xs: np.ndarray) -> np.ndarray:
        """Every hash of the family over one key array.

        Returns a ``(count, len(xs))`` ``uint64`` array whose row ``r``
        equals ``hashes[r].hash_array(xs)``.  Each of the 8 key bytes is
        one gather of ``count`` contiguous words per key from the
        stacked table, XORed into the result: 8 gathers and 7 XORs per
        call, whatever the number of rows.  The result is the transpose
        of a C-ordered ``(len(xs), count)`` array, so its rows are
        strided views.
        """
        view = byte_view(xs)
        stacked = self.stacked
        # mode="clip" skips the bounds check (a byte is always < 256).
        out = np.take(stacked[0], view[:, 0], axis=0, mode="clip")
        scratch = np.empty_like(out)
        for i in range(1, 8):
            np.take(stacked[i], view[:, i], axis=0, mode="clip", out=scratch)
            np.bitwise_xor(out, scratch, out=out)
        return out.T

    def derived(self, name: Hashable,
                build: Callable[[Sequence[TabulationHash]], np.ndarray]
                ) -> np.ndarray:
        """The table ``build(hashes)``, built on the first request for
        ``name`` and shared by every later one.

        ``name`` must identify the table completely (the fused field
        layout and the geometry it depends on), since every sketch that
        shares this family reads the same entry; the table is handed out
        read-only.  Two threads asking at once may both build it; both
        results are equal and either one is kept.
        """
        table = self._derived.get(name)
        if table is None:
            table = build(self.hashes)
            table.flags.writeable = False
            self._derived[name] = table
        return table


class TabulationStack:
    """Equal-size tabulation families held as one table.

    ``table`` is ``(8, 256 * len(families), count)`` ``uint64``: family
    ``f``'s ``stacked`` table is the view ``table[:, 256 * f:256 * (f +
    1)]``, drawn in place, so the words exist once.  A byte value ``b``
    of family ``f`` then selects ``count`` contiguous words at index
    ``256 * f + b``, which is what lets :meth:`hash_pairs` hash keys
    under any mix of the families with one ``take`` per key byte.  A
    universal sketch keeps its levels' families this way (see
    :func:`tabulation_stack`).
    """

    __slots__ = ("seeds", "table", "families")

    def __init__(self, seeds: Tuple[int, ...], count: int) -> None:
        self.seeds = seeds
        table = np.empty((8, 256 * len(seeds), count), dtype=np.uint64)
        self.families = tuple(
            TabulationFamily(count, random.Random(seed),
                             table[:, 256 * f:256 * (f + 1)])
            for f, seed in enumerate(seeds))
        table.flags.writeable = False
        self.table = table

    def hash_pairs(self, keys: np.ndarray,
                   families: np.ndarray) -> np.ndarray:
        """Every hash of family ``families[p]`` at ``keys[p]``, for each
        pair ``p``: a C-ordered ``(len(keys), count)`` ``uint64`` array
        whose row ``p`` equals column 0 of
        ``self.families[families[p]].hash_matrix(keys[p:p + 1])``.
        """
        view = byte_view(keys)
        base = np.left_shift(families, 8, dtype=np.intp)
        index = np.empty(len(keys), dtype=np.intp)
        table = self.table
        # mode="clip" skips the bounds check (every index is in range).
        np.add(base, view[:, 0], out=index)
        out = np.take(table[0], index, axis=0, mode="clip")
        scratch = np.empty_like(out)
        for i in range(1, 8):
            np.add(base, view[:, i], out=index)
            np.take(table[i], index, axis=0, mode="clip", out=scratch)
            np.bitwise_xor(out, scratch, out=out)
        return out


#: Memoized seed-derived hash families (see :func:`tabulation_family`)
#: and stacks of them (see :func:`tabulation_stack`).
#: Bounded: a pathological sweep over thousands of distinct seeds clears
#: the cache rather than growing it without limit.  Each family holds
#: its derived tables, so they are bounded and cleared with it.
_FAMILY_CACHE: dict = {}
_FAMILY_CACHE_MAX = 512

#: Memoized sub-seed draws (see :func:`derived_seeds`), under the same
#: bound as the families.
_SEEDS_CACHE: dict = {}


def derived_seeds(seed: Optional[int], count: int) -> Tuple[int, ...]:
    """The first ``count`` draws of ``randrange(1 << 62)`` from
    ``random.Random(seed)``: the sub-seeds a composite sketch hands its
    parts.

    Equal-seed sketches draw the same values, so seeded draws are
    memoised per ``(seed, count)``; ``seed=None`` means fresh randomness
    and is never cached.
    """
    if seed is None:
        master = random.Random(None)
        return tuple(master.randrange(1 << 62) for _ in range(count))
    key = (int(seed), count)
    seeds = _SEEDS_CACHE.get(key)
    if seeds is None:
        if len(_SEEDS_CACHE) >= _FAMILY_CACHE_MAX:
            _SEEDS_CACHE.clear()
        master = random.Random(seed)
        seeds = tuple(master.randrange(1 << 62) for _ in range(count))
        _SEEDS_CACHE[key] = seeds
    return seeds


def tabulation_family(seed: Optional[int], count: int) -> TabulationFamily:
    """The first ``count`` hashes of ``random.Random(seed)``'s
    deterministic tabulation stream, as one :class:`TabulationFamily`.

    Hash construction is the dominant cost of building a sketch (2048
    ``getrandbits`` calls per function), and a fleet of equal-seed
    sketches — every frame decode, every merge fold, every simulated
    switch — rebuilds the *same* functions, and from them the same
    fused and stacked tables.  Since a family does not change once built
    (sketch copies already share hash machinery on that basis),
    equal-seed families can be shared globally.  ``seed=None`` means
    "fresh randomness" and is never cached.
    """
    if seed is None:
        return TabulationFamily(count, random.Random(None))
    key = (int(seed), count)
    family = _FAMILY_CACHE.get(key)
    if family is None:
        if len(_FAMILY_CACHE) >= _FAMILY_CACHE_MAX:
            _FAMILY_CACHE.clear()
        family = TabulationFamily(count, random.Random(seed))
        _FAMILY_CACHE[key] = family
    return family


def tabulation_stack(seeds: Tuple[int, ...], count: int) -> TabulationStack:
    """The families ``tabulation_family(seed, count)`` for each of
    ``seeds``, drawn into one :class:`TabulationStack`.

    Memoised per ``(seeds, count)`` like the families, and each family
    is memoised as ``tabulation_family(seed, count)`` too, so the stack
    counts one entry per family against the cache's bound.  For fresh
    randomness build a :class:`TabulationStack` directly; it is never
    cached.
    """
    key = (seeds, count)
    stack = _FAMILY_CACHE.get(key)
    if stack is None:
        if len(_FAMILY_CACHE) + len(seeds) >= _FAMILY_CACHE_MAX:
            _FAMILY_CACHE.clear()
        stack = TabulationStack(seeds, count)
        for seed, family in zip(seeds, stack.families):
            _FAMILY_CACHE[(int(seed), count)] = family
        _FAMILY_CACHE[key] = stack
    return stack
