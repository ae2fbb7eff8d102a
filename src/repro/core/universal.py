"""The universal sketch — UnivMon's data plane (Algorithm 1 of the paper).

One :class:`UniversalSketch` maintains ``levels + 1`` Count Sketch
instances.  Level 0 sees the full stream; level ``j`` sees the substream
of keys whose first ``j`` sampling-hash bits are all 1, so each level
halves the expected number of distinct keys.  Every level also tracks the
top-k L2 heavy hitters of its substream (the ``Q_j`` sets).

From this single structure the control plane (``repro.core.gsum``)
estimates *any* Stream-PolyLog statistic: heavy hitters, distinct counts,
entropy, L1/L2 norms, heavy changes — the paper's "RISC" monitoring
primitive.

The sketch is linear: two instances built with the same ``seed`` and
geometry can be merged (multi-switch aggregation, §5 "Distributed
monitoring") or subtracted (change detection, §3.4).

Layout: every counter of every level lives in one ``int64`` tensor,
``counters``, of shape ``(levels + 1, rows, width)``, and level ``j``'s
Count Sketch table is the view ``counters[j]`` (see
:mod:`repro.core.level`).  The levels' hash functions are one
:class:`~repro.hashing.tabulation.TabulationStack`, so a ``(key,
level)`` pair hashes with one gather per key byte whatever its level.
The bulk paths work on the tensor: a batch with few distinct keys is
expanded into its ``(key, level)`` pairs and folded in with one hash
gather, one scatter-add and one post-update gather for every level at
once; ``copy`` is one tensor copy, ``merge``/``subtract`` one add or
subtract plus one fused re-query of every level's heap keys, and the
codec writes and reads the tensor.  The scalar path and every reader
of ``levels[j]`` go through the views.
"""

from __future__ import annotations

import math
import threading
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, IncompatibleSketchError
from repro.hashing.sampling import LevelSampler
from repro.hashing.tabulation import (
    TabulationStack,
    derived_seeds,
    tabulation_stack,
)
from repro.obs.metrics import get_registry
from repro.core.level import SketchLevel, aggregate
from repro.sketches.base import Sketch, UpdateCost, check_batch
from repro.sketches.countsketch import CountSketch
from repro.sketches.topk import TopK


def _medians(counters: np.ndarray, flat: np.ndarray,
             signs: np.ndarray) -> np.ndarray:
    """Each pair's point estimate: the median over rows of its signed
    counters, ``flat`` and ``signs`` as :meth:`UniversalSketch._pair_slots`
    gives them.  Computed as ``CountSketch._estimates`` computes it (sort
    the rows, read the middle one, or average the middle two in
    ``float64``), so the values are the same bit for bit."""
    vals = counters.reshape(-1).take(flat)
    vals *= signs
    vals.sort(axis=1)
    rows = vals.shape[1]
    mid = rows // 2
    if rows % 2:
        return vals[:, mid].astype(np.float64)
    return (vals[:, mid - 1].astype(np.float64) + vals[:, mid]) / 2


class UniversalSketch(Sketch):
    """UnivMon's single generic data-plane primitive.

    Parameters
    ----------
    levels:
        Number of sampled substreams below the full stream (the paper's
        ``log n``); the sketch holds ``levels + 1`` Count Sketch
        instances.  Choose ``levels >= log2(expected distinct keys / k)``
        so the deepest substream fits in its heap.
    rows, width:
        Geometry of every per-level Count Sketch.
    heap_size:
        ``k`` of each per-level top-k heavy hitter set ``Q_j``.
    seed:
        Master seed; all hash functions derive from it deterministically,
        making equal-seed sketches mergeable/subtractable.
    """

    __slots__ = ("num_levels", "rows", "width", "heap_size", "seed",
                 "counter_bytes", "sampler", "counters", "levels",
                 "packets", "_hashing", "_version", "_snapshot",
                 "_snapshot_lock")

    def __init__(self, levels: int = 16, rows: int = 5, width: int = 1024,
                 heap_size: int = 64, seed: Optional[int] = None,
                 counter_bytes: int = 4) -> None:
        if levels < 0:
            raise ConfigurationError(f"levels must be >= 0, got {levels}")
        if rows < 1:
            raise ConfigurationError(f"rows must be >= 1, got {rows}")
        if width < 1:
            raise ConfigurationError(f"width must be >= 1, got {width}")
        self._setup(np.zeros((levels + 1, rows, width), dtype=np.int64),
                    heap_size, seed, counter_bytes, None)

    @classmethod
    def around(cls, counters: np.ndarray, heap_size: int, seed: int,
               heaps: List[TopK], counter_bytes: int = 4
               ) -> "UniversalSketch":
        """The sketch whose counter tensor is ``counters`` (a
        C-contiguous ``(levels + 1, rows, width)`` ``int64`` array,
        taken as is) and whose level heaps are ``heaps``; packet counts
        and weights start at zero.  The decoder's constructor: no
        counters are allocated."""
        out = cls.__new__(cls)
        out._setup(counters, heap_size, seed, counter_bytes, heaps)
        return out

    def _setup(self, counters: np.ndarray, heap_size: int,
               seed: Optional[int], counter_bytes: int,
               heaps: Optional[List[TopK]],
               hashing: Optional[Tuple[LevelSampler, TabulationStack]] = None
               ) -> None:
        """Make ``counters`` this sketch's tensor: level ``j`` becomes a
        :class:`SketchLevel` viewing ``counters[j]``, with heap
        ``heaps[j]`` (an empty one when ``heaps`` is None) and no
        packets or weight.  ``hashing`` is the ``(sampler, stack)`` to
        share (never mutated); when None it is derived from ``seed``."""
        depth, self.rows, self.width = counters.shape
        self.num_levels = depth - 1
        self.heap_size = heap_size
        self.seed = seed
        self.counter_bytes = counter_bytes
        if hashing is None:
            seeds = derived_seeds(seed, depth + 1)
            hashing = (LevelSampler(depth - 1, seed=seeds[0]),
                       TabulationStack(seeds[1:], self.rows)
                       if seed is None
                       else tabulation_stack(seeds[1:], self.rows))
        self.sampler, self._hashing = hashing
        if heaps is None:
            heaps = [TopK(heap_size) for _ in range(depth)]
        stack = self._hashing
        self.counters = counters
        self.levels: List[SketchLevel] = [
            SketchLevel.over(CountSketch.over(table, family, level_seed,
                                              counter_bytes), heap)
            for table, family, level_seed, heap in zip(
                counters, stack.families, stack.seeds, heaps)]
        self.packets = 0
        self._version = 0     # bumped on every mutation
        self._snapshot = None  # cached QuerySnapshot for _version
        self._snapshot_lock = threading.Lock()  # one build per version

    def _like(self, counters: np.ndarray,
              heaps: List[TopK]) -> "UniversalSketch":
        """A sketch with this one's geometry, seed and hash machinery
        around ``counters`` and ``heaps``, with no packets or weight
        yet."""
        out = UniversalSketch.__new__(UniversalSketch)
        out._setup(counters, self.heap_size, self.seed, self.counter_bytes,
                   heaps, (self.sampler, self._hashing))
        return out

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def for_memory_budget(cls, total_bytes: int, levels: int = 16,
                          rows: int = 5, heap_size: int = 64,
                          seed: Optional[int] = None,
                          counter_bytes: int = 4) -> "UniversalSketch":
        """Size ``width`` so the whole sketch fits in ``total_bytes``.

        The budget covers all ``levels + 1`` Count Sketches
        (``counter_bytes`` per counter) and all heaps; this is the
        constructor the accuracy-vs-memory sweeps use.
        """
        width = cls.width_for_budget(total_bytes, levels=levels, rows=rows,
                                     heap_size=heap_size,
                                     counter_bytes=counter_bytes)
        return cls(levels=levels, rows=rows, width=width,
                   heap_size=heap_size, seed=seed,
                   counter_bytes=counter_bytes)

    @staticmethod
    def width_for_budget(total_bytes: int, levels: int = 16, rows: int = 5,
                         heap_size: int = 64, counter_bytes: int = 4) -> int:
        """The ``width`` :meth:`for_memory_budget` picks; raises
        :class:`~repro.errors.ConfigurationError` when the budget cannot
        hold 8 counters per row."""
        heap_bytes = (levels + 1) * heap_size * 16
        counter_budget = total_bytes - heap_bytes
        width = counter_budget // ((levels + 1) * rows * counter_bytes)
        if width < 8:
            raise ConfigurationError(
                f"memory budget {total_bytes}B too small for {levels + 1} "
                f"levels x {rows} rows (needs >= "
                f"{heap_bytes + (levels + 1) * rows * counter_bytes * 8}B)")
        return int(width)

    @staticmethod
    def levels_for(expected_distinct: int, heap_size: int = 64) -> int:
        """The ``log n`` rule: enough levels that the deepest substream's
        expected distinct count falls below the heap size.

        When every distinct key already fits in one heap, no sampled
        substream is needed at all: a single full-stream level (0 sampled
        levels) suffices."""
        if expected_distinct <= heap_size:
            return 0
        return max(1, math.ceil(math.log2(expected_distinct / heap_size)) + 1)

    # ------------------------------------------------------------------ #
    # data plane
    # ------------------------------------------------------------------ #

    def update(self, key: int, weight: int = 1) -> None:
        """Algorithm 1: add ``key`` to every substream it belongs to."""
        depth = self.sampler.deepest_level(key)
        levels = self.levels
        for j in range(depth + 1):
            levels[j].update(key, weight)
        self.packets += 1
        self._version += 1

    def update_array(self, keys: np.ndarray,
                     weights: Optional[np.ndarray] = None) -> None:
        """Vectorised bulk update over a ``uint64`` key array.

        The batch is folded once to its distinct keys, with each key's
        packet count and weight sum (:func:`~repro.core.level.aggregate`),
        and sampling depth is computed for the distinct keys only.
        Level ``j`` then folds in the distinct keys of depth ``>= j``,
        hashing each once for both its counter update and its heap
        refresh: all levels at once when the batch has few distinct
        keys, level by level otherwise (see :meth:`_update_array`).
        Counters, heaps, packets and weights equal a per-packet bulk
        update of the same batch; the cost follows distinct keys, not
        packets.

        Raises :class:`~repro.errors.ConfigurationError` for a malformed
        batch (see :func:`~repro.sketches.base.check_batch`).
        """
        keys = check_batch(keys, weights)
        n = len(keys)
        if n == 0:
            return
        # Chunk-granularity instrumentation: with the default no-op
        # registry these are a handful of no-op calls per *batch*, so
        # the hot path stays within noise of uninstrumented code (the
        # per-packet scalar path is deliberately left untouched).
        reg = get_registry()
        with reg.span("univmon_sketch_update_seconds",
                      help="bulk update latency per batch"):
            distinct = self._update_array(keys, weights, n)
        reg.counter("univmon_sketch_update_packets_total",
                    help="packets folded in through the bulk path").inc(n)
        reg.counter("univmon_sketch_update_distinct_total",
                    help="distinct keys per bulk batch, summed over "
                         "batches").inc(distinct)

    def _update_array(self, keys: np.ndarray,
                      weights: Optional[np.ndarray], n: int) -> int:
        """The body of :meth:`update_array` on a checked batch of ``n``
        packets; returns the batch's distinct-key count.

        A key of depth ``d`` is in levels ``0..d``, so the batch makes
        ``distinct + sum(depths)`` ``(key, level)`` pairs.  While their
        ``(pairs, rows)`` temporaries are no larger than the tensor the
        fused kernel (:meth:`_update_pairs`) folds them in; a batch with
        more distinct keys than that takes one
        :meth:`SketchLevel.update_distinct` per level, whose per-row
        ``bincount`` beats a scatter-add of that many entries.
        """
        keys, packets, weights = aggregate(keys, weights)
        depths = self.sampler.deepest_level_array(keys)
        pairs = len(keys) + int(depths.sum())
        if pairs * self.rows <= self.counters.size:
            self._update_pairs(keys, packets, weights, depths)
        else:
            self._update_levels(keys, packets, weights, depths)
        self.packets += n
        self._version += 1
        return len(keys)

    def _update_pairs(self, keys: np.ndarray, packets: np.ndarray,
                      weights: np.ndarray, depths: np.ndarray) -> None:
        """Fold an aggregated batch into every level at once: one hash
        gather, one scatter-add and one post-update gather over all its
        ``(key, level)`` pairs, then one heap offer per level.  Same
        counters, heaps, packets and weights as
        :meth:`_update_levels`."""
        deepest = int(depths.max())
        # Level-major pairs: level j holds the keys of depth >= j, still
        # ascending, so each level's slice is what _update_levels hands
        # that level.
        level, index = np.nonzero(depths >= np.arange(deepest + 1)[:, None])
        bounds = np.searchsorted(level, np.arange(deepest + 2))
        pair_keys = keys[index]
        pair_weights = weights[index]
        flat, signs = self._pair_slots(pair_keys, level)
        counters = self.counters
        np.add.at(counters.reshape(-1), flat, signs * pair_weights[:, None])
        estimates = _medians(counters, flat, signs)
        starts = bounds[:-1]
        level_packets = np.add.reduceat(packets[index], starts).tolist()
        level_weights = np.add.reduceat(pair_weights, starts).tolist()
        bounds = bounds.tolist()
        for j in range(deepest + 1):
            lvl = self.levels[j]
            lvl.packets += level_packets[j]
            lvl.weight += level_weights[j]
            lo, hi = bounds[j], bounds[j + 1]
            lvl.topk.offer_many(pair_keys[lo:hi], estimates[lo:hi],
                                sorted_keys=True)

    def _update_levels(self, keys: np.ndarray, packets: np.ndarray,
                       weights: np.ndarray, depths: np.ndarray) -> None:
        """Fold an aggregated batch in level by level, each level's
        distinct keys with one :meth:`SketchLevel.update_distinct`."""
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

    def _pair_slots(self, keys: np.ndarray, level: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Where each ``(keys[p], level[p])`` pair lands in every row:
        its counters' indices into the flattened tensor and their signs
        (``+1``/``-1``), as two ``(pairs, rows)`` ``int64`` arrays.
        Bucket and sign derive from each row's hash as the scalar path
        derives them (hash modulo ``width``, top bit)."""
        rows, width = self.rows, self.width
        hashes = self._hashing.hash_pairs(keys, level)
        flat = (hashes % np.uint64(width)).view(np.int64)
        flat += (level * (rows * width))[:, None]
        flat += np.arange(0, rows * width, width)
        signs = (hashes >> np.uint64(63)).view(np.int64)
        signs *= 2
        signs -= 1
        return flat, signs

    @property
    def total_weight(self) -> int:
        """Total stream weight ``m`` (level 0 sees everything)."""
        return self.levels[0].weight

    # ------------------------------------------------------------------ #
    # query snapshot cache
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """Mutation counter: bumps on every update/bulk update, so query
        state caches can tell whether the sketch moved underneath them."""
        return self._version

    def invalidate_snapshot(self) -> None:
        """Drop the cached query snapshot (and bump the version).

        Mutations through the sketch API invalidate automatically; call
        this after mutating level internals directly (heap surgery,
        counter edits) so the next query rebuilds.
        """
        with self._snapshot_lock:
            self._version += 1
            self._snapshot = None

    def query_snapshot(self):
        """This sketch state's :class:`~repro.core.query.QuerySnapshot`.

        Built at most once per mutation version: all control-plane
        estimates between two mutations — no matter how many apps ask —
        share one materialisation of the heaps and sampling bits.
        Thread-safe: concurrent readers of a sealed sketch (the
        monitoring service's request handlers, metric scrapers) race to
        this cache, so check-and-build runs under a per-sketch lock —
        N concurrent first queries still cost exactly one build.
        Instrumented via ``univmon_query_snapshot_*`` (builds, cache
        hits, invalidations, build latency).
        """
        from repro.core.query import QuerySnapshot
        reg = get_registry()
        snapshot = self._snapshot
        if snapshot is not None and snapshot.version == self._version:
            # Lock-free hit: the cached reference is immutable and the
            # version check makes a stale read harmless (worst case we
            # fall through and revalidate under the lock).
            reg.counter("univmon_query_snapshot_cache_hits_total",
                        help="queries served from a cached snapshot").inc()
            return snapshot
        with self._snapshot_lock:
            snapshot = self._snapshot
            if snapshot is not None:
                if snapshot.version == self._version:
                    reg.counter("univmon_query_snapshot_cache_hits_total",
                                help="queries served from a cached "
                                     "snapshot").inc()
                    return snapshot
                reg.counter("univmon_query_snapshot_invalidations_total",
                            help="cached snapshots discarded because the "
                                 "sketch mutated").inc()
            with reg.span("univmon_query_snapshot_build_seconds",
                          help="snapshot materialisation latency"):
                snapshot = QuerySnapshot.build(self, version=self._version)
            self._snapshot = snapshot
            reg.counter("univmon_query_snapshot_builds_total",
                        help="query snapshots materialised").inc()
            return snapshot

    # ------------------------------------------------------------------ #
    # control-plane entry points (thin wrappers over repro.core.gsum)
    # ------------------------------------------------------------------ #

    # Query-latency spans (univmon_sketch_query_seconds{op=}) are
    # recorded inside repro.core.gsum's public estimators, so the apps
    # (which call those functions directly) and these wrappers land in
    # the same series exactly once.  estimate_gsum itself records
    # op="gsum" when it is the outermost estimate (nested calls from the
    # named wrappers are span-guarded).

    def heavy_hitters(self, fraction: float) -> List[Tuple[int, float]]:
        """G-core for g(x)=x: keys estimated above ``fraction`` of total."""
        from repro.core.gsum import g_core
        return g_core(self, fraction)

    def g_sum(self, g) -> float:
        """Estimate ``G-sum`` for any Stream-PolyLog g (Algorithm 2)."""
        from repro.core.gsum import estimate_gsum
        return estimate_gsum(self, g)

    def cardinality(self) -> float:
        from repro.core.gsum import estimate_cardinality
        return estimate_cardinality(self)

    def entropy(self, base: float = 2.0) -> float:
        from repro.core.gsum import estimate_entropy
        return estimate_entropy(self, base=base)

    # ------------------------------------------------------------------ #
    # linearity
    # ------------------------------------------------------------------ #

    def _check_compatible(self, other: "UniversalSketch") -> None:
        if not isinstance(other, UniversalSketch):
            raise IncompatibleSketchError(
                f"cannot combine UniversalSketch with {type(other).__name__}")
        same = (self.num_levels, self.rows, self.width, self.heap_size,
                self.seed) == (other.num_levels, other.rows, other.width,
                               other.heap_size, other.seed)
        if not same or self.seed is None:
            raise IncompatibleSketchError(
                "universal sketches must share geometry and an explicit "
                "seed to be combined")

    def _combine(self, others: Tuple["UniversalSketch", ...],
                 sign: int) -> "UniversalSketch":
        """``self ± sum(others)`` as a new sketch.

        The counter tensors are folded into one new tensor; packet
        counts, weights and heap churn counters are summed.  Each
        level's ``Q_j`` is then rebuilt once, from the union of every
        input's heap keys at that level, re-queried against the summed
        counters with one fused gather over all levels.  With no
        ``others`` the result is a plain copy.
        """
        for other in others:
            self._check_compatible(other)
        if not others:
            return self.copy()
        fold = np.add if sign > 0 else np.subtract
        counters = fold(self.counters, others[0].counters)
        for other in others[1:]:
            fold(counters, other.counters, out=counters)
        parts = [[level] + [other.levels[j] for other in others]
                 for j, level in enumerate(self.levels)]
        unions = [np.unique(np.concatenate(
            [part.topk.arrays()[0] for part in level_parts]))
            for level_parts in parts]
        sizes = [len(keys) for keys in unions]
        keys = np.concatenate(unions)
        level = np.repeat(np.arange(self.num_levels + 1), sizes)
        estimates = _medians(counters, *self._pair_slots(keys, level))
        heaps = []
        start = 0
        for level_parts, size in zip(parts, sizes):
            # One offer_many over the sorted key union keeps the rebuild
            # O(capacity) in Python work and deterministic; the churn
            # counters are then overwritten with the inputs' sums, so
            # they keep meaning "data-plane churn of the combined stream"
            # rather than counting this control-plane rebuild.
            heap = TopK(self.heap_size)
            heap.offer_many(keys[start:start + size],
                            estimates[start:start + size], sorted_keys=True)
            start += size
            inputs = [part.topk for part in level_parts]
            heap.offers = sum(h.offers for h in inputs)
            heap.evictions = sum(h.evictions for h in inputs)
            heap.rejections = sum(h.rejections for h in inputs)
            heaps.append(heap)
        out = self._like(counters, heaps)
        for lvl, (mine, *theirs) in zip(out.levels, parts):
            lvl.packets = mine.packets + sum(part.packets for part in theirs)
            lvl.weight = mine.weight + sign * sum(part.weight
                                                  for part in theirs)
        out.packets = self.packets + sum(other.packets for other in others)
        return out

    def copy(self) -> "UniversalSketch":
        """An independent snapshot: one copy of the counter tensor, fresh
        level views of it and copies of the heaps; the hash machinery
        (immutable) is shared.  Mutating either sketch afterwards leaves
        the other untouched."""
        out = self._like(self.counters.copy(),
                         [level.topk.copy() for level in self.levels])
        for mine, theirs in zip(out.levels, self.levels):
            mine.packets = theirs.packets
            mine.weight = theirs.weight
        out.packets = self.packets
        return out

    def merge(self, *others: "UniversalSketch") -> "UniversalSketch":
        """Sketch of the concatenated streams (distributed aggregation).

        N-ary: ``a.merge(b, c, ...)`` sums every input in one pass and
        rebuilds each ``Q_j`` once, ranking the union of all inputs'
        heap keys against the final counters (so a key a pairwise fold
        would have evicted part-way can survive).  ``a.merge()`` is an
        independent copy of ``a``.  Raises
        :class:`~repro.errors.IncompatibleSketchError` if any input
        differs from ``self`` in geometry or seed.
        """
        return self._combine(others, +1)

    def subtract(self, other: "UniversalSketch") -> "UniversalSketch":
        """Sketch of the difference stream — the change-detection primitive.

        Point queries on the result estimate per-key deltas, its G-core
        yields heavy-change keys, and ``g_sum(ABS)`` the total change D.
        """
        return self._combine((other,), -1)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def memory_bytes(self) -> int:
        return sum(level.memory_bytes() for level in self.levels)

    def update_cost(self) -> UpdateCost:
        """Expected per-packet cost.

        Every packet pays all ``levels`` sampling bits (computed in one
        pass) and updates level ``j`` with probability ``2**-j``, so the
        expected number of Count Sketch updates is < 2 regardless of depth.
        This models the paper's per-packet switch pipeline, not the
        software bulk path, which hashes each distinct key of a batch
        once per level (:meth:`update_array`).
        """
        per_level = self.levels[0].update_cost()
        expected_levels = sum(2.0 ** -j for j in range(self.num_levels + 1))
        return UpdateCost(
            hashes=int(round(self.num_levels
                             + per_level.hashes * expected_levels)),
            counter_updates=int(round(
                per_level.counter_updates * expected_levels)),
            memory_words=int(round(
                per_level.memory_words * expected_levels)),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"UniversalSketch(levels={self.num_levels}, rows={self.rows}, "
                f"width={self.width}, heap_size={self.heap_size}, "
                f"seed={self.seed})")
