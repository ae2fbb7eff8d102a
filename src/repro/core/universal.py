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
"""

from __future__ import annotations

import math
import threading
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, IncompatibleSketchError
from repro.hashing.sampling import LevelSampler
from repro.hashing.tabulation import derived_seeds
from repro.obs.metrics import get_registry
from repro.core.level import SketchLevel, aggregate
from repro.sketches.base import Sketch, UpdateCost, check_batch
from repro.sketches.topk import TopK


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
                 "counter_bytes", "sampler", "levels", "packets",
                 "_version", "_snapshot", "_snapshot_lock")

    def __init__(self, levels: int = 16, rows: int = 5, width: int = 1024,
                 heap_size: int = 64, seed: Optional[int] = None,
                 counter_bytes: int = 4) -> None:
        if levels < 0:
            raise ConfigurationError(f"levels must be >= 0, got {levels}")
        self.num_levels = levels
        self.rows = rows
        self.width = width
        self.heap_size = heap_size
        self.seed = seed
        self.counter_bytes = counter_bytes
        sampler_seed, *level_seeds = derived_seeds(seed, levels + 2)
        self.sampler = LevelSampler(levels, seed=sampler_seed)
        self.levels: List[SketchLevel] = [
            SketchLevel(rows=rows, width=width, heap_size=heap_size,
                        seed=level_seed, counter_bytes=counter_bytes)
            for level_seed in level_seeds
        ]
        self.packets = 0
        self._version = 0     # bumped on every mutation
        self._snapshot = None  # cached QuerySnapshot for _version
        self._snapshot_lock = threading.Lock()  # one build per version

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
        heap_bytes = (levels + 1) * heap_size * 16
        counter_budget = total_bytes - heap_bytes
        width = counter_budget // ((levels + 1) * rows * counter_bytes)
        if width < 8:
            raise ConfigurationError(
                f"memory budget {total_bytes}B too small for {levels + 1} "
                f"levels x {rows} rows (needs >= "
                f"{heap_bytes + (levels + 1) * rows * counter_bytes * 8}B)")
        return cls(levels=levels, rows=rows, width=int(width),
                   heap_size=heap_size, seed=seed,
                   counter_bytes=counter_bytes)

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
        refresh (:meth:`SketchLevel.update_distinct`).  Counters, heaps,
        packets and weights equal a per-packet bulk update of the same
        batch; the cost follows distinct keys, not packets.

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
        packets; returns the batch's distinct-key count."""
        keys, packets, weights = aggregate(keys, weights)
        depths = self.sampler.deepest_level_array(keys)
        distinct = len(keys)
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
        self.packets += n
        self._version += 1
        return distinct

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
        """``self ± sum(others)`` on a copy of ``self``.

        Counter tables, packet counts, weights and heap churn counters
        are summed; each level's ``Q_j`` is then rebuilt once, from the
        union of every input's heap keys re-queried against the summed
        counters.  With no ``others`` the result is a plain copy.
        """
        for other in others:
            self._check_compatible(other)
        out = self.copy()
        if not others:
            return out
        fold = np.add if sign > 0 else np.subtract
        for j, lvl in enumerate(out.levels):
            parts = [other.levels[j] for other in others]
            table = lvl.sketch.table
            for part in parts:
                fold(table, part.sketch.table, out=table)
            lvl.packets += sum(part.packets for part in parts)
            lvl.weight += sign * sum(part.weight for part in parts)
            # One offer_many over the sorted key union keeps the rebuild
            # O(capacity) in Python work and deterministic; the churn
            # counters are then overwritten with the inputs' sums, so
            # they keep meaning "data-plane churn of the combined stream"
            # rather than counting this control-plane rebuild.
            heaps = [lvl.topk] + [part.topk for part in parts]
            keys = np.unique(np.concatenate([h.arrays()[0] for h in heaps]))
            heap = TopK(self.heap_size)
            if len(keys):
                heap.offer_many(keys, lvl.sketch.query_many(keys),
                                sorted_keys=True)
            heap.offers = sum(h.offers for h in heaps)
            heap.evictions = sum(h.evictions for h in heaps)
            heap.rejections = sum(h.rejections for h in heaps)
            lvl.topk = heap
        out.packets += sum(other.packets for other in others)
        return out

    def copy(self) -> "UniversalSketch":
        """An independent snapshot: counters and heaps are duplicated,
        hash machinery (immutable) is shared.  Mutating either sketch
        afterwards leaves the other untouched."""
        out = UniversalSketch.__new__(UniversalSketch)
        out.num_levels = self.num_levels
        out.rows = self.rows
        out.width = self.width
        out.heap_size = self.heap_size
        out.seed = self.seed
        out.counter_bytes = self.counter_bytes
        out.sampler = self.sampler
        out.levels = [level.copy() for level in self.levels]
        out.packets = self.packets
        out._version = 0
        out._snapshot = None
        out._snapshot_lock = threading.Lock()
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
