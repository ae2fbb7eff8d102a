"""The vectorised control-plane query engine.

PRs 1 and 4 made the data-plane ingest vectorised and multi-core, but
every control-plane estimate still ran Algorithm 2 as a scalar Python
loop: one ``g(w)`` call and one ``sampler.bit`` hash per heavy hitter per
level, repeated from scratch by every app, every epoch.  The whole point
of the universal-streaming architecture is that *one* generic data
structure is amortised over many measurement tasks — the query side
should exploit that sharing too.

This module does, in three pieces:

- :class:`QuerySnapshot` — the per-level heap state materialised once
  per sketch state as NumPy arrays: heavy-hitter keys, signed weights,
  magnitudes, and the *pre-computed* sampling-bit correction factors
  ``1 - 2*h_{j+1}(i)`` (one packed-tabulation gather per level, see
  :meth:`~repro.hashing.sampling.LevelSampler.bit_array`).  Recursive
  Sum then runs as ``levels`` array reductions instead of thousands of
  Python-level hash and g calls.
- :class:`Statistic` — a small declarative spec ("entropy in bits",
  "heavy hitters above 0.5%", "F_1.5") naming one estimate.
- :class:`QueryEngine` — batch evaluation: an arbitrary set of
  statistics computed from *one* snapshot in a single pass
  (:meth:`QueryEngine.evaluate_many`), which is what the controller,
  the remote coordinator, and ``univmon query`` use per epoch.

:class:`~repro.core.universal.UniversalSketch` caches the snapshot
behind a mutation version counter (``sketch.query_snapshot()``), so the
scalar convenience estimators in :mod:`repro.core.gsum` — which route
through snapshots too — share one build per sketch state with any batch
evaluation, no matter how many apps ask.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import get_registry
from repro.core.gfunctions import ABS, CARDINALITY, GFunction, make_moment

#: Batch-size histogram bounds: statistics per evaluate_many call.
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)


def _level_arrays(level) -> Tuple[np.ndarray, np.ndarray]:
    """One level's heap as (keys, signed weights), largest |w| first.

    The order is ``TopK.items()``'s (:meth:`~repro.sketches.topk.TopK.ranked`),
    so G-core output from a snapshot is byte-identical to the scalar
    heap walk.
    """
    topk = getattr(level, "topk", None)
    if topk is not None:
        return topk.ranked()
    # duck-typed levels in tests: fall back to the public walk
    items = level.heavy_hitters()
    keys = np.array([k for k, _ in items], dtype=np.uint64)
    weights = np.array([w for _, w in items], dtype=np.float64)
    return keys, weights


class QuerySnapshot:
    """Frozen, array-shaped view of one sketch state's query inputs.

    Attributes
    ----------
    keys, weights, mags:
        Per-level arrays: heavy-hitter keys (``uint64``), their signed
        Count Sketch estimates (``float64``), and the magnitudes
        ``|w|``.  Ordered largest magnitude first (heap order).
    factors:
        Per-level ``1 - 2 * h_{j+1}(key)`` correction factors
        (``float64``), for levels ``0 .. deepest-1``; the deepest level
        needs none (Recursive Sum starts there).
    total_weight:
        The stream weight ``m`` the sketch observed.
    version:
        The sketch mutation version this snapshot was built at (``None``
        for uncached duck-typed builds).
    """

    __slots__ = ("keys", "weights", "mags", "factors", "total_weight",
                 "deepest", "version", "_flat_mags", "_level_offsets",
                 "_gsum_coeffs")

    def __init__(self, keys: List[np.ndarray], weights: List[np.ndarray],
                 factors: List[np.ndarray], total_weight: float,
                 version: Optional[int] = None) -> None:
        self.keys = keys
        self.weights = weights
        self.mags = [np.abs(w) for w in weights]
        self.factors = factors
        self.total_weight = total_weight
        self.deepest = len(keys) - 1
        self.version = version
        self._flat_mags: Optional[np.ndarray] = None
        self._level_offsets: Optional[np.ndarray] = None
        self._gsum_coeffs: Optional[np.ndarray] = None

    @classmethod
    def build(cls, sketch, version: Optional[int] = None) -> "QuerySnapshot":
        """Materialise the snapshot from any sketch with ``.levels`` and
        ``.sampler`` (heap walk + one bulk bit gather per level)."""
        levels = sketch.levels
        sampler = sketch.sampler
        deepest = len(levels) - 1
        keys: List[np.ndarray] = []
        weights: List[np.ndarray] = []
        factors: List[np.ndarray] = []
        for level in levels:
            k, w = _level_arrays(level)
            keys.append(k)
            weights.append(w)
        upper = keys[:deepest]  # levels needing h_{j+1} correction bits
        words = None
        bulk_words = getattr(sampler, "parity_words", None)
        if bulk_words is not None and upper:
            # One fused gather for the whole cascade: bit j of the word
            # for a level-j key is its h_{j+1} sampling bit.
            words = bulk_words(np.concatenate(upper))
        if words is not None:
            offset = 0
            for j, k in enumerate(upper):
                w = words[offset:offset + len(k)]
                offset += len(k)
                bits = (w >> np.int64(j)) & np.int64(1)
                factors.append(1.0 - 2.0 * bits.astype(np.float64))
        else:  # per-level fallback (levels > 63, or duck-typed samplers)
            bulk_bits = getattr(sampler, "bit_array", None)
            for j, k in enumerate(upper):
                if len(k) == 0:
                    factors.append(np.zeros(0, dtype=np.float64))
                elif bulk_bits is not None:
                    bits = bulk_bits(j + 1, k)
                    factors.append(1.0 - 2.0 * bits.astype(np.float64))
                else:  # scalar sampler (duck-typed tests)
                    factors.append(np.array(
                        [1.0 - 2.0 * sampler.bit(j + 1, int(key))
                         for key in k], dtype=np.float64))
        total = getattr(sketch, "total_weight", None)
        if total is None:
            total = float(np.sum(weights[0])) if len(weights[0]) else 0.0
        return cls(keys, weights, factors, float(total), version=version)

    # ------------------------------------------------------------------ #
    # Algorithm 2 as array reductions
    # ------------------------------------------------------------------ #

    def _flat(self) -> Tuple[np.ndarray, np.ndarray]:
        """All levels' magnitudes as one array, plus level offsets.

        Built lazily and cached: the snapshot is immutable, and a
        multi-statistic batch applies several g functions to the same
        magnitudes — one fused ``apply_array`` per statistic beats one
        per (statistic, level)."""
        if self._flat_mags is None:
            sizes = [len(m) for m in self.mags]
            offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            self._flat_mags = (np.concatenate(self.mags) if sizes
                               else np.zeros(0, dtype=np.float64))
            self._level_offsets = offsets
        return self._flat_mags, self._level_offsets

    def _coeffs(self) -> np.ndarray:
        """Recursive-Sum coefficients aligned with the flat magnitudes.

        Unrolling the Horner recursion, level ``j < deepest``
        contributes ``2**j * (1 - 2*h_{j+1}(i))`` per key and the
        deepest level contributes ``2**deepest`` — all exact powers of
        two times ±1, so folding them into one vector changes nothing
        but the summation order.  Cached: they depend only on the
        snapshot's structure, not on ``g``."""
        if self._gsum_coeffs is None:
            flat, offsets = self._flat()
            coeffs = np.empty_like(flat)
            for j in range(self.deepest):
                coeffs[offsets[j]:offsets[j + 1]] = \
                    np.ldexp(self.factors[j], j)
            coeffs[offsets[self.deepest]:offsets[self.deepest + 1]] = \
                float(1 << self.deepest)
            self._gsum_coeffs = coeffs
        return self._gsum_coeffs

    def gsum(self, g: GFunction, min_weight: float = 0.5) -> float:
        """Recursive Sum over the snapshot — the vectorised Algorithm 2.

        Numerically equivalent to the scalar reference
        (:func:`repro.core.gsum.estimate_gsum_scalar`): the same terms
        enter the same recursion, here fused into a single dot product
        against the cached level coefficients; only the summation order
        differs (one BLAS reduction vs the per-level left-to-right
        walk).
        """
        flat, offsets = self._flat()
        vals = g.apply_array(flat)
        if min_weight > 0.0:
            vals = np.where(flat >= min_weight, vals, 0.0)
        return float(np.dot(self._coeffs(), vals))

    def gcore(self, fraction: float,
              total: Optional[float] = None) -> List[Tuple[int, float]]:
        """Level-0 keys whose |estimate| clears ``fraction * total``."""
        if total is None:
            total = self.total_weight
        threshold = fraction * float(total)
        keys, weights, mags = self.keys[0], self.weights[0], self.mags[0]
        mask = mags >= threshold
        return [(int(k), float(w)) for k, w in zip(keys[mask],
                                                   weights[mask])]

    def heap_entries(self) -> int:
        """Total heavy-hitter entries across all levels (sizing info)."""
        return int(sum(len(k) for k in self.keys))


@dataclass(frozen=True)
class Statistic:
    """One named estimate for :meth:`QueryEngine.evaluate_many`.

    Build through the factory classmethods (``Statistic.entropy()``,
    ``Statistic.heavy_hitters(0.01)``, …) or :meth:`parse` for CLI-style
    specs (``"hh:0.01"``, ``"moment:1.5"``, ``"cardinality"``).
    """

    name: str
    kind: str                      # gsum | gcore | entropy | l2 | f2
    g: Optional[GFunction] = None
    fraction: float = 0.005
    base: float = 2.0
    min_weight: float = 0.5
    clamp: bool = True             # G-sums of non-negative g's are >= 0

    # ----------------------------- factories -------------------------- #

    @classmethod
    def gsum(cls, g: GFunction, name: Optional[str] = None,
             clamp: bool = False) -> "Statistic":
        """An arbitrary Stream-PolyLog G-sum."""
        return cls(name=name or f"gsum_{g.name}", kind="gsum", g=g,
                   clamp=clamp)

    @classmethod
    def heavy_hitters(cls, fraction: float = 0.005) -> "Statistic":
        return cls(name="heavy_hitters", kind="gcore", fraction=fraction)

    @classmethod
    def cardinality(cls) -> "Statistic":
        return cls(name="cardinality", kind="gsum", g=CARDINALITY)

    @classmethod
    def l1(cls) -> "Statistic":
        return cls(name="l1", kind="gsum", g=ABS)

    @classmethod
    def l2(cls) -> "Statistic":
        return cls(name="l2", kind="l2")

    @classmethod
    def f2(cls) -> "Statistic":
        return cls(name="f2", kind="f2")

    @classmethod
    def entropy(cls, base: float = 2.0) -> "Statistic":
        return cls(name="entropy", kind="entropy", base=base)

    @classmethod
    def moment(cls, p: float) -> "Statistic":
        return cls(name=f"moment_{p:g}", kind="gsum", g=make_moment(p))

    _ALIASES = {
        "hh": "heavy_hitters", "heavy_hitters": "heavy_hitters",
        "cardinality": "cardinality", "f0": "cardinality",
        "ddos": "cardinality",
        "l1": "l1", "l2": "l2", "f2": "f2",
        "entropy": "entropy", "moment": "moment",
    }

    @classmethod
    def parse(cls, spec: str) -> "Statistic":
        """``"name[:param]"`` → Statistic (the ``univmon query`` syntax).

        ``hh[:fraction]``, ``cardinality``/``f0``, ``l1``, ``l2``,
        ``f2``, ``entropy[:base]``, ``moment:p``.  Specs arrive from
        outside (``POST /query``, ``univmon query --stats``), so a
        parameter that is not a finite number in range raises
        :class:`ConfigurationError` naming the spec: the fraction must
        be in (0, 1], the base > 0 and not 1 (or ``e``/``nats``), and
        the order in [0, 2], the Stream-PolyLog range of
        :func:`~repro.core.gfunctions.make_moment`.
        """
        name, _, param = spec.strip().partition(":")
        kind = cls._ALIASES.get(name.lower())
        if kind is None:
            raise ConfigurationError(
                f"unknown statistic {spec!r} (know: "
                f"{', '.join(sorted(set(cls._ALIASES)))})")
        if kind == "heavy_hitters":
            fraction = _spec_number(spec, param) if param else 0.005
            if not 0.0 < fraction <= 1.0:
                raise ConfigurationError(
                    f"bad statistic {spec!r}: the fraction must be in "
                    f"(0, 1]")
            return cls.heavy_hitters(fraction)
        if kind == "entropy":
            if param in ("e", "nats"):
                return cls.entropy(math.e)
            base = _spec_number(spec, param) if param else 2.0
            if base <= 0.0 or base == 1.0:
                raise ConfigurationError(
                    f"bad statistic {spec!r}: the base must be > 0 and "
                    f"not 1")
            return cls.entropy(base)
        if kind == "moment":
            if not param:
                raise ConfigurationError(
                    "moment needs an order, e.g. 'moment:1.5'")
            p = _spec_number(spec, param)
            if not 0.0 <= p <= 2.0:
                raise ConfigurationError(
                    f"bad statistic {spec!r}: the order must be in [0, 2]")
            return cls.moment(p)
        if param:
            raise ConfigurationError(
                f"statistic {name!r} takes no parameter (got {spec!r})")
        return getattr(cls, kind)()


def _spec_number(spec: str, param: str) -> float:
    """A statistic spec's parameter as a finite float, or
    :class:`ConfigurationError` naming the spec."""
    try:
        value = float(param)
    except ValueError:
        raise ConfigurationError(
            f"bad statistic {spec!r}: {param!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigurationError(
            f"bad statistic {spec!r}: {param!r} is not finite")
    return value


#: The paper's §3.4 task set plus F2 — the default batch.
DEFAULT_STATISTICS: Tuple[Statistic, ...] = (
    Statistic.heavy_hitters(),
    Statistic.cardinality(),
    Statistic.l1(),
    Statistic.entropy(),
    Statistic.f2(),
)


class QueryMemo:
    """Bounded LRU of :meth:`QueryEngine.evaluate_many` results.

    Keyed on *(snapshot identity, statistic tuple)*: two batches over
    the same immutable snapshot asking for the same parsed statistics
    collapse to one evaluation — the memoisation the monitoring service
    relies on when hundreds of clients issue identical queries against
    one published epoch, and equally usable by any batch caller.

    Each entry pins its snapshot (a strong reference rides in the
    value), so ``id(snapshot)`` cannot be recycled while its key is
    live; eviction drops key and pin together.  Thread-safe: the
    service evaluates on the asyncio loop but scrapers and benchmarks
    may share a memo across threads.  Hit/miss/eviction counts are
    mirrored into ``univmon_query_memo_*``.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ConfigurationError(
                f"memo maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Tuple[int, Tuple[Statistic, ...]], " \
            "Tuple[Any, Dict[str, Any]]]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, snapshot, stats: Tuple["Statistic", ...]) \
            -> Optional[Dict[str, Any]]:
        """The memoised results for this (snapshot, batch), or None."""
        key = (id(snapshot), stats)
        reg = get_registry()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            reg.counter("univmon_query_memo_misses_total",
                        help="memoised query lookups that missed").inc()
            return None
        reg.counter("univmon_query_memo_hits_total",
                    help="query batches served from the result memo").inc()
        return dict(entry[1])

    def put(self, snapshot, stats: Tuple["Statistic", ...],
            results: Dict[str, Any]) -> None:
        key = (id(snapshot), stats)
        evicted = 0
        with self._lock:
            self._entries[key] = (snapshot, dict(results))
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            get_registry().counter(
                "univmon_query_memo_evictions_total",
                help="memo entries evicted by the LRU bound").inc(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class QueryEngine:
    """Batched, snapshot-sharing evaluation over one sketch.

    All statistics handed to :meth:`evaluate_many` are computed from a
    single :class:`QuerySnapshot`; when the sketch is a
    :class:`~repro.core.universal.UniversalSketch` the snapshot comes
    from its version-guarded cache, so interleaved scalar estimators
    (``estimate_entropy(sketch)`` from an app, say) reuse the same build.

    Pass a :class:`QueryMemo` to additionally collapse *repeated
    identical batches* over one snapshot into a single evaluation
    (results are cached per (snapshot, statistic tuple)); the memo can
    be shared across engines — the service shares one across all epochs
    in its ring.
    """

    def __init__(self, sketch, memo: Optional[QueryMemo] = None) -> None:
        self.sketch = sketch
        self.memo = memo

    def snapshot(self) -> QuerySnapshot:
        """This sketch state's snapshot (cached when the sketch caches)."""
        cached = getattr(self.sketch, "query_snapshot", None)
        if cached is not None:
            return cached()
        return QuerySnapshot.build(self.sketch)

    def warm(self) -> QuerySnapshot:
        """Build (or revalidate) the snapshot ahead of the first query."""
        return self.snapshot()

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, statistic: Statistic) -> Any:
        """One statistic through the snapshot path."""
        return self._evaluate(self.snapshot(), statistic)

    def evaluate_many(self, statistics: Iterable[Statistic] = None) \
            -> Dict[str, Any]:
        """Evaluate a batch of statistics from one snapshot, one pass.

        Returns ``{statistic.name: value}``; values are floats except
        G-core statistics, which yield ``[(key, weight), ...]`` lists.
        """
        stats: Sequence[Statistic] = tuple(
            DEFAULT_STATISTICS if statistics is None else statistics)
        reg = get_registry()
        reg.histogram("univmon_query_batch_size",
                      help="statistics per batched evaluation",
                      buckets=BATCH_SIZE_BUCKETS).observe(len(stats))
        reg.counter("univmon_query_statistics_total",
                    help="statistics evaluated through the batch "
                         "engine").inc(len(stats))
        with reg.span("univmon_query_batch_seconds",
                      help="snapshot build + batched evaluation latency"):
            snapshot = self.snapshot()
            if self.memo is not None:
                hit = self.memo.get(snapshot, stats)
                if hit is not None:
                    return hit
            results = {stat.name: self._evaluate(snapshot, stat)
                       for stat in stats}
            if self.memo is not None:
                self.memo.put(snapshot, stats, results)
            return results

    def _evaluate(self, snapshot: QuerySnapshot, stat: Statistic) -> Any:
        from repro.core import gsum as _gsum  # circular at import time
        if stat.kind == "gsum":
            _gsum._check(stat.g)
            value = snapshot.gsum(stat.g, min_weight=stat.min_weight)
            return max(0.0, value) if stat.clamp else value
        if stat.kind == "gcore":
            return snapshot.gcore(stat.fraction)
        if stat.kind == "entropy":
            return _gsum.entropy_from_snapshot(snapshot, base=stat.base)
        if stat.kind == "l2":
            return self.sketch.levels[0].sketch.l2_estimate()
        if stat.kind == "f2":
            return self.sketch.levels[0].sketch.f2_estimate()
        raise ConfigurationError(f"unknown statistic kind {stat.kind!r}")


__all__ = [
    "QuerySnapshot",
    "QueryEngine",
    "QueryMemo",
    "Statistic",
    "DEFAULT_STATISTICS",
    "BATCH_SIZE_BUCKETS",
]
