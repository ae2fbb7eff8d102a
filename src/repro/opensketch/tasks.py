"""The OpenSketch task library: one custom sketch composition per task.

These are the specialised baselines Figures 4-6 compare UnivMon against.
Each task implements the :class:`~repro.sketches.base.Sketch` interface so
it can be attached to a :class:`~repro.dataplane.switch.MonitoredSwitch`
exactly like a universal sketch, plus its task-specific query method.

- :class:`HeavyHitterTask` — count-min (conservative update) + top-k heap
  (the idealised variant with a software candidate heap).
- :class:`HierarchicalHeavyHitterTask` — OpenSketch's deployable variant:
  one count-min per prefix granularity, heavy keys *enumerated* by
  descending the prefix tree (count-min alone cannot list keys, so the
  hardware library pays for a hierarchy — this is what makes the custom
  suite's total op cost exceed UnivMon's in the overhead comparison).
- :class:`ChangeDetectionTask` — a k-ary sketch per epoch; heavy changes
  from the counter-wise difference (Krishnamurthy et al.).
- :class:`DDoSDetectionTask` — distinct-source counting via bitmap
  (linear counting), HyperLogLog, or bloom-filter + counter.

Entropy has *no* OpenSketch task — the paper notes "OpenSketch does not
yet support Entropy"; the streaming baseline used in the Figure 7 bench is
:class:`~repro.sketches.entropy_sampling.SampledEntropyEstimator`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.sketches.base import Sketch, UpdateCost
from repro.sketches.bitmap import LinearCounter
from repro.sketches.bloom import BloomFilter
from repro.sketches.countmin import CountMinSketch
from repro.sketches.hyperloglog import HyperLogLog
from repro.sketches.kary import KArySketch, total_change
from repro.sketches.topk import TopK


class HeavyHitterTask(Sketch):
    """OpenSketch heavy hitters: count-min + heap.

    Parameters
    ----------
    rows, width:
        Count-min geometry.
    heap_size:
        Candidate heavy hitters tracked.
    conservative:
        Use conservative update (OpenSketch's refinement); reduces
        overestimation at one extra read per counter.
    """

    def __init__(self, rows: int = 3, width: int = 2048,
                 heap_size: int = 128, seed: Optional[int] = None,
                 conservative: bool = True) -> None:
        self.cm = CountMinSketch(rows=rows, width=width, seed=seed,
                                 conservative=conservative)
        self.heap = TopK(heap_size)
        self.total = 0

    def update(self, key: int, weight: int = 1) -> None:
        self.cm.update(key, weight)
        self.total += weight
        self.heap.offer(key, float(self.cm.query(key)))

    def update_array(self, keys: np.ndarray,
                     weights: Optional[np.ndarray] = None) -> None:
        """Bulk path: vectorised counters, heap refreshed post-batch."""
        self.cm.update_array(keys, weights)
        if weights is None:
            self.total += len(keys)
        else:
            self.total += int(np.sum(weights))
        uniq = np.unique(keys)
        self.heap.offer_many(uniq, self.cm.query_many(uniq),
                             sorted_keys=True)

    def heavy_hitters(self, fraction: float) -> List[Tuple[int, float]]:
        """Keys whose estimate is >= ``fraction`` of total traffic."""
        threshold = fraction * self.total
        return [(k, est) for k, est in self.heap.items() if est >= threshold]

    def memory_bytes(self) -> int:
        return self.cm.memory_bytes() + self.heap.memory_bytes()

    def update_cost(self) -> UpdateCost:
        base = self.cm.update_cost()
        # Point query for heap maintenance re-reads the rows.
        return UpdateCost(hashes=base.hashes,
                          counter_updates=base.counter_updates,
                          memory_words=base.memory_words + self.cm.rows + 1)


class ChangeDetectionTask(Sketch):
    """OpenSketch-style change detection with per-epoch k-ary sketches.

    ``update`` feeds the current epoch; :meth:`advance_epoch` seals it.
    :meth:`heavy_changes` diffs the current epoch against a *reference*
    and returns keys whose estimated |delta| exceeds ``phi`` times the
    total change.  The k-ary sketch is irreversible, so candidate keys
    must be supplied by the caller (OpenSketch pairs it with a key
    table; the benches pass the keys seen in either epoch) — this is the
    structural disadvantage versus UnivMon that Figure 6 surfaces.

    The reference follows Krishnamurthy et al.'s forecast models:

    - ``forecast_alpha=None`` (default): the previous epoch itself (the
      "basic" model, and what the Figure 6 bench uses for parity with
      UnivMon's epoch-pair subtraction);
    - ``forecast_alpha=a`` in (0, 1]: an EWMA forecast maintained
      counter-wise, ``F_t = a * S_{t-1} + (1-a) * F_{t-1}`` — linearity
      of the k-ary table is what makes forecasting sketches legal.
    """

    def __init__(self, rows: int = 5, width: int = 2048,
                 seed: Optional[int] = None,
                 forecast_alpha: Optional[float] = None) -> None:
        if seed is None:
            raise ConfigurationError(
                "ChangeDetectionTask needs an explicit seed (its epoch "
                "sketches must be subtractable)")
        if forecast_alpha is not None and not 0.0 < forecast_alpha <= 1.0:
            raise ConfigurationError(
                f"forecast_alpha must be in (0, 1], got {forecast_alpha}")
        self._make = lambda: KArySketch(rows=rows, width=width, seed=seed)
        self.forecast_alpha = forecast_alpha
        self.current = self._make()
        self.previous: Optional[KArySketch] = None
        self._forecast: Optional[np.ndarray] = None  # float EWMA table
        self.epochs_sealed = 0

    def update(self, key: int, weight: int = 1) -> None:
        self.current.update(key, weight)

    def update_array(self, keys: np.ndarray,
                     weights: Optional[np.ndarray] = None) -> None:
        self.current.update_array(keys, weights)

    def advance_epoch(self) -> None:
        sealed = self.current
        if self.forecast_alpha is not None:
            table = sealed.table.astype(np.float64)
            if self._forecast is None:
                self._forecast = table
            else:
                a = self.forecast_alpha
                self._forecast = a * table + (1 - a) * self._forecast
        self.previous = sealed
        self.current = self._make()
        self.epochs_sealed += 1

    def _reference(self) -> Optional[KArySketch]:
        """The sketch the current epoch is compared against."""
        if self.previous is None:
            return None
        if self.forecast_alpha is None or self._forecast is None:
            return self.previous
        reference = self._make()
        reference.table = np.rint(self._forecast).astype(np.int64)
        return reference

    def heavy_changes(self, phi: float,
                      candidates: np.ndarray) -> Tuple[List[Tuple[int, float]], float]:
        """(heavy-change keys with signed deltas, estimated total change)."""
        reference = self._reference()
        if reference is None:
            return [], 0.0
        diff = self.current.subtract(reference)
        total = total_change(diff)
        if total <= 0:
            return [], 0.0
        estimates = diff.query_many(np.asarray(candidates, dtype=np.uint64))
        threshold = phi * total
        out = [(int(k), float(d))
               for k, d in zip(candidates, estimates)
               if abs(d) >= threshold]
        out.sort(key=lambda kv: -abs(kv[1]))
        return out, total

    def memory_bytes(self) -> int:
        # Two epochs resident (current + previous), as deployed.
        factor = 2 if self.previous is not None else 1
        return self.current.memory_bytes() * factor

    def update_cost(self) -> UpdateCost:
        return self.current.update_cost()


class DDoSDetectionTask(Sketch):
    """OpenSketch DDoS victim test: count distinct sources, compare to k.

    Three interchangeable counting methods, all OpenSketch primitives:

    - ``"bitmap"`` — linear-counting bitmap (default; cheapest),
    - ``"hll"`` — HyperLogLog (constant relative error),
    - ``"bloom"`` — bloom filter + exact counter of first-seen keys.
    """

    def __init__(self, method: str = "bitmap", memory_bytes: int = 4096,
                 seed: Optional[int] = None) -> None:
        if method not in ("bitmap", "hll", "bloom"):
            raise ConfigurationError(
                f"method must be bitmap|hll|bloom, got {method!r}")
        self.method = method
        if method == "bitmap":
            self._counter = LinearCounter(bits=max(64, memory_bytes * 8),
                                          seed=seed)
        elif method == "hll":
            precision = max(4, min(18, (memory_bytes).bit_length() - 1))
            self._counter = HyperLogLog(precision=precision, seed=seed)
        else:
            self._bloom = BloomFilter(bits=max(64, memory_bytes * 8),
                                      num_hashes=4, seed=seed)
            self._new_keys = 0

    def update(self, key: int, weight: int = 1) -> None:
        if self.method == "bloom":
            if self._bloom.add_if_new(key):
                self._new_keys += 1
        else:
            self._counter.update(key)

    def update_array(self, keys: np.ndarray,
                     weights: Optional[np.ndarray] = None) -> None:
        if self.method == "bloom":
            for key in keys.tolist():
                self.update(int(key))
        else:
            self._counter.update_array(keys)

    def distinct_estimate(self) -> float:
        """Estimated number of distinct keys (sources) observed."""
        if self.method == "bloom":
            return float(self._new_keys)
        return self._counter.cardinality()

    def is_victim(self, k: int) -> bool:
        """The paper's DDoS test: more than ``k`` distinct sources?"""
        return self.distinct_estimate() > k

    def memory_bytes(self) -> int:
        if self.method == "bloom":
            return self._bloom.memory_bytes() + 8
        return self._counter.memory_bytes()

    def update_cost(self) -> UpdateCost:
        if self.method == "bloom":
            return self._bloom.update_cost()
        return self._counter.update_cost()


class HierarchicalHeavyHitterTask(Sketch):
    """OpenSketch heavy hitters via a prefix hierarchy of count-min sketches.

    A count-min sketch cannot enumerate its heavy keys, so OpenSketch's
    heavy-hitter task maintains one sketch per prefix granularity
    (here every ``step`` bits of a ``key_bits``-bit key) and reconstructs
    the heavy keys top-down: a child prefix is only queried when its
    parent was heavy, which bounds the query work while keeping the data
    plane key-oblivious.

    The price is ``key_bits / step`` count-min updates per packet; the
    memory budget is split evenly across the hierarchy levels.
    """

    def __init__(self, rows: int = 3, width: int = 1024,
                 key_bits: int = 32, step: int = 4,
                 seed: Optional[int] = None,
                 conservative: bool = False) -> None:
        if key_bits % step != 0:
            raise ConfigurationError(
                f"step {step} must divide key_bits {key_bits}")
        self.key_bits = key_bits
        self.step = step
        self.num_levels = key_bits // step
        rng_seed = seed
        self.levels = []
        for i in range(self.num_levels):
            level_seed = None if rng_seed is None else rng_seed + 1000 * i
            self.levels.append(CountMinSketch(
                rows=rows, width=width, seed=level_seed,
                conservative=conservative))
        self.total = 0

    def _prefix(self, key: int, level: int) -> int:
        """Key truncated to the first ``(level+1)*step`` bits."""
        shift = self.key_bits - (level + 1) * self.step
        return key >> shift

    def update(self, key: int, weight: int = 1) -> None:
        for level, cm in enumerate(self.levels):
            cm.update(self._prefix(key, level), weight)
        self.total += weight

    def update_array(self, keys: np.ndarray,
                     weights: Optional[np.ndarray] = None) -> None:
        keys = np.asarray(keys, dtype=np.uint64)
        for level, cm in enumerate(self.levels):
            shift = np.uint64(self.key_bits - (level + 1) * self.step)
            cm.update_array(keys >> shift, weights)
        if weights is None:
            self.total += len(keys)
        else:
            self.total += int(np.sum(weights))

    def heavy_hitters(self, fraction: float) -> List[Tuple[int, float]]:
        """Enumerate keys above ``fraction`` of total by tree descent."""
        # A threshold below 1 packet would make every prefix "heavy" and
        # the descent exponential; one packet is the physical floor.
        threshold = max(fraction * self.total, 1.0)
        candidates = [0]  # prefixes heavy at the previous level
        for level, cm in enumerate(self.levels):
            fanout = 1 << self.step
            next_candidates = []
            for parent in candidates:
                base = parent << self.step
                for child in range(fanout):
                    prefix = base | child
                    if cm.query(prefix) >= threshold:
                        next_candidates.append(prefix)
            candidates = next_candidates
            if not candidates:
                return []
        return [(prefix, float(self.levels[-1].query(prefix)))
                for prefix in candidates]

    def memory_bytes(self) -> int:
        return sum(cm.memory_bytes() for cm in self.levels)

    def update_cost(self) -> UpdateCost:
        per = self.levels[0].update_cost()
        return per.scaled(self.num_levels)
