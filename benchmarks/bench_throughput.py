"""THRPT — wall-clock update throughput of every sketch's hot path.

pytest-benchmark timings for the bulk (vectorised) update path over a
shared 30k-packet trace, plus the per-packet scalar path on a sample.
These are the numbers a deployment would size against; they complement
the op-cost model with real CPython timings.

The ``test_speedup_*`` tests additionally pin the vectorised-ingest
rewrite against verbatim copies of the original ``np.add.at`` bulk
path (sketches constructed *outside* the timed region in both cases)
and enforce the release floors: >= 3x for ``CountSketch.update_array``
and >= 2x for ``UniversalSketch.update_array``.  ``test_speedup_hash_kernel``
pins the stacked-table ``TabulationFamily.hash_matrix`` (the hashing
behind every Count Sketch, Count-Min and k-ary sketch whose width is not
a power of two) against a frozen copy of the per-row gather loop it
replaced, ``test_speedup_topk_offer`` pins the array-backed
``TopK.offer_many`` against a frozen copy of the dict-and-``heapq``
heap it replaced, and ``test_speedup_counter_tensor`` pins the
counter-tensor ``UniversalSketch.update_array`` against a frozen copy of
the per-level path it replaced, batch shape by batch shape.  Results
merge into ``benchmarks/results/BENCH_throughput.json``.
"""

import heapq
import os
import platform
import time

import numpy as np
import pytest

from conftest import QUICK, write_results_json
from repro.core.level import SketchLevel, aggregate
from repro.dataplane.keys import src_ip_key
from repro.core.universal import UniversalSketch
from repro.hashing.sampling import LevelSampler
from repro.hashing.tabulation import (
    byte_view,
    derived_seeds,
    tabulation_family,
)
from repro.network.faults import zipf_keys
from repro.opensketch.tasks import (
    ChangeDetectionTask,
    DDoSDetectionTask,
    HeavyHitterTask,
    HierarchicalHeavyHitterTask,
)
from repro.sketches.bitmap import LinearCounter
from repro.sketches.countmin import CountMinSketch
from repro.sketches.countsketch import CountSketch
from repro.sketches.hyperloglog import HyperLogLog
from repro.sketches.kary import KArySketch
from repro.sketches.topk import TopK


_RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json():
    """Persist whatever the speedup tests measured, even on a partial
    run."""
    yield
    if _RESULTS:
        write_results_json("BENCH_throughput.json", _RESULTS)


@pytest.fixture(scope="module")
def keys(bench_trace):
    return bench_trace.key_array(src_ip_key)


# --------------------------------------------------------------------- #
# Verbatim pre-rewrite bulk paths (the np.add.at baseline).  These are
# frozen copies of the original implementations so the speedup floor is
# measured against the real thing, not a strawman.
# --------------------------------------------------------------------- #


def _baseline_countsketch_update(sketch, keys, weights=None):
    if weights is None:
        weights = np.ones(len(keys), dtype=np.int64)
    for r, h in enumerate(sketch._family.hashes):
        v = h.hash_array(keys)
        sign = np.where(v >> np.uint64(63), 1, -1).astype(np.int64)
        buckets = (v % np.uint64(sketch.width)).astype(np.intp)
        np.add.at(sketch.table[r], buckets, sign * weights)


def _baseline_deepest_levels(sampler, keys):
    n = len(keys)
    if sampler.levels == 0:
        return np.zeros(n, dtype=np.int64)
    bits = np.empty((sampler.levels, n), dtype=bool)
    for j, h in enumerate(sampler._family.hashes):
        bits[j] = (h.hash_array(keys) & np.uint64(1)).astype(bool)
    all_true = bits.all(axis=0)
    first_zero = np.argmin(bits, axis=0)
    depth = np.where(all_true, sampler.levels, first_zero)
    return depth.astype(np.int64)


def _baseline_level_update(level, keys):
    _baseline_countsketch_update(level.sketch, keys)
    level.packets += len(keys)
    level.weight += len(keys)
    uniq = np.unique(keys)
    estimates = level.sketch.query_many(uniq)
    order = np.argsort(np.abs(estimates))
    for i in order:
        level.topk.offer(int(uniq[i]), float(estimates[i]))


class _BaselineTopK:
    """The dict plus lazily pruned ``heapq`` list ``TopK`` was before it
    became two arrays (the parts the baselines call)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._estimates = {}
        self._heap = []  # (|estimate|, key), stale ok
        self.offers = 0
        self.evictions = 0
        self.rejections = 0

    def offer(self, key, estimate):
        est = self._estimates
        rank = abs(estimate)
        self.offers += 1
        if key in est:
            est[key] = estimate
            heapq.heappush(self._heap, (rank, key))
            return True
        if len(est) < self.capacity:
            est[key] = estimate
            heapq.heappush(self._heap, (rank, key))
            return True
        min_key, min_rank = self.min()
        if rank <= min_rank:
            self.rejections += 1
            return False
        del est[min_key]
        self.evictions += 1
        est[key] = estimate
        heapq.heappush(self._heap, (rank, key))
        return True

    def offer_many(self, keys, estimates, sorted_keys=False):
        keys = np.asarray(keys, dtype=np.uint64)
        estimates = np.asarray(estimates, dtype=np.float64)
        if len(keys) == 0:
            return
        self.offers += len(keys)
        prev_keys = []
        est = self._estimates
        if est:
            old_keys = np.fromiter(est.keys(), dtype=np.uint64,
                                   count=len(est))
            prev_keys = old_keys.tolist()
            if sorted_keys:
                pos = np.searchsorted(keys, old_keys)
                pos[pos == len(keys)] = 0
                kept = old_keys[keys[pos] != old_keys]
            else:
                kept = old_keys[~np.isin(old_keys, keys)]
            if len(kept):
                old_ests = np.array([est[int(k)] for k in kept],
                                    dtype=np.float64)
                keys = np.concatenate([keys, kept])
                estimates = np.concatenate([estimates, old_ests])
        candidates = len(keys)
        ranks = np.abs(estimates)
        if len(keys) > self.capacity:
            cut = len(keys) - self.capacity
            top = np.argpartition(ranks, cut)[cut:]
            keys, estimates, ranks = keys[top], estimates[top], ranks[top]
        order = np.argsort(ranks, kind="stable")
        self._estimates = {
            int(keys[i]): float(estimates[i]) for i in order
        }
        self._heap = [(float(ranks[i]), int(keys[i])) for i in order]
        dropped = candidates - len(self._estimates)
        if dropped:
            evicted = sum(1 for k in prev_keys if k not in self._estimates)
            self.evictions += evicted
            self.rejections += dropped - evicted

    def min(self):
        est = self._estimates
        heap = self._heap
        while heap:
            rank, key = heap[0]
            current = est.get(key)
            if current is not None and abs(current) == rank:
                return key, rank
            heapq.heappop(heap)  # stale entry
        self._heap = [(abs(v), k) for k, v in est.items()]
        heapq.heapify(self._heap)
        rank, key = self._heap[0]
        return key, rank

    def items(self):
        return sorted(self._estimates.items(), key=lambda kv: -abs(kv[1]))


def _baseline_universal_update(u, keys):
    depths = _baseline_deepest_levels(u.sampler, keys)
    for j, level in enumerate(u.levels):
        mask = depths >= j
        if not mask.any():
            break
        _baseline_level_update(level, keys[mask])
    u.packets += len(keys)


def _baseline_hash_matrix(row_tables, xs):
    """The per-row multi-hash kernel the stacked gather replaced: 8
    gathers and 7 XORs per row, each row reading its own contiguous
    ``(8, 256)`` table."""
    view = byte_view(xs)
    n = view.shape[0]
    out = np.empty((len(row_tables), n), dtype=np.uint64)
    scratch = np.empty(n, dtype=np.uint64)
    for r, tables in enumerate(row_tables):
        np.take(tables[0], view[:, 0], out=out[r])
        for i in range(1, 8):
            np.take(tables[i], view[:, i], out=scratch)
            np.bitwise_xor(out[r], scratch, out=out[r])
    return out


def _host_stamp():
    return {"cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__}


def _best_seconds(fn, repeats=7):
    """Min-of-N wall time; fn is warmed once before timing."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_speedup_countsketch_bulk(keys):
    """Packed-tabulation bincount path must be >= 3x the np.add.at path."""
    new = CountSketch(rows=5, width=2048, seed=1)
    old = CountSketch(rows=5, width=2048, seed=1)
    t_new = _best_seconds(lambda: new.update_array(keys))
    t_old = _best_seconds(lambda: _baseline_countsketch_update(old, keys))
    speedup = t_old / t_new
    _RESULTS["countsketch_bulk"] = {
        "packets": int(len(keys)),
        "new_ms": round(t_new * 1e3, 4),
        "baseline_ms": round(t_old * 1e3, 4),
        "speedup": round(speedup, 2),
        "new_mpps": round(len(keys) / t_new / 1e6, 2),
    }
    assert speedup >= 3.0, (
        f"CountSketch bulk path is only {speedup:.2f}x the np.add.at "
        f"baseline (need >= 3x)")


#: Keys per call: a deep level's or a subtract's heap keys, one
#: switch_zipf epoch's distinct keys, and a large all-distinct batch;
#: with the floor each size must meet.
HASH_KERNEL_FLOORS = {128: 2.0, 1_400: 2.0, 300_000: 1.0}


def test_speedup_hash_kernel():
    """Stacked-table ``hash_matrix`` (5 rows) >= 2x the per-row loop at
    128 and 1,400 keys, and not slower at 300k keys."""
    family = tabulation_family(1, 5)
    # The per-row kernel read one contiguous table per hash.
    row_tables = [np.ascontiguousarray(h._np_tables) for h in family.hashes]
    gen = np.random.default_rng(5)
    by_keys = {}
    for n, floor in HASH_KERNEL_FLOORS.items():
        xs = gen.integers(0, 1 << 64, n, dtype=np.uint64)
        assert np.array_equal(family.hash_matrix(xs),
                              _baseline_hash_matrix(row_tables, xs))
        repeats = 200 if n < 10_000 else 7
        t_new = _best_seconds(lambda: family.hash_matrix(xs), repeats)
        t_old = _best_seconds(lambda: _baseline_hash_matrix(row_tables, xs),
                              repeats)
        by_keys[str(n)] = {
            "new_us": round(t_new * 1e6, 1),
            "baseline_us": round(t_old * 1e6, 1),
            "speedup": round(t_old / t_new, 2),
            "floor": floor,
        }
    _RESULTS["hash_kernel"] = {"rows": 5, "host": _host_stamp(),
                               "by_keys": by_keys}
    for n, point in by_keys.items():
        assert point["speedup"] >= point["floor"], (
            f"stacked hash_matrix is {point['speedup']:.2f}x the per-row "
            f"loop at {n} keys (need >= {point['floor']}x)")


#: Heap capacity -> the floor ``offer_many`` must meet there.
TOPK_OFFER_FLOORS = {64: 1.5, 256: 3.0, 512: 3.0}


def test_speedup_topk_offer():
    """Array-backed ``TopK.offer_many`` of 1,400 sorted distinct keys
    (one switch_zipf epoch's addresses) into a half-full heap: >= 1.5x
    the dict-and-heapq heap at capacity 64, >= 3x at 256 and 512."""
    gen = np.random.default_rng(9)
    keys = np.unique(gen.integers(0, 1 << 32, 4_000, dtype=np.uint64))
    keys = np.sort(gen.choice(keys, 1_400, replace=False))
    estimates = gen.standard_normal(1_400) * 1e3
    repeats = 200
    by_capacity = {}
    for capacity, floor in TOPK_OFFER_FLOORS.items():
        # Half the tracked keys come back in the batch, as heavy keys
        # recur from one batch to the next.
        tracked = np.sort(np.concatenate([
            gen.choice(keys, capacity // 4, replace=False),
            gen.integers(1 << 32, 1 << 33, capacity // 4, dtype=np.uint64)]))
        tracked_ests = gen.standard_normal(len(tracked)) * 1e3

        def half_full(cls):
            heap = cls(capacity)
            heap.offer_many(tracked, tracked_ests, sorted_keys=True)
            return heap

        def seconds(cls):
            heaps = iter([half_full(cls) for _ in range(repeats + 1)])
            return _best_seconds(lambda: next(heaps).offer_many(
                keys, estimates, sorted_keys=True), repeats)

        new, old = half_full(TopK), half_full(_BaselineTopK)
        new.offer_many(keys, estimates, sorted_keys=True)
        old.offer_many(keys, estimates, sorted_keys=True)
        assert new.items() == old.items()
        assert (new.evictions, new.rejections) == \
            (old.evictions, old.rejections)
        t_new, t_old = seconds(TopK), seconds(_BaselineTopK)
        by_capacity[str(capacity)] = {
            "new_us": round(t_new * 1e6, 1),
            "baseline_us": round(t_old * 1e6, 1),
            "speedup": round(t_old / t_new, 2),
            "floor": floor,
        }
    _RESULTS["topk_offer"] = {"keys": 1_400, "host": _host_stamp(),
                              "by_capacity": by_capacity}
    for capacity, point in by_capacity.items():
        assert point["speedup"] >= point["floor"], (
            f"array offer_many is {point['speedup']:.2f}x the dict heap "
            f"at capacity {capacity} (need >= {point['floor']}x)")


def test_speedup_universal_bulk(keys):
    """Aggregate-once ingest + packed sketches + bulk heap merge >= 2x."""
    new = UniversalSketch(levels=8, rows=5, width=2048, heap_size=64, seed=1)
    old = UniversalSketch(levels=8, rows=5, width=2048, heap_size=64, seed=1)
    for level in old.levels:  # the baseline pays the old heap's cost
        level.topk = _BaselineTopK(level.topk.capacity)
    t_new = _best_seconds(lambda: new.update_array(keys), repeats=5)
    t_old = _best_seconds(lambda: _baseline_universal_update(old, keys),
                          repeats=5)
    speedup = t_old / t_new
    _RESULTS["universal_bulk"] = {
        "packets": int(len(keys)),
        "new_ms": round(t_new * 1e3, 4),
        "baseline_ms": round(t_old * 1e3, 4),
        "speedup": round(speedup, 2),
        "new_mpps": round(len(keys) / t_new / 1e6, 2),
    }
    assert speedup >= 2.0, (
        f"UniversalSketch bulk path is only {speedup:.2f}x the np.add.at "
        f"baseline (need >= 2x)")


class _PerLevelSketch:
    """The layout the counter tensor replaced: one
    :class:`SketchLevel` per level, each owning its own table and
    hashes, drawn from the same seeds."""

    def __init__(self, levels, rows, width, heap_size, seed):
        sampler_seed, *level_seeds = derived_seeds(seed, levels + 2)
        self.sampler = LevelSampler(levels, seed=sampler_seed)
        self.levels = [SketchLevel(rows=rows, width=width,
                                   heap_size=heap_size, seed=level_seed)
                       for level_seed in level_seeds]
        self.packets = 0


def _per_level_update(sketch, keys):
    """The per-level bulk update the fused kernel replaced (the old body
    of ``UniversalSketch._update_array``): aggregate once, then one
    ``SketchLevel.update_distinct`` per level."""
    n = len(keys)
    keys, packets, weights = aggregate(keys)
    depths = sketch.sampler.deepest_level_array(keys)
    for j, level in enumerate(sketch.levels):
        if j:
            deeper = depths >= j
            if not deeper.any():
                break
            keys, packets, weights, depths = (
                keys[deeper], packets[deeper], weights[deeper],
                depths[deeper])
        level.update_distinct(keys, packets, weights)
    sketch.packets += n


#: switch_zipf's sketch (512 KiB, levels 12, rows 5, heap 64: width 1965)
#: and fleet_tree's leaf (levels 5, rows 2, width 256, heap 16).
SWITCH = dict(levels=12, rows=5, heap_size=64, seed=1,
              width=UniversalSketch.width_for_budget(
                  512 * 1024, levels=12, rows=5, heap_size=64))
LEAF = dict(levels=5, rows=2, width=256, heap_size=16, seed=9)


def _tensor_shapes():
    """name -> (geometry, batch, floor): the batch shapes the kernel
    choice depends on, from few distinct keys (fused kernel) to all
    distinct (per-level kernel).  A floor of None is recorded only."""
    gen = np.random.default_rng(23)
    return {
        "zipf_1400_keys": (SWITCH, zipf_keys(gen, 65_536, flows=1_400,
                                             skew=1.1), 1.2),
        "zipf_30k_packets": (SWITCH, zipf_keys(gen, 30_000, flows=20_000,
                                               skew=1.1), None),
        "serve_chunk": (SWITCH, zipf_keys(gen, 4_096, flows=6_000,
                                          skew=0.6), None),
        "distinct_19206": (SWITCH, gen.integers(0, 1 << 64, 19_206,
                                                dtype=np.uint64), 0.85),
        "distinct_65536": (SWITCH, gen.integers(0, 1 << 64, 65_536,
                                                dtype=np.uint64), 0.85),
        "fleet_leaf": (LEAF, zipf_keys(gen, 400, flows=450, skew=0.6),
                       None),
    }


def test_speedup_counter_tensor():
    """``update_array`` on a fresh sketch against the per-level path,
    alternating in one process: >= 1.2x on switch_zipf's batch (65,536
    packets over 1,400 keys), >= 0.85x on the two all-distinct batches
    the per-level kernel takes.  Both sides fold every batch into equal
    counters and heaps."""
    repeats = 7 if QUICK else 21
    by_shape = {}
    for name, (geometry, batch, floor) in _tensor_shapes().items():
        new, old = UniversalSketch(**geometry), _PerLevelSketch(**geometry)
        new.update_array(batch)
        _per_level_update(old, batch)
        for mine, theirs in zip(new.levels, old.levels):
            assert np.array_equal(mine.sketch.table, theirs.sketch.table)
            assert mine.topk.arrays()[0].tolist() == \
                theirs.topk.arrays()[0].tolist()
        times = {"new": [], "old": []}
        for _ in range(repeats):
            for side in ("new", "old"):
                if side == "new":
                    sketch, update = UniversalSketch(**geometry), \
                        UniversalSketch.update_array
                else:
                    sketch, update = _PerLevelSketch(**geometry), \
                        _per_level_update
                t0 = time.perf_counter()
                update(sketch, batch)
                times[side].append(time.perf_counter() - t0)
        t_new, t_old = (float(np.median(times[side])) for side in
                        ("new", "old"))
        by_shape[name] = {
            "packets": int(len(batch)),
            "distinct": int(len(np.unique(batch))),
            "new_ms": round(t_new * 1e3, 3),
            "baseline_ms": round(t_old * 1e3, 3),
            "speedup": round(t_old / t_new, 2),
            "floor": floor,
        }
    _RESULTS["counter_tensor"] = {
        "switch_width": SWITCH["width"], "repeats": repeats,
        "host": _host_stamp(), "by_shape": by_shape}
    print("\ncounter_tensor:", by_shape)
    for name, point in by_shape.items():
        if point["floor"] is not None:
            assert point["speedup"] >= point["floor"], (
                f"counter-tensor update_array is {point['speedup']:.2f}x "
                f"the per-level path on {name} (need >= "
                f"{point['floor']}x)")


def test_bulk_countsketch(benchmark, keys):
    benchmark(lambda: CountSketch(rows=5, width=2048, seed=1)
              .update_array(keys))


def test_bulk_countmin(benchmark, keys):
    benchmark(lambda: CountMinSketch(rows=3, width=2048, seed=1)
              .update_array(keys))


def test_bulk_kary(benchmark, keys):
    benchmark(lambda: KArySketch(rows=5, width=2048, seed=1)
              .update_array(keys))


def test_bulk_bitmap(benchmark, keys):
    benchmark(lambda: LinearCounter(bits=1 << 16, seed=1)
              .update_array(keys))


def test_bulk_hyperloglog(benchmark, keys):
    benchmark(lambda: HyperLogLog(precision=12, seed=1).update_array(keys))


def test_bulk_universal_sketch(benchmark, keys):
    benchmark(lambda: UniversalSketch(levels=8, rows=5, width=2048,
                                      heap_size=64, seed=1)
              .update_array(keys))


def test_bulk_opensketch_hh_task(benchmark, keys):
    benchmark(lambda: HierarchicalHeavyHitterTask(rows=3, width=2048, seed=1)
              .update_array(keys))


def test_bulk_opensketch_suite(benchmark, keys):
    """All three OpenSketch tasks back to back — the suite UnivMon
    replaces with the single instance above."""
    def run():
        HierarchicalHeavyHitterTask(rows=3, width=2048, seed=1) \
            .update_array(keys)
        ChangeDetectionTask(rows=5, width=2048, seed=1).update_array(keys)
        DDoSDetectionTask(method="bitmap", memory_bytes=1 << 13, seed=1) \
            .update_array(keys)
    benchmark(run)


def test_scalar_universal_sketch(benchmark, keys):
    """Per-packet path on a 2k sample (the non-vectorised deployment)."""
    sample = keys[:2000].tolist()

    def run():
        u = UniversalSketch(levels=8, rows=5, width=2048, heap_size=64,
                            seed=1)
        for k in sample:
            u.update(k)
    benchmark(run)


def test_scalar_cm_heap_task(benchmark, keys):
    sample = keys[:2000].tolist()

    def run():
        t = HeavyHitterTask(rows=3, width=2048, seed=1)
        for k in sample:
            t.update(k)
    benchmark(run)


def test_control_plane_gsum_estimation(benchmark, keys):
    """Offline cost of running Algorithm 2 for all four tasks."""
    u = UniversalSketch(levels=8, rows=5, width=2048, heap_size=64, seed=1)
    u.update_array(keys)

    def estimate_all():
        u.heavy_hitters(0.005)
        u.cardinality()
        u.entropy()
        from repro.core.gsum import estimate_l1
        estimate_l1(u)
    benchmark(estimate_all)
