"""QUERY — control-plane latency of the batched multi-statistic engine.

Times the paper's §3.4 task set plus F2 — heavy hitters, cardinality,
L1, entropy, F2 — evaluated against one sealed sketch two ways:

- **scalar baseline**: verbatim copies of the pre-rewrite estimators —
  one Python ``g(w)`` call and one scalar sampling-bit hash per heavy
  hitter per level, re-walked from scratch per statistic (exactly what
  every app did each epoch before the query engine);
- **batched**: ``QueryEngine.evaluate_many`` over a single
  :class:`~repro.core.query.QuerySnapshot`, with the snapshot cache
  invalidated before every timed iteration so each run pays the full
  honest cost of one build + five array-reduction estimates.

The release floor is a >= 5x speedup at the ISSUE geometry (16 levels,
k=200 heaps).  Results merge into
``benchmarks/results/BENCH_query.json``.
"""

import math
import time

import pytest

from repro.dataplane.keys import src_ip_key
from repro.dataplane.trace import SyntheticTraceConfig, generate_trace
from repro.core.gfunctions import ABS, CARDINALITY, ENTROPY_SUM
from repro.core.gsum import estimate_gsum_scalar
from repro.core.query import QueryEngine, Statistic
from repro.core.universal import UniversalSketch

from conftest import QUICK, write_results_json

_RESULTS = {}

#: The ISSUE geometry: deep sampling cascade, large per-level heaps.
LEVELS = 16
HEAP_SIZE = 200
ROWS = 5
WIDTH = 2048
PACKETS = 12_000 if QUICK else 60_000
FLOWS = 4_000 if QUICK else 20_000

STATISTICS = (
    Statistic.heavy_hitters(0.005),
    Statistic.cardinality(),
    Statistic.l1(),
    Statistic.entropy(),
    Statistic.f2(),
)


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json():
    yield
    if _RESULTS:
        write_results_json("BENCH_query.json", _RESULTS)


@pytest.fixture(scope="module")
def sketch():
    trace = generate_trace(SyntheticTraceConfig(
        packets=PACKETS, flows=FLOWS, zipf_skew=1.1, duration=5.0,
        seed=1))
    u = UniversalSketch(levels=LEVELS, rows=ROWS, width=WIDTH,
                        heap_size=HEAP_SIZE, seed=1)
    u.update_array(trace.key_array(src_ip_key))
    return u


# --------------------------------------------------------------------- #
# Verbatim pre-rewrite scalar estimators.  Frozen copies of the original
# control-plane code paths (scalar Recursive Sum per statistic, scalar
# heap walk for G-core), so the floor is measured against the real
# thing, not a strawman.  ``estimate_gsum_scalar`` in repro.core.gsum IS
# the original loop, retained as the reference implementation.
# --------------------------------------------------------------------- #


def _baseline_g_core(sketch, fraction, total=None):
    if total is None:
        total = sketch.total_weight
    threshold = fraction * total
    hitters = []
    for key, estimate in sketch.levels[0].heavy_hitters():
        if abs(estimate) >= threshold:
            hitters.append((key, estimate))
    return hitters


def _baseline_entropy(sketch, base=2.0):
    m = float(sketch.total_weight)
    if m <= 0:
        return 0.0
    s = estimate_gsum_scalar(sketch, ENTROPY_SUM)
    h = math.log2(m) - s / m
    return min(max(h, 0.0), math.log2(m))


def _scalar_all(sketch):
    """The five §3.4-plus-F2 estimates, the pre-rewrite way: each one
    re-walks every heap and re-hashes every sampling bit from scratch."""
    return {
        "heavy_hitters": _baseline_g_core(sketch, 0.005),
        "cardinality": max(0.0, estimate_gsum_scalar(sketch, CARDINALITY)),
        "l1": max(0.0, estimate_gsum_scalar(sketch, ABS)),
        "entropy": _baseline_entropy(sketch),
        "f2": sketch.levels[0].sketch.f2_estimate(),
    }


def _batched_all(sketch):
    """One honest batched evaluation: invalidate the cache so the timed
    region includes the full snapshot build, then one evaluate_many."""
    sketch.invalidate_snapshot()
    return QueryEngine(sketch).evaluate_many(STATISTICS)


def _best_seconds(fn, repeats=7):
    """Min-of-N wall time; fn is warmed once before timing."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_batched_matches_scalar(sketch):
    """The timed paths must be computing the same numbers."""
    scalar = _scalar_all(sketch)
    batched = _batched_all(sketch)
    assert [(int(k), float(w)) for k, w in scalar["heavy_hitters"]] == \
        batched["heavy_hitters"]
    for name in ("cardinality", "l1", "entropy", "f2"):
        assert math.isclose(scalar[name], batched[name],
                            rel_tol=1e-12, abs_tol=1e-9), \
            (name, scalar[name], batched[name])


def test_speedup_batched_query(sketch):
    """evaluate_many (snapshot rebuilt per call) >= 5x the scalar walk."""
    repeats = 3 if QUICK else 7
    t_scalar = _best_seconds(lambda: _scalar_all(sketch), repeats=repeats)
    t_batched = _best_seconds(lambda: _batched_all(sketch), repeats=repeats)
    # The marginal cost once the epoch's snapshot is already warm (every
    # app after the first): recorded for context, not a floor.
    engine = QueryEngine(sketch)
    engine.warm()
    t_warm = _best_seconds(lambda: engine.evaluate_many(STATISTICS),
                           repeats=repeats)
    speedup = t_scalar / t_batched
    _RESULTS["batched_query"] = {
        "levels": LEVELS,
        "heap_size": HEAP_SIZE,
        "packets": PACKETS,
        "flows": FLOWS,
        "heap_entries": int(sketch.query_snapshot().heap_entries()),
        "statistics": [s.name for s in STATISTICS],
        "scalar_ms": round(t_scalar * 1e3, 4),
        "batched_ms": round(t_batched * 1e3, 4),
        "warm_cache_ms": round(t_warm * 1e3, 4),
        "speedup": round(speedup, 2),
    }
    assert speedup >= 5.0, (
        f"batched query engine is only {speedup:.2f}x the scalar "
        f"estimators (need >= 5x)")


def test_snapshot_build_cost(sketch):
    """Isolate the snapshot build itself (the shared per-epoch cost)."""
    def build():
        sketch.invalidate_snapshot()
        sketch.query_snapshot()
    t_build = _best_seconds(build)
    _RESULTS["snapshot_build"] = {
        "heap_entries": int(sketch.query_snapshot().heap_entries()),
        "build_ms": round(t_build * 1e3, 4),
    }
