"""fleet_tree: network-wide collection over a three-tier tree.

Mirrors ``univmon coordinate --topology tree --transfer delta``: a
``HierarchicalCoordinator`` over 65 ``SimulatedSwitch``/``SimLink``
leaves with fanout 8, so the tree has rack, pod and root tiers (9 -> 2 ->
1).  No drops, no kills.  Heavy-hitter, cardinality and entropy apps run
on each merged epoch.  The geometry (levels 5, rows 2, width 256, heap
16) has a power-of-two width: the packed Count Sketch path, the other
side of the width choice from switch_zipf.

Each epoch every leaf gets a thin share (400 packets) of a network-wide
Zipf 0.6 mix over 450 keys, about 1.5 packets per key at a leaf, so leaf
heaps fill.  The network-wide mix is the same every epoch; the seed
decides which leaf sees which packets (``inputs.FixedMixSource``).
Feeding the leaves is outside the timed collection: ``run_epoch`` is
codec plus merge, and ingest changes should not move it.

The benchmark asks each merged epoch the ``univmon query`` default batch
eight times, after the next garbage-collection settle, so a collection of
the epoch's garbage does not land inside a sub-millisecond query.  Times
are scaled by the reference kernel, as in switch_zipf.  The traced phase
records spans only around leaf feeding, the queries and ``run_epoch``.
"""

from __future__ import annotations

import numpy as np

import common
from inputs import EpochTruth, FixedMixSource
from refkernel import ReferenceKernel, scale
from tracer import recording

LEAVES = 65
FANOUT = 8
LEAF_PACKETS = 400
UNIVERSE = 450
SKEW = 0.6
ALPHA = 0.005
WARMUP = 3
#: 110 seals put 11 samples beyond p90; 880 queries put 44 beyond p95.
MIN_EPOCHS = 110
#: Accuracy is the mean over this many epochs.
ACC_EPOCHS = 110
REF_RADIUS = 5
QUERIES_PER_EPOCH = 8


def _factory():
    from repro.core.universal import UniversalSketch
    return UniversalSketch(levels=5, rows=2, width=256, heap_size=16, seed=9)


class _Capture:
    """Keeps the merged epoch sketch the apps saw (a registered app)."""

    name = "bench_capture"

    def __init__(self) -> None:
        self.sketch = None

    def on_sketch(self, sketch, epoch_index: int) -> dict:
        self.sketch = sketch
        return {}

    def reset(self) -> None:
        self.sketch = None


def build():
    from repro.controlplane.apps.cardinality import CardinalityApp
    from repro.controlplane.apps.entropy import EntropyApp
    from repro.controlplane.apps.heavy_hitters import HeavyHitterApp
    from repro.network.faults import SimLink, SimulatedSwitch
    from repro.network.hierarchy import HierarchicalCoordinator

    switches = {f"leaf{i:03d}": SimulatedSwitch(f"leaf{i:03d}", _factory)
                for i in range(LEAVES)}
    links = {name: SimLink(switch) for name, switch in switches.items()}
    coordinator = HierarchicalCoordinator(links, _factory, fanout=FANOUT,
                                          transfer="delta")
    capture = _Capture()
    coordinator.register(CardinalityApp()).register(EntropyApp()) \
               .register(HeavyHitterApp(alpha=ALPHA)).register(capture)
    return switches, coordinator, capture


def setup_seconds() -> float:
    start = common.now()
    build()
    return common.now() - start


def _feed(switches, keys: np.ndarray) -> None:
    for index, switch in enumerate(switches.values()):
        switch.feed(keys[index * LEAF_PACKETS:(index + 1) * LEAF_PACKETS])


def run(seed: int, seconds: float, tracer=None) -> common.Outcome:
    from repro.core.query import QueryEngine, Statistic

    out = common.Outcome()
    source = FixedMixSource(seed, tag=2, keys=UNIVERSE, skew=SKEW,
                            packets=LEAVES * LEAF_PACKETS)
    truth = EpochTruth.of(source.multiset, ALPHA)  # the same every epoch
    kernel = ReferenceKernel()
    batch = tuple(Statistic.parse(spec) for spec in common.QUERY_SPECS)
    baseline = common.reset_peak_rss()
    switches, coordinator, capture = build()
    for w in range(WARMUP):
        _feed(switches, source.epoch(-1 - w).astype(np.uint64))
        coordinator.run_epoch()

    seal_s, query_s, query_ref, ref_ms, covered = [], [], [], [], []
    f0_err, ent_err, f1, wire, fill, settle_ms = [], [], [], [], [], []

    def ask(sketch, epoch: int) -> None:
        """The query batch against a merged epoch, after a settle."""
        for _ in range(QUERIES_PER_EPOCH):
            q0 = common.now()
            answer = QueryEngine(sketch).evaluate_many(batch)
            query_s.append(common.now() - q0)
            query_ref.append(len(ref_ms) - 1)
            out.attempted += 1
            out.check(set(answer) == common.QUERY_NAMES,
                      f"epoch {epoch}: query answered {sorted(answer)}")

    if tracer is not None:
        from layers import install
        install(tracer)
    start = common.now()
    try:
        i = 0
        while i < MIN_EPOCHS or common.now() - start < seconds:
            keys = source.epoch(i).astype(np.uint64)
            with recording(tracer, tag=i):
                _feed(switches, keys)
            settle_ms.append(common.settle())
            ref_ms.append(kernel.time_ms())
            with recording(tracer, tag=i):
                if i:
                    ask(merged, i - 1)
                t0 = common.now()
                report = coordinator.run_epoch()
                t1 = common.now()
            seal_s.append(t1 - t0)
            merged = capture.sketch

            coverage = report["coverage"]
            hitters = report["heavy_hitters"]["keys"]
            covered.append(coverage["packets_covered"])
            out.attempted += 2
            out.check(coverage["coverage"] == 1.0
                      and coverage["packets_covered"] == len(keys),
                      f"epoch {i}: coverage {coverage['coverage']}, "
                      f"{coverage['packets_covered']} of {len(keys)} packets")
            out.check(all(truth.fed(k) for k in hitters),
                      f"epoch {i}: reported a heavy hitter never fed")
            if i < ACC_EPOCHS:
                f0_err.append(truth.f0_rel_err(
                    report["cardinality"]["distinct"]))
                ent_err.append(truth.entropy_rel_err(
                    report["entropy"]["entropy"]))
                f1.append(truth.hh_f1(hitters))
                wire.append(coverage["bytes_wire"])
                fill.append(len(merged.levels[-1].topk) / merged.heap_size)
            i += 1
        settle_ms.append(common.settle())
        with recording(tracer, tag=i):
            ask(merged, i - 1)
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = common.now() - start
    out.epochs = i

    norm = scale(ref_ms, REF_RADIUS)
    seal_ms = np.asarray(seal_s) * 1e3
    query_ms = np.asarray(query_s) * 1e3
    query_norm = norm[query_ref]
    m = out.metrics
    m["ingest_pps"] = float(np.sum(covered)) / float(
        np.sum(np.asarray(seal_s) * norm))
    m["seal_ms_p50"] = common.percentile(seal_ms * norm, 50)
    m["seal_ms_p90"] = common.percentile(seal_ms * norm, 90)
    m["query_ms_p50"] = common.percentile(query_ms * query_norm, 50)
    m["query_ms_p95"] = common.percentile(query_ms * query_norm, 95)
    m["peak_rss_mb"] = common.peak_rss_mb() - baseline
    m["wire_bytes_per_epoch"] = common.median(wire)
    m["f0_rel_err"] = common.mean(f0_err)
    m["entropy_rel_err"] = common.mean(ent_err)
    m["hh_f1"] = common.mean(f1)

    d = out.diagnostics
    d["epochs"] = i
    d["measured_s"] = elapsed
    d["topology"] = coordinator.plan.describe()
    d["bench.ref_ms"] = common.median(ref_ms)
    d["bench.settle_ms"] = common.median(settle_ms)
    d["bench.raw.ingest_pps"] = float(np.sum(covered)) / float(np.sum(seal_s))
    d["bench.raw.seal_ms_p50"] = common.percentile(seal_ms, 50)
    d["bench.raw.seal_ms_p90"] = common.percentile(seal_ms, 90)
    d["bench.raw.query_ms_p50"] = common.percentile(query_ms, 50)
    d["bench.raw.query_ms_p95"] = common.percentile(query_ms, 95)
    d["core.heap.deepest_fill"] = common.median(fill)
    d["detect.confirmed_epochs"] = 0
    d["offered"] = f"{LEAVES} leaves x {LEAF_PACKETS} packets per epoch"
    d["cs_path"] = common.cs_path(merged)

    out.percentile_guard("seal_ms_p90", i, 90)
    out.percentile_guard("query_ms_p95", len(query_s), 95)
    return out
