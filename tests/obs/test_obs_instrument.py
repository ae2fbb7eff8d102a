"""Instrumentation wiring: sketches, ingest, controller, health tracker."""

import numpy as np
import pytest

from repro.controlplane.apps.cardinality import CardinalityApp
from repro.controlplane.apps.heavy_hitters import HeavyHitterApp
from repro.controlplane.controller import Controller
from repro.core.universal import UniversalSketch
from repro.dataplane.trace import SyntheticTraceConfig, generate_trace
from repro.network.health import HealthTracker
from repro.obs import (
    MetricsRegistry,
    observe_sketch,
    use_registry,
)
from repro.sketches.topk import TopK


def _small_sketch():
    return UniversalSketch(levels=4, rows=3, width=128, heap_size=8, seed=3)


def _keys(n=2000, flows=300, seed=11):
    rng = np.random.default_rng(seed)
    return rng.integers(0, flows, size=n).astype(np.uint64)


class TestTopKChurnCounters:
    def test_scalar_offer_taxonomy(self):
        topk = TopK(capacity=2)
        assert topk.offer(1, 10.0)       # fill
        assert topk.offer(2, 20.0)       # fill
        assert not topk.offer(3, 5.0)    # too small: rejection
        assert topk.offer(4, 30.0)       # displaces key 1: eviction
        assert topk.offer(2, 25.0)       # tracked key re-offer: retained
        assert topk.offers == 5
        assert topk.evictions == 1
        assert topk.rejections == 1

    def test_bulk_offer_conserves_taxonomy(self):
        """offers == candidates seen; every dropped candidate is either
        an eviction (was tracked) or a rejection (never made it)."""
        topk = TopK(capacity=4)
        topk.offer_many(np.arange(1, 7, dtype=np.uint64),
                        np.arange(1.0, 7.0))
        tracked_before = set(topk.keys())
        offers_before = topk.offers
        ev_before, rej_before = topk.evictions, topk.rejections
        assert offers_before == 6
        assert ev_before + rej_before == 2  # two candidates never fit

        fresh = np.arange(100, 104, dtype=np.uint64)
        topk.offer_many(fresh, np.array([50.0, 60.0, 0.1, 0.2]))
        assert topk.offers == offers_before + 4
        survivors = set(topk.keys())
        evicted = len(tracked_before - survivors)
        dropped = len(tracked_before) + 4 - len(survivors)
        assert evicted > 0
        assert topk.evictions == ev_before + evicted
        assert topk.rejections == rej_before + (dropped - evicted)

    def test_copy_preserves_counters(self):
        topk = TopK(capacity=1)
        topk.offer(1, 1.0)
        topk.offer(2, 2.0)
        topk.offer(3, 0.5)
        clone = topk.copy()
        assert (clone.offers, clone.evictions, clone.rejections) == (3, 1, 1)
        clone.offer(9, 9.0)
        assert topk.offers == 3  # independent


class TestObserveSketch:
    def test_publishes_per_level_state(self):
        sketch = _small_sketch()
        sketch.update_array(_keys())
        reg = MetricsRegistry()
        observe_sketch(sketch, reg)
        for j, level in enumerate(sketch.levels):
            lab = {"level": str(j)}
            occupancy = reg.get("univmon_level_heap_occupancy", **lab)
            assert occupancy.value == len(level.topk)
            packets = reg.get("univmon_level_packets", **lab)
            assert packets.value == level.packets
            fill = reg.get("univmon_level_counter_fill_ratio", **lab)
            assert 0.0 < fill.value <= 1.0
            offers = reg.get("univmon_topk_offers_total", **lab)
            assert offers.value == level.topk.offers > 0
        # Level 0 sees the whole stream; its heap is full.
        assert reg.get("univmon_level_heap_occupancy",
                       level="0").value == 8

    def test_counters_accumulate_across_epochs(self):
        sketch = _small_sketch()
        sketch.update_array(_keys())
        reg = MetricsRegistry()
        observe_sketch(sketch, reg)
        once = reg.get("univmon_topk_offers_total", level="0").value
        observe_sketch(sketch, reg)
        assert reg.get("univmon_topk_offers_total",
                       level="0").value == 2 * once

    def test_noop_without_levels_or_disabled_registry(self):
        reg = MetricsRegistry()
        observe_sketch(object(), reg)
        assert len(reg) == 0
        with use_registry(reg):
            from repro.obs import NULL_REGISTRY
            observe_sketch(_small_sketch(), NULL_REGISTRY)
        assert len(reg) == 0


class TestSketchSpans:
    def test_update_array_records_latency_and_packets(self):
        reg = MetricsRegistry()
        sketch = _small_sketch()
        keys = _keys(n=1000)
        with use_registry(reg):
            sketch.update_array(keys[:600])
            sketch.update_array(keys[600:])
        hist = reg.get("univmon_sketch_update_seconds")
        assert hist.count == 2
        assert reg.get("univmon_sketch_update_packets_total").value == 1000
        # Distinct keys are counted per batch: a key in both batches
        # counts twice, as it costs twice.
        distinct = len(np.unique(keys[:600])) + len(np.unique(keys[600:]))
        assert distinct < 1000
        assert reg.get("univmon_sketch_update_distinct_total").value == \
            distinct

    def test_queries_record_per_op_latency(self):
        reg = MetricsRegistry()
        sketch = _small_sketch()
        sketch.update_array(_keys(n=500))
        with use_registry(reg):
            sketch.heavy_hitters(0.05)
            sketch.cardinality()
            sketch.entropy()
            sketch.entropy()
        assert reg.get("univmon_sketch_query_seconds",
                       op="heavy_hitters").count == 1
        assert reg.get("univmon_sketch_query_seconds",
                       op="cardinality").count == 1
        assert reg.get("univmon_sketch_query_seconds",
                       op="entropy").count == 2

    def test_default_registry_records_nothing(self):
        sketch = _small_sketch()
        sketch.update_array(_keys(n=200))
        # The global default is the null registry: nothing to flush,
        # nothing retained anywhere.
        from repro.obs import NULL_REGISTRY, get_registry, to_dict
        assert get_registry() is NULL_REGISTRY
        assert to_dict(NULL_REGISTRY) == {"counters": {}, "gauges": {},
                                          "histograms": {}}


class TestControllerMetrics:
    def test_epoch_pipeline_exports_everything(self):
        trace = generate_trace(SyntheticTraceConfig(
            packets=4000, flows=500, duration=10.0, seed=5))
        controller = Controller(sketch_factory=_small_sketch,
                                epoch_seconds=5.0)
        controller.register(HeavyHitterApp(alpha=0.01))
        controller.register(CardinalityApp())
        reg = MetricsRegistry()
        with use_registry(reg):
            reports = controller.run_trace(trace)
        epochs = len(reports)
        assert epochs >= 2
        assert reg.get("univmon_epochs_total").value == epochs
        assert reg.get("univmon_epoch_packets_total").value == 4000
        assert reg.get("univmon_epoch_ingest_seconds").count == epochs
        assert reg.get("univmon_app_seconds",
                       app="heavy_hitters").count == epochs
        assert reg.get("univmon_app_seconds",
                       app="cardinality").count == epochs
        # observe_sketch ran per epoch: occupancy gauges + churn counters.
        assert reg.get("univmon_level_heap_occupancy",
                       level="0") is not None
        assert reg.get("univmon_topk_offers_total", level="0").value > 0


class TestHealthTrackerMetrics:
    def test_transitions_exported_with_edge_labels(self):
        reg = MetricsRegistry()
        tracker = HealthTracker(["s1", "s2"], suspect_after=1, fail_after=2)
        with use_registry(reg):
            tracker.record_failure("s1")   # healthy -> suspect
            tracker.record_failure("s1")   # suspect -> failed
            tracker.record_success("s1")   # failed -> healthy
            tracker.record_success("s2")   # healthy stays healthy: no edge

        def edge(src, dst):
            metric = reg.get("univmon_health_transitions_total",
                             from_state=src, to_state=dst)
            return metric.value if metric is not None else 0

        assert edge("healthy", "suspect") == 1
        assert edge("suspect", "failed") == 1
        assert edge("failed", "healthy") == 1
        total = sum(m.value for m in reg.metrics()
                    if m.name == "univmon_health_transitions_total")
        assert total == 3

    def test_no_metrics_by_default(self):
        tracker = HealthTracker(["s1"])
        tracker.record_failure("s1")
        tracker.record_success("s1")  # exercises the null-registry path
