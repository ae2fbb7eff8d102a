"""Flat network-wide collection: the one-tier tree (incl. failure injection).

Every leaf reports straight to the root (``fanout`` >= the leaf count),
which is the default shape of ``univmon coordinate``.  Traffic is
ingress-assigned over a star topology, so each packet is sketched at
exactly one simulated switch.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.controlplane.apps.cardinality import CardinalityApp
from repro.controlplane.apps.entropy import EntropyApp
from repro.controlplane.apps.heavy_hitters import HeavyHitterApp
from repro.dataplane.keys import src_ip_key
from repro.eval.groundtruth import GroundTruth
from repro.network.faults import SimLink, SimulatedSwitch
from repro.network.hierarchy import HierarchicalCoordinator
from repro.network.topology import NetworkTopology
from repro.core.universal import UniversalSketch


def factory():
    return UniversalSketch(levels=6, rows=3, width=512, heap_size=32, seed=5)


class Flat:
    """Simulated switches on a star topology under a flat tree."""

    def __init__(self):
        self.topology = NetworkTopology.star(3)
        self.switches = {name: SimulatedSwitch(name, factory)
                         for name in self.topology.switches}
        self.coordinator = HierarchicalCoordinator(
            {name: SimLink(switch) for name, switch in self.switches.items()},
            factory, fanout=len(self.switches))

    def feed(self, trace):
        shares = self.topology.ingress_assignment(trace, seed=7)
        return sum(self.switches[name].feed(share.key_array(src_ip_key))
                   for name, share in shares.items())

    def run_trace(self, trace, epoch_seconds):
        reports = []
        for epoch in trace.epochs(epoch_seconds):
            fed = self.feed(epoch)
            reports.append((fed, self.coordinator.run_epoch()))
        return reports


class _Capture:
    """A registered app that keeps the published epoch sketch."""

    name = "capture"

    def __init__(self):
        self.sketch = None

    def on_sketch(self, sketch, epoch_index):
        self.sketch = sketch
        return {}

    def reset(self):
        self.sketch = None


class TestConfiguration:
    def test_duplicate_app_rejected(self):
        coordinator = Flat().coordinator
        coordinator.register(EntropyApp())
        with pytest.raises(ConfigurationError):
            coordinator.register(EntropyApp())


class TestEpochLoop:
    def test_full_coverage_reports(self, small_trace):
        flat = Flat()
        assert flat.coordinator.plan.depth == 1
        flat.coordinator.register(CardinalityApp()).register(EntropyApp())
        reports = flat.run_trace(small_trace, 2.0)
        assert len(reports) == len(small_trace.epochs(2.0))
        for fed, report in reports:
            coverage = report["coverage"]
            assert coverage["failed"] == []
            assert coverage["coverage"] == 1.0
            assert coverage["packets_covered"] == report.packets == fed
            assert "cardinality" in report.results
            assert "entropy" in report.results

    def test_network_wide_close_to_single_controller(self, small_trace):
        """Merged multi-switch estimate ~= one central sketch's.

        Counters are bit-identical (linearity), but the merged Q_j heaps
        are rebuilt from the union of per-switch heap keys, which can
        differ slightly from a central streaming heap — so the estimates
        agree approximately, not exactly.
        """
        flat = Flat()
        flat.coordinator.register(CardinalityApp())
        (_fed, report), = flat.run_trace(small_trace, 10.0)

        central = factory()
        central.update_array(small_trace.key_array(src_ip_key))
        from repro.core.gsum import estimate_cardinality
        assert report["cardinality"]["distinct"] == \
            pytest.approx(estimate_cardinality(central), rel=0.15)

    def test_network_sketch_equals_single_switch_sketch(self, small_trace):
        """Distributing then merging must equal sketching centrally —
        the exactness that linearity buys: the published epoch's level
        counters are bit-identical to one central ``update_array``."""
        flat = Flat()
        capture = _Capture()
        flat.coordinator.register(capture)
        flat.run_trace(small_trace, 10.0)

        central = factory()
        central.update_array(small_trace.key_array(src_ip_key))
        published = capture.sketch
        assert published.packets == central.packets
        for lp, lc in zip(published.levels, central.levels):
            assert np.array_equal(lp.sketch.table, lc.sketch.table)
            assert (lp.packets, lp.weight) == (lc.packets, lc.weight)

    def test_network_wide_heavy_hitters(self, small_trace):
        flat = Flat()
        flat.coordinator.register(HeavyHitterApp(alpha=0.02))
        (_fed, report), = flat.run_trace(small_trace, 10.0)
        true_keys = GroundTruth(small_trace, src_ip_key) \
            .heavy_hitter_keys(0.02)
        reported = set(report["heavy_hitters"]["keys"])
        assert len(true_keys - reported) <= max(1, len(true_keys) // 4)

    def test_load_reported_per_switch(self, small_trace):
        """Ingress assignment sketches each packet at exactly one
        switch; the switches' load adds up to the trace."""
        flat = Flat()
        flat.feed(small_trace)
        load = {name: sw.fed_total for name, sw in flat.switches.items()}
        assert sum(load.values()) == len(small_trace)
        assert sum(1 for packets in load.values() if packets) > 1


class TestMergeAliasing:
    def test_single_survivor_merge_is_a_copy(self, tiny_trace):
        """With one surviving switch, an app that mutates the published
        sketch must not change what the next epoch publishes."""
        flat = Flat()
        for name in ("core", "edge1", "edge2"):
            flat.switches[name].kill()
        capture = _Capture()
        flat.coordinator.register(capture)
        published = []
        for _ in range(2):
            fed = flat.feed(tiny_trace)
            report = flat.coordinator.run_epoch()
            assert report["coverage"]["switches_covered"] == 1
            sketch = capture.sketch
            published.append((sketch.packets, sketch.total_weight,
                              [lvl.sketch.table.copy()
                               for lvl in sketch.levels]))
            assert sketch.total_weight == fed
            sketch.update(12345, 10_000)
        (p0, w0, tables0), (p1, w1, tables1) = published
        assert (p0, w0) == (p1, w1)
        assert all(np.array_equal(a, b) for a, b in zip(tables0, tables1))


class TestFailureInjection:
    def test_failed_switch_degrades_coverage(self, small_trace):
        flat = Flat()
        flat.coordinator.register(CardinalityApp())
        flat.switches["edge1"].kill()
        (fed, report), = flat.run_trace(small_trace, 10.0)
        coverage = report["coverage"]
        assert coverage["missing_switches"] == ["edge1"]
        assert coverage["status"] == "published_degraded"
        assert 0 < coverage["packets_covered"] == fed < len(small_trace)
        # Apps still run on the surviving traffic.
        assert report["cardinality"]["distinct"] > 0

    def test_recovery_restores_coverage(self, small_trace):
        flat = Flat()
        flat.switches["edge0"].kill()
        flat.coordinator.run_epoch()
        flat.switches["edge0"].restart()
        (fed, report), = flat.run_trace(small_trace, 10.0)
        assert fed == len(small_trace)
        assert report["coverage"]["packets_covered"] == len(small_trace)

    def test_all_switches_failed_yields_empty_epoch(self, tiny_trace):
        flat = Flat()
        flat.coordinator.register(CardinalityApp())
        for switch in flat.switches.values():
            switch.kill()
        (_fed, report), = flat.run_trace(tiny_trace, 10.0)
        assert report["coverage"]["packets_covered"] == 0
        assert report["coverage"]["switches_covered"] == 0
        assert "cardinality" not in report.results
