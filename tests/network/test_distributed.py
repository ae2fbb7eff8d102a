"""Tests for distributed monitoring via sketch merging."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.dataplane.keys import src_ip_key
from repro.eval.groundtruth import GroundTruth
from repro.network.distributed import DistributedMonitor
from repro.network.topology import NetworkTopology
from repro.core.universal import UniversalSketch


def factory():
    return UniversalSketch(levels=6, rows=5, width=512, heap_size=32, seed=3)


class TestConstruction:
    def test_requires_seeded_factory(self):
        unseeded = lambda: UniversalSketch(levels=4, rows=3, width=64,  # noqa
                                           heap_size=8)
        with pytest.raises(ConfigurationError):
            DistributedMonitor(NetworkTopology.line(2),
                               sketch_factory=unseeded)

    def test_requires_switches(self):
        with pytest.raises(ConfigurationError):
            DistributedMonitor(NetworkTopology(), sketch_factory=factory)

    def test_one_sketch_per_switch(self):
        mon = DistributedMonitor(NetworkTopology.star(3),
                                 sketch_factory=factory)
        assert set(mon.sketches) == {"core", "edge0", "edge1", "edge2"}


class TestNetworkWideView:
    def test_no_double_counting(self, small_trace):
        mon = DistributedMonitor(NetworkTopology.line(4),
                                 sketch_factory=factory)
        mon.process_trace(small_trace)
        merged = mon.network_sketch()
        assert merged.total_weight == len(small_trace)

    def test_network_sketch_equals_single_switch_sketch(self, small_trace):
        """Distributing then merging must equal sketching centrally —
        the exactness that linearity buys."""
        mon = DistributedMonitor(NetworkTopology.star(3),
                                 sketch_factory=factory)
        mon.process_trace(small_trace)
        central = factory()
        central.update_array(small_trace.key_array(src_ip_key))
        merged = mon.network_sketch()
        for lc, lm in zip(central.levels, merged.levels):
            assert np.array_equal(lc.sketch.table, lm.sketch.table)

    def test_network_wide_heavy_hitters(self, small_trace):
        mon = DistributedMonitor(NetworkTopology.line(3),
                                 sketch_factory=factory)
        mon.process_trace(small_trace)
        truth = GroundTruth(small_trace, src_ip_key)
        true_keys = truth.heavy_hitter_keys(0.02)
        reported = {k for k, _ in mon.heavy_hitters(0.02)}
        assert len(true_keys - reported) <= max(1, len(true_keys) // 4)

    def test_cardinality_and_entropy_queries(self, small_trace):
        mon = DistributedMonitor(NetworkTopology.line(2),
                                 sketch_factory=factory)
        mon.process_trace(small_trace)
        true_distinct = small_trace.distinct(src_ip_key)
        assert abs(mon.cardinality() - true_distinct) / true_distinct < 0.5
        assert mon.entropy() > 0

    def test_process_at_unknown_switch(self, tiny_trace):
        mon = DistributedMonitor(NetworkTopology.line(2),
                                 sketch_factory=factory)
        with pytest.raises(ConfigurationError):
            mon.process_at("nope", tiny_trace)


class TestLoadBalance:
    def test_load_reported_per_switch(self, small_trace):
        mon = DistributedMonitor(NetworkTopology.star(4),
                                 sketch_factory=factory)
        mon.process_trace(small_trace)
        load = mon.load_per_switch()
        assert sum(load.values()) == len(small_trace)

    def test_partition_responsibility_drops_foreign_keys(self, small_trace):
        mon = DistributedMonitor(NetworkTopology.line(3),
                                 sketch_factory=factory,
                                 partition_responsibility=True)
        # Feed the WHOLE trace to every switch (transit traffic); with
        # partitioning, each key is still counted exactly once per packet.
        for switch in mon.topology.switches:
            mon.process_at(switch, small_trace)
        merged = mon.network_sketch()
        assert merged.total_weight == len(small_trace)

    def test_memory_sums_switches(self):
        mon = DistributedMonitor(NetworkTopology.line(3),
                                 sketch_factory=factory)
        assert mon.memory_bytes() == 3 * factory().memory_bytes()


class TestMergeAliasing:
    def test_single_switch_network_sketch_is_a_copy(self, tiny_trace):
        """Regression: with one switch the merged sketch used to *be*
        the live per-switch sketch, so mutating the merge result
        corrupted data-plane state."""
        monitor = DistributedMonitor(NetworkTopology.line(1),
                                     sketch_factory=factory)
        monitor.process_trace(tiny_trace)
        live = monitor.sketches[monitor.topology.switches[0]]
        before = live.total_weight
        merged = monitor.network_sketch()
        assert merged is not live
        merged.update(12345, 10_000)
        assert live.total_weight == before
        # The snapshot itself is fully functional.
        assert merged.total_weight == before + 10_000
