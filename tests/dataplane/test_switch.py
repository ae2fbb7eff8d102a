"""Tests for the monitored switch and its program management."""

import pytest

from repro.errors import ConfigurationError
from repro.dataplane.keys import src_ip_key
from repro.dataplane.switch import MonitoredSwitch
from repro.sketches.countmin import CountMinSketch
from repro.sketches.exact import ExactCounter
from repro.core.universal import UniversalSketch


def cm_factory():
    return CountMinSketch(rows=3, width=128, seed=1)


class TestPrograms:
    def test_attach_and_lookup(self):
        sw = MonitoredSwitch("s1")
        prog = sw.attach("cm", cm_factory, src_ip_key)
        assert sw.program("cm") is prog
        assert sw.programs() == [prog]

    def test_duplicate_name_rejected(self):
        sw = MonitoredSwitch()
        sw.attach("cm", cm_factory, src_ip_key)
        with pytest.raises(ConfigurationError):
            sw.attach("cm", cm_factory, src_ip_key)

    def test_unknown_program_rejected(self):
        sw = MonitoredSwitch()
        with pytest.raises(ConfigurationError):
            sw.program("nope")
        with pytest.raises(ConfigurationError):
            sw.detach("nope")

    def test_detach(self):
        sw = MonitoredSwitch()
        sw.attach("cm", cm_factory, src_ip_key)
        sw.detach("cm")
        assert sw.programs() == []


class TestProcessing:
    def test_bulk_counts_packets(self, tiny_trace):
        sw = MonitoredSwitch()
        sw.attach("cm", cm_factory, src_ip_key)
        sw.process_trace(tiny_trace)
        assert sw.packets_seen == len(tiny_trace)
        assert sw.program("cm").packets_processed == len(tiny_trace)

    def test_bulk_and_scalar_agree(self, tiny_trace):
        bulk = MonitoredSwitch()
        bulk.attach("cm", cm_factory, src_ip_key)
        bulk.process_trace(tiny_trace)
        scalar = MonitoredSwitch()
        scalar.attach("cm", cm_factory, src_ip_key)
        for packet in tiny_trace:
            scalar.process_packet(packet)
        import numpy as np
        assert np.array_equal(bulk.program("cm").sketch.table,
                              scalar.program("cm").sketch.table)

    def test_sketch_without_bulk_path_supported(self, tiny_trace):
        sw = MonitoredSwitch()
        sw.attach("exact", ExactCounter, src_ip_key)
        sw.process_trace(tiny_trace)
        assert sw.program("exact").sketch.total() == len(tiny_trace)

    def test_empty_trace_noop(self):
        from repro.dataplane.trace import Trace
        sw = MonitoredSwitch()
        sw.attach("cm", cm_factory, src_ip_key)
        sw.process_trace(Trace.empty())
        assert sw.packets_seen == 0

    def test_multiple_programs_all_fed(self, tiny_trace):
        sw = MonitoredSwitch()
        sw.attach("a", cm_factory, src_ip_key)
        sw.attach("b", lambda: UniversalSketch(levels=4, rows=3, width=64,
                                               heap_size=8, seed=2),
                  src_ip_key)
        sw.process_trace(tiny_trace)
        assert sw.program("a").packets_processed == len(tiny_trace)
        assert sw.program("b").packets_processed == len(tiny_trace)


class TestPolling:
    def test_poll_returns_sealed_and_resets(self, tiny_trace):
        sw = MonitoredSwitch()
        sw.attach("cm", cm_factory, src_ip_key)
        sw.process_trace(tiny_trace)
        sealed = sw.poll("cm")
        assert sealed.l1_estimate() == len(tiny_trace)
        assert sw.program("cm").sketch.l1_estimate() == 0  # fresh epoch

    def test_poll_all(self, tiny_trace):
        sw = MonitoredSwitch()
        sw.attach("a", cm_factory, src_ip_key)
        sw.attach("b", cm_factory, src_ip_key)
        sw.process_trace(tiny_trace)
        sealed = sw.poll_all()
        assert set(sealed) == {"a", "b"}


class TestAccounting:
    def test_memory_sums_programs(self):
        sw = MonitoredSwitch()
        sw.attach("a", cm_factory, src_ip_key)
        sw.attach("b", cm_factory, src_ip_key)
        assert sw.memory_bytes() == 2 * cm_factory().memory_bytes()

    def test_cost_accumulates_per_packet(self, tiny_trace):
        sw = MonitoredSwitch()
        sw.attach("cm", cm_factory, src_ip_key)
        sw.process_trace(tiny_trace)
        cost = sw.total_cost()
        per = cm_factory().update_cost()
        assert cost.hashes == per.hashes * len(tiny_trace)
        assert cost.counter_updates == per.counter_updates * len(tiny_trace)


class TestByteWeightedPrograms:
    def test_bulk_weights_by_packet_size(self, tiny_trace):
        import numpy as np
        sw = MonitoredSwitch()
        sw.attach("bytes", cm_factory, src_ip_key, by_bytes=True)
        sw.process_trace(tiny_trace)
        total_bytes = int(tiny_trace.size.astype(np.int64).sum())
        assert sw.program("bytes").sketch.l1_estimate() == total_bytes

    def test_scalar_weights_by_packet_size(self, tiny_trace):
        import numpy as np
        sw = MonitoredSwitch()
        sw.attach("bytes", cm_factory, src_ip_key, by_bytes=True)
        for packet in tiny_trace:
            sw.process_packet(packet)
        total_bytes = int(tiny_trace.size.astype(np.int64).sum())
        assert sw.program("bytes").sketch.l1_estimate() == total_bytes

    def test_byte_and_packet_programs_differ(self, tiny_trace):
        sw = MonitoredSwitch()
        sw.attach("pkts", cm_factory, src_ip_key)
        sw.attach("bytes", cm_factory, src_ip_key, by_bytes=True)
        sw.process_trace(tiny_trace)
        assert sw.program("bytes").sketch.l1_estimate() > \
            sw.program("pkts").sketch.l1_estimate()

    def test_byte_weighted_universal_sketch_heavy_hitters(self, small_trace):
        import numpy as np
        from repro.eval.groundtruth import GroundTruth
        sw = MonitoredSwitch()
        sw.attach("univmon",
                  lambda: UniversalSketch(levels=6, rows=5, width=2048,
                                          heap_size=64, seed=4),
                  src_ip_key, by_bytes=True)
        sw.process_trace(small_trace)
        sketch = sw.poll("univmon")
        # Ground truth by bytes.
        from repro.sketches.exact import ExactCounter
        exact = ExactCounter()
        exact.update_array(small_trace.key_array(src_ip_key),
                           small_trace.size.astype(np.int64))
        true_hh = {k for k, _ in exact.heavy_hitters(0.01)}
        reported = {k for k, _ in sketch.heavy_hitters(0.01)}
        missed = len(true_hh - reported)
        assert missed <= max(1, len(true_hh) // 4)
