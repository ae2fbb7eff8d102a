"""Tests for the OpenSketch task library (the paper's baselines)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.dataplane.keys import src_ip_key
from repro.dataplane.trace import SyntheticTraceConfig, generate_trace
from repro.eval.groundtruth import GroundTruth
from repro.eval.metrics import detection_rates
from repro.opensketch.tasks import (
    ChangeDetectionTask,
    DDoSDetectionTask,
    HeavyHitterTask,
    HierarchicalHeavyHitterTask,
)


@pytest.fixture(scope="module")
def trace():
    return generate_trace(SyntheticTraceConfig(
        packets=12_000, flows=2_000, zipf_skew=1.2, duration=5.0, seed=41))


@pytest.fixture(scope="module")
def truth(trace):
    return GroundTruth(trace, src_ip_key)


class TestHeavyHitterTask:
    def test_finds_true_heavy_hitters(self, trace, truth):
        task = HeavyHitterTask(rows=3, width=4096, heap_size=64, seed=1)
        task.update_array(trace.key_array(src_ip_key))
        reported = {k for k, _ in task.heavy_hitters(0.01)}
        fp, fn = detection_rates(truth.heavy_hitter_keys(0.01), reported)
        assert fn == 0.0  # CM overestimates: misses are the rare failure
        assert fp < 0.5

    def test_scalar_and_bulk_totals_agree(self):
        a = HeavyHitterTask(rows=3, width=128, seed=2)
        b = HeavyHitterTask(rows=3, width=128, seed=2)
        keys = np.array([1, 1, 2, 5], dtype=np.uint64)
        a.update_array(keys)
        for k in keys.tolist():
            b.update(int(k))
        assert a.total == b.total == 4

    def test_bulk_heap_matches_sequential_offers(self, trace):
        """The bulk heap refresh keeps the ranks a loop of scalar offers
        in increasing-estimate order keeps (count ties at the eviction
        boundary may pick other keys of the same rank)."""
        from repro.sketches.topk import TopK
        keys = trace.key_array(src_ip_key)
        task = HeavyHitterTask(rows=3, width=256, heap_size=16, seed=3)
        task.update_array(keys)
        uniq = np.unique(keys)
        estimates = task.cm.query_many(uniq)
        loop = TopK(16)
        for i in np.argsort(estimates, kind="stable"):
            loop.offer(int(uniq[i]), float(estimates[i]))
        assert len(task.heap) == 16
        assert sorted(v for _, v in task.heap.items()) == \
            sorted(v for _, v in loop.items())

    def test_memory_includes_heap(self):
        task = HeavyHitterTask(rows=3, width=128, heap_size=16, seed=1)
        assert task.memory_bytes() == 3 * 128 * 4 + 16 * 16

    def test_update_cost_counts_query(self):
        task = HeavyHitterTask(rows=3, width=128, seed=1)
        assert task.update_cost().memory_words > 3


class TestHierarchicalHeavyHitterTask:
    def test_step_must_divide_key_bits(self):
        with pytest.raises(ConfigurationError):
            HierarchicalHeavyHitterTask(key_bits=32, step=5)

    def test_finds_elephant(self):
        task = HierarchicalHeavyHitterTask(rows=3, width=2048, seed=3)
        keys = np.concatenate([
            np.full(5000, 0xC0A80101, dtype=np.uint64),
            np.random.default_rng(0).integers(
                0, 1 << 32, size=3000).astype(np.uint64),
        ])
        task.update_array(keys)
        hh = task.heavy_hitters(0.3)
        assert [k for k, _ in hh] == [0xC0A80101]

    def test_agrees_with_truth_on_trace(self, trace, truth):
        task = HierarchicalHeavyHitterTask(rows=3, width=4096, seed=4)
        task.update_array(trace.key_array(src_ip_key))
        reported = {k for k, _ in task.heavy_hitters(0.01)}
        fp, fn = detection_rates(truth.heavy_hitter_keys(0.01), reported)
        assert fn == 0.0
        assert fp < 0.5

    def test_scalar_matches_bulk(self):
        a = HierarchicalHeavyHitterTask(rows=2, width=64, seed=5)
        b = HierarchicalHeavyHitterTask(rows=2, width=64, seed=5)
        keys = np.array([123456, 123456, 999], dtype=np.uint64)
        a.update_array(keys)
        for k in keys.tolist():
            b.update(int(k))
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la.table, lb.table)

    def test_empty_returns_nothing(self):
        task = HierarchicalHeavyHitterTask(rows=2, width=64, seed=6)
        assert task.heavy_hitters(0.1) == []

    def test_cost_scales_with_levels(self):
        task = HierarchicalHeavyHitterTask(rows=3, width=64, step=4, seed=1)
        assert task.update_cost().hashes == 3 * 8  # 8 levels for 32 bits

    def test_memory_sums_levels(self):
        task = HierarchicalHeavyHitterTask(rows=3, width=64, step=8, seed=1)
        assert task.memory_bytes() == 4 * 3 * 64 * 4


class TestChangeDetectionTask:
    def test_requires_seed(self):
        with pytest.raises(ConfigurationError):
            ChangeDetectionTask()

    def test_no_report_before_two_epochs(self):
        task = ChangeDetectionTask(rows=3, width=256, seed=7)
        task.update(1, 100)
        changes, total = task.heavy_changes(0.1, np.array([1], dtype=np.uint64))
        assert changes == [] and total == 0.0

    def test_detects_surge(self):
        task = ChangeDetectionTask(rows=5, width=1024, seed=8)
        base = np.random.default_rng(1).integers(
            0, 300, size=5000).astype(np.uint64)
        task.update_array(base)
        task.advance_epoch()
        task.update_array(np.concatenate(
            [base, np.full(3000, 999, dtype=np.uint64)]))
        candidates = np.unique(np.concatenate(
            [base, np.array([999], dtype=np.uint64)]))
        changes, total = task.heavy_changes(0.3, candidates)
        assert total >= 3000
        assert changes and changes[0][0] == 999
        assert changes[0][1] > 0

    def test_detects_disappearance_with_sign(self):
        task = ChangeDetectionTask(rows=5, width=1024, seed=9)
        task.update_array(np.full(2000, 77, dtype=np.uint64))
        task.advance_epoch()
        task.update_array(np.full(100, 77, dtype=np.uint64))
        changes, _ = task.heavy_changes(
            0.3, np.array([77], dtype=np.uint64))
        assert changes and changes[0][1] < 0

    def test_memory_doubles_once_previous_exists(self):
        task = ChangeDetectionTask(rows=3, width=128, seed=10)
        m1 = task.memory_bytes()
        task.advance_epoch()
        assert task.memory_bytes() == 2 * m1


class TestDDoSDetectionTask:
    def test_method_validated(self):
        with pytest.raises(ConfigurationError):
            DDoSDetectionTask(method="magic")

    @pytest.mark.parametrize("method", ["bitmap", "hll", "bloom"])
    def test_distinct_estimate_reasonable(self, method):
        task = DDoSDetectionTask(method=method, memory_bytes=8192, seed=11)
        task.update_array(np.arange(3000, dtype=np.uint64))
        est = task.distinct_estimate()
        assert abs(est - 3000) / 3000 < 0.15

    @pytest.mark.parametrize("method", ["bitmap", "hll", "bloom"])
    def test_duplicates_ignored(self, method):
        task = DDoSDetectionTask(method=method, memory_bytes=4096, seed=12)
        for _ in range(500):
            task.update(42)
        assert task.distinct_estimate() < 5

    def test_is_victim_threshold(self):
        task = DDoSDetectionTask(method="bitmap", memory_bytes=8192, seed=13)
        task.update_array(np.arange(2000, dtype=np.uint64))
        assert task.is_victim(1000)
        assert not task.is_victim(5000)

    def test_memory_accounted(self):
        assert DDoSDetectionTask(method="bitmap",
                                 memory_bytes=4096).memory_bytes() == 4096


class TestChangeDetectionForecast:
    def test_alpha_validated(self):
        with pytest.raises(ConfigurationError):
            ChangeDetectionTask(seed=1, forecast_alpha=0.0)
        with pytest.raises(ConfigurationError):
            ChangeDetectionTask(seed=1, forecast_alpha=1.5)

    def test_ewma_smooths_out_one_epoch_blip(self):
        """A one-epoch spike then return-to-normal: against the EWMA
        forecast, the *return* epoch shows less change than against the
        raw previous epoch (which contains the whole blip)."""
        base = np.random.default_rng(1).integers(
            0, 300, size=5000).astype(np.uint64)
        blip = np.concatenate([base, np.full(4000, 999, dtype=np.uint64)])

        def run(alpha):
            task = ChangeDetectionTask(rows=5, width=1024, seed=2,
                                       forecast_alpha=alpha)
            for epoch_keys in (base, base, blip):
                task.update_array(epoch_keys)
                task.advance_epoch()
            task.update_array(base)  # back to normal
            _, total = task.heavy_changes(
                0.3, np.array([999], dtype=np.uint64))
            return total

        # alpha=1.0 == last-epoch reference; alpha=0.3 remembers the
        # calmer history and reports a smaller "change" on recovery? No:
        # the EWMA still contains 0.3 of the blip, so LESS change than
        # diffing directly against the blip epoch.
        assert run(0.3) < run(1.0)

    def test_alpha_one_equals_previous_epoch_mode(self):
        base = np.arange(500, dtype=np.uint64)
        surged = np.concatenate([base, np.full(800, 42, dtype=np.uint64)])
        candidates = np.array([42], dtype=np.uint64)

        plain = ChangeDetectionTask(rows=3, width=512, seed=3)
        ewma = ChangeDetectionTask(rows=3, width=512, seed=3,
                                   forecast_alpha=1.0)
        for task in (plain, ewma):
            task.update_array(base)
            task.advance_epoch()
            task.update_array(surged)
        changes_plain, d_plain = plain.heavy_changes(0.3, candidates)
        changes_ewma, d_ewma = ewma.heavy_changes(0.3, candidates)
        assert d_plain == pytest.approx(d_ewma)
        assert changes_plain == changes_ewma

    def test_still_detects_genuine_surge(self):
        task = ChangeDetectionTask(rows=5, width=1024, seed=4,
                                   forecast_alpha=0.5)
        base = np.random.default_rng(5).integers(
            0, 200, size=3000).astype(np.uint64)
        for _ in range(3):
            task.update_array(base)
            task.advance_epoch()
        task.update_array(np.concatenate(
            [base, np.full(2500, 777, dtype=np.uint64)]))
        changes, total = task.heavy_changes(
            0.3, np.array([777], dtype=np.uint64))
        assert changes and changes[0][0] == 777
        assert total >= 2000
