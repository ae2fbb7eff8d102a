"""Sharded multi-core ingest: exactness, degradation, and failure paths.

The heart of the suite is the shard/merge equivalence property: whatever
the worker count, start method or slab size, the worker pool must seal a
sketch *serially indistinguishable* from one ``update_array`` over the
same stream — linearity makes the partition exact, so anything less is
a bug, not noise.  The pool is driven both directly
(``ShardWorkerPool.run_epoch``) and through its one production caller,
``MonitoredSwitch.process_trace(workers=k)``.  The failure-path tests
pin the exact-or-nothing contract: a dead, erroring, stalled, silently
exiting or packet-dropping worker raises ShardFailureError instead of
hanging or silently merging partial shards, and the epoch after it runs
exact on a fresh worker generation.

Crash/stall tests monkeypatch module internals and therefore run under
the fork start method (spawn re-imports the module in the child and
would shed the patch); the equivalence and persistence tests also run
under spawn.
"""

import os
import time

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShardFailureError
from repro.obs import MetricsRegistry, use_registry
from repro.core import serialization
from repro.core.universal import UniversalSketch
from repro.dataplane import parallel
from repro.dataplane.keys import src_ip_key
from repro.dataplane.parallel import ShardWorkerPool, shared_memory_available
from repro.dataplane.switch import MonitoredSwitch
from repro.dataplane.trace import Trace
from repro.sketches.countsketch import CountSketch


def small_sketch(seed=42, levels=4):
    """Geometry where every level's distinct keys fit in the heap, so
    serial and merged heaps must agree bit-for-bit."""
    return UniversalSketch(levels=levels, rows=3, width=128, heap_size=128,
                           seed=seed)


def stream(seed=0, packets=4000, flows=110, weighted=False):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, flows, size=packets).astype(np.uint64)
    weights = rng.integers(1, 40, size=packets) if weighted else None
    return keys, weights


def serial(sketch, keys, weights=None):
    """``sketch`` after one serial ``update_array`` — what
    ``process_trace(workers=1)`` runs."""
    sketch.update_array(keys, weights)
    return sketch


def same_bytes(a, b):
    return serialization.dumps(a) == serialization.dumps(b)


def assert_counters_identical(a: UniversalSketch, b: UniversalSketch):
    assert a.packets == b.packets
    assert a.total_weight == b.total_weight
    for la, lb in zip(a.levels, b.levels):
        assert np.array_equal(la.sketch.table, lb.sketch.table)
        assert la.packets == lb.packets
        assert la.weight == lb.weight


def fork_pool(workers=2, timeout=60.0, **kwargs):
    return ShardWorkerPool(workers=workers, start_method="fork",
                           timeout=timeout, **kwargs)


def switch_with(factory, pool=None):
    """A one-program switch; ``pool`` pre-seeds the switch's worker pool
    (it is reused while the requested worker count matches)."""
    sw = MonitoredSwitch()
    sw.attach("univmon", factory, src_ip_key, by_bytes=True)
    sw._shard_pool = pool
    return sw


def assert_recovers(pool, seed=0):
    """The next epoch on ``pool`` rides a fresh worker generation and is
    exact again."""
    keys, weights = stream(seed=seed, weighted=True)
    assert same_bytes(pool.run_epoch(small_sketch(), keys, weights),
                      serial(small_sketch(), keys, weights))


needs_shm = pytest.mark.skipif(not shared_memory_available(),
                               reason="platform lacks shared memory")


# --------------------------------------------------------------------- #
# shard/merge equivalence (the property the whole design rests on)
# --------------------------------------------------------------------- #

@needs_shm
class TestEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_serialized_equal_to_serial_ingest(self, workers, seed):
        """Random seeds and weights, k in {1,2,4}: byte-equal sketches."""
        keys, weights = stream(seed=seed, weighted=bool(seed % 2))
        with fork_pool(workers) as pool:
            merged = pool.run_epoch(small_sketch(seed + 11), keys, weights)
        assert same_bytes(merged, serial(small_sketch(seed + 11), keys,
                                         weights))

    @pytest.mark.parametrize("slab_packets", [1 << 18, 64],
                             ids=["one_slab", "many_slabs"])
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_process_trace_matches_serial(self, tiny_trace, start_method,
                                          workers, slab_packets):
        """The switch path under both start methods, with the trace in
        one slab batch and in many: counters, packets and weights equal
        ``workers=1``, and so do the full bytes (every level's heap
        holds all of the trace's distinct keys)."""
        serial_sw = switch_with(small_sketch)
        serial_sw.process_trace(tiny_trace, workers=1)
        pool = ShardWorkerPool(workers=workers, start_method=start_method,
                               slab_packets=slab_packets, timeout=120.0)
        with switch_with(small_sketch, pool) as sw:
            sw.process_trace(tiny_trace, workers=workers)
            assert sw._shard_pool is pool
        sharded = sw.poll("univmon")
        expected = serial_sw.poll("univmon")
        assert_counters_identical(sharded, expected)
        assert same_bytes(sharded, expected)

    def test_level_counters_bit_identical_general_workload(
            self, zipf_keys_factory):
        """Heavy-tailed stream with far more flows than heap slots, fed
        in many slab batches: the *counters* must still match exactly."""
        keys = zipf_keys_factory(packets=20_000, flows=4_000, seed=5)

        def factory():
            return UniversalSketch(levels=6, rows=3, width=512,
                                   heap_size=16, seed=9)

        with fork_pool(4, slab_packets=1024) as pool:
            merged = pool.run_epoch(factory(), keys)
        assert_counters_identical(merged, serial(factory(), keys))

    def test_spawn_start_method(self):
        """The spawn path (worker rebuilt from pickled geometry, no
        inherited state) produces the same bytes."""
        keys, weights = stream(seed=3, weighted=True)
        with ShardWorkerPool(workers=2, start_method="spawn",
                             timeout=120.0) as pool:
            merged = pool.run_epoch(small_sketch(21), keys, weights)
        assert same_bytes(merged, serial(small_sketch(21), keys, weights))

    def test_more_workers_than_keys(self):
        """Empty slices are legal and contribute empty sketches."""
        keys = np.array([5, 6, 7], dtype=np.uint64)
        with use_registry(MetricsRegistry()) as reg:
            with fork_pool(4) as pool:
                merged = pool.run_epoch(small_sketch(), keys)
            assert sum(
                reg.get("univmon_shard_packets_total", shard=str(i)).value
                for i in range(4)) == 3
        assert_counters_identical(merged, serial(small_sketch(), keys))


# --------------------------------------------------------------------- #
# graceful degradation
# --------------------------------------------------------------------- #

class TestDegradation:
    def test_workers_1_runs_in_process(self, tiny_trace):
        with use_registry(MetricsRegistry()) as reg:
            sw = switch_with(small_sketch)
            sw.process_trace(tiny_trace, workers=1)
            assert sw._shard_pool is None
            assert reg.get("univmon_shard_runs_total") is None
        assert sw.program("univmon").packets_processed == len(tiny_trace)

    @needs_shm
    def test_empty_stream(self):
        """An empty epoch seals empty shards: the result equals the
        input sketch (as a copy); an empty trace never starts a pool."""
        keys, _ = stream(packets=300)
        before = serial(small_sketch(), keys)
        with fork_pool() as pool:
            merged = pool.run_epoch(before, np.array([], dtype=np.uint64))
        assert merged is not before
        assert same_bytes(merged, before)
        sw = switch_with(small_sketch)
        sw.process_trace(Trace.empty(), workers=4)
        assert sw._shard_pool is None

    def test_missing_shared_memory_falls_back(self, monkeypatch,
                                              tiny_trace):
        """Without shared memory the switch ingests serially, counts the
        fallback, and seals the serial counters."""
        monkeypatch.setattr(parallel, "_SHM_AVAILABLE", False)
        expected = switch_with(small_sketch)
        expected.process_trace(tiny_trace, workers=1)
        with use_registry(MetricsRegistry()) as reg:
            sw = switch_with(small_sketch)
            sw.process_trace(tiny_trace, workers=4)
            assert reg.get("univmon_shard_fallbacks_total",
                           reason="no shared memory").value == 1
        assert sw._shard_pool is None
        assert_counters_identical(sw.poll("univmon"),
                                  expected.poll("univmon"))

    def test_workers_1_needs_no_seed(self, tiny_trace):
        sw = MonitoredSwitch()
        program = sw.attach(
            "unseeded", lambda: UniversalSketch(levels=2, rows=3, width=64,
                                                heap_size=16),
            src_ip_key)
        sw.process_trace(tiny_trace, workers=1)
        assert program.sketch.packets == len(tiny_trace)


# --------------------------------------------------------------------- #
# failure paths: exact-or-nothing, never a hang, then a clean restart
# --------------------------------------------------------------------- #

@needs_shm
class TestFailures:
    def test_dead_worker_raises_typed_error(self, monkeypatch):
        def die(result_queue, *args, **kwargs):
            os._exit(23)

        keys, _ = stream()
        pool = fork_pool(timeout=30.0)
        with monkeypatch.context() as patch:
            patch.setattr(parallel, "_worker_entry", die)
            with pytest.raises(ShardFailureError, match="exit code"):
                pool.run_epoch(small_sketch(), keys)
        with pool:  # starts a fresh, unpatched generation
            assert_recovers(pool)

    def test_worker_exception_surfaces_with_message(self, monkeypatch):
        def boom(sketch, keys, weights, shard, workers):
            raise RuntimeError("sketch exploded on shard duty")

        keys, _ = stream()
        pool = fork_pool(timeout=30.0)
        with monkeypatch.context() as patch:
            patch.setattr(parallel, "_fold_slice", boom)
            with pytest.raises(ShardFailureError,
                               match="sketch exploded on shard duty"):
                pool.run_epoch(small_sketch(), keys)
        with pool:  # starts a fresh, unpatched generation
            assert_recovers(pool)

    def test_stalled_worker_times_out(self, monkeypatch):
        real = parallel._fold_slice

        def stall(sketch, keys, weights, shard, workers):
            if shard == 1:
                time.sleep(60)
            real(sketch, keys, weights, shard, workers)

        keys, _ = stream()
        pool = fork_pool(timeout=1.0)
        with monkeypatch.context() as patch:
            patch.setattr(parallel, "_fold_slice", stall)
            t0 = time.monotonic()
            with pytest.raises(ShardFailureError, match="no result"):
                pool.run_epoch(small_sketch(), keys)
            assert time.monotonic() - t0 < 20  # error, not a hang
        with pool:  # starts a fresh, unpatched generation
            assert_recovers(pool)

    def test_dropped_packets_rejected(self, monkeypatch):
        real = parallel._fold_slice

        def lossy(sketch, keys, weights, shard, workers):
            if shard == 0:
                keys = keys[:-7]
            real(sketch, keys, weights, shard, workers)

        keys, _ = stream()
        pool = fork_pool(timeout=30.0)
        with monkeypatch.context() as patch:
            patch.setattr(parallel, "_fold_slice", lossy)
            with pytest.raises(ShardFailureError, match="dropped"):
                pool.run_epoch(small_sketch(), keys)
        with pool:  # starts a fresh, unpatched generation
            assert_recovers(pool)

    def test_silent_exit_zero_worker_fails_fast(self, monkeypatch):
        """Regression: a worker that exits *cleanly* without posting a
        result (``os._exit(0)`` in user code, a lost queue feeder) must
        fail as fast as a crash — not stall out the full timeout."""
        def vanish(task_queue, *args, **kwargs):
            os._exit(0)

        keys, _ = stream()
        pool = fork_pool(timeout=300.0)
        with monkeypatch.context() as patch:
            patch.setattr(parallel, "_worker_entry", vanish)
            t0 = time.monotonic()
            with pytest.raises(ShardFailureError, match="exit code"):
                pool.run_epoch(small_sketch(), keys)
            assert time.monotonic() - t0 < 30  # nowhere near 300s
        with pool:  # starts a fresh, unpatched generation
            assert_recovers(pool)


# --------------------------------------------------------------------- #
# configuration validation
# --------------------------------------------------------------------- #

class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ShardWorkerPool(workers=0)

    def test_slab_packets_and_timeout(self):
        with pytest.raises(ConfigurationError):
            ShardWorkerPool(workers=2, slab_packets=0)
        with pytest.raises(ConfigurationError):
            ShardWorkerPool(workers=2, timeout=0)

    def test_seedless_sketch_rejected_for_parallel(self):
        pool = fork_pool()
        with pytest.raises(ConfigurationError, match="seed"):
            pool.run_epoch(UniversalSketch(levels=2, rows=3, width=64,
                                           heap_size=16),
                           np.arange(10, dtype=np.uint64))
        assert not pool.running

    def test_non_universal_sketch_rejected(self):
        pool = fork_pool()
        with pytest.raises(ConfigurationError, match="UniversalSketch"):
            pool.run_epoch(CountSketch(rows=3, width=64, seed=1),
                           np.arange(10, dtype=np.uint64))
        assert not pool.running

    def test_weight_length_mismatch(self):
        pool = fork_pool()
        with pytest.raises(ConfigurationError, match="one per key"):
            pool.run_epoch(small_sketch(), np.arange(10, dtype=np.uint64),
                           np.ones(9, dtype=np.int64))
        assert not pool.running

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_weights_rejected(self, bad, workers):
        """Regression: NaN/inf float weights used to be cast straight to
        int64 — platform-dependent garbage counts — instead of erroring
        like the scalar path.  The serial fold (what ``workers=1``
        runs) and the pooled one must reject them before any counter
        is touched."""
        keys = np.arange(64, dtype=np.uint64)
        weights = np.ones(64, dtype=np.float64)
        weights[13] = bad
        sketch = small_sketch()
        with pytest.raises(ConfigurationError, match="finite"):
            if workers == 1:
                sketch.update_array(keys, weights)
            else:
                fork_pool(workers).run_epoch(sketch, keys, weights)
        assert same_bytes(sketch, small_sketch())

    @needs_shm
    def test_finite_float_weights_still_accepted(self):
        keys = np.arange(64, dtype=np.uint64)
        with fork_pool() as pool:
            merged = pool.run_epoch(small_sketch(), keys, np.full(64, 2.0))
        assert merged.total_weight == 128
        assert same_bytes(merged, serial(small_sketch(), keys,
                                         np.full(64, 2.0)))


# --------------------------------------------------------------------- #
# observability
# --------------------------------------------------------------------- #

@needs_shm
class TestMetrics:
    def test_parallel_run_records_shard_metrics(self, tiny_trace):
        with use_registry(MetricsRegistry()) as reg:
            with switch_with(small_sketch) as sw:
                sw.process_trace(tiny_trace, workers=2)
            total = sum(
                reg.get("univmon_shard_packets_total", shard=str(i)).value
                for i in range(2))
            assert total == len(tiny_trace)
            for i in range(2):
                assert reg.get("univmon_shard_packets_per_second",
                               shard=str(i)).value > 0
            assert reg.get("univmon_shard_workers").value == 2
            assert reg.get("univmon_shard_runs_total").value == 1
            assert reg.get("univmon_shard_merge_seconds").count == 1
            assert reg.get("univmon_pool_epochs_total").value == 1

    def test_failure_is_counted(self, monkeypatch):
        def die(result_queue, *args, **kwargs):
            os._exit(9)

        monkeypatch.setattr(parallel, "_worker_entry", die)
        keys, _ = stream(packets=500)
        with use_registry(MetricsRegistry()) as reg:
            with pytest.raises(ShardFailureError):
                fork_pool(timeout=30.0).run_epoch(small_sketch(), keys)
            assert reg.get("univmon_shard_failures_total").value == 1

    def test_stale_shard_series_cleared_by_narrower_run(self, tiny_trace):
        """Regression: a 4-worker run used to leave shard="2"/"3" gauges
        behind; a following 2-worker run must export exactly 2 shard
        series, not scrape-corrupting leftovers."""
        def shard_labels(reg, family):
            return sorted(dict(m.labels)["shard"] for m in reg.metrics()
                          if m.name == family)

        with use_registry(MetricsRegistry()) as reg:
            with switch_with(small_sketch) as sw:
                sw.process_trace(tiny_trace, workers=4)
                assert shard_labels(reg, "univmon_shard_packets_total") == \
                    ["0", "1", "2", "3"]
                sw.process_trace(tiny_trace, workers=2)
            for family in ("univmon_shard_packets_total",
                           "univmon_shard_packets_per_second"):
                assert shard_labels(reg, family) == ["0", "1"]
            total = sum(
                reg.get("univmon_shard_packets_total", shard=str(i)).value
                for i in range(2))
            assert total == len(tiny_trace)


# --------------------------------------------------------------------- #
# pool lifecycle: persistence, slab reuse, crash recovery, clean shutdown
# --------------------------------------------------------------------- #

@needs_shm
class TestPoolLifecycle:
    def test_workers_persist_across_epochs(self, tiny_trace):
        """Three epochs through the switch ride the same worker
        generation and the same slabs — spawn cost is paid exactly
        once — and each sealed epoch equals serial ingest."""
        expected = serial(small_sketch(7), tiny_trace.key_array(src_ip_key),
                          tiny_trace.size.astype(np.int64))
        with use_registry(MetricsRegistry()) as reg:
            with switch_with(lambda: small_sketch(7)) as sw:
                pids = names = None
                for _ in range(3):
                    sw.process_trace(tiny_trace, workers=2)
                    assert same_bytes(sw.poll("univmon"), expected)
                    if pids is None:
                        pids = sw._shard_pool.worker_pids()
                        names = sw._shard_pool.slab_names()
                    else:
                        assert sw._shard_pool.worker_pids() == pids
                        assert sw._shard_pool.slab_names() == names
            assert reg.get("univmon_pool_starts_total").value == 1
            assert reg.get("univmon_pool_spawns_total").value == 2
            assert reg.get("univmon_pool_epochs_total").value == 3
            assert reg.get("univmon_pool_stops_total").value == 1
            assert reg.get("univmon_pool_workers").value == 0  # closed

    def test_multi_batch_stream_refills_the_slab(self):
        """A stream longer than the slab is fed in double-buffered
        batches through the same two blocks — and still merges to the
        exact serial bytes."""
        keys, weights = stream(seed=9, packets=4000, weighted=True)
        with use_registry(MetricsRegistry()) as reg:
            with fork_pool(slab_packets=512) as pool:
                merged = pool.run_epoch(small_sketch(3), keys, weights)
            assert same_bytes(merged, serial(small_sketch(3), keys, weights))
            assert reg.get("univmon_pool_batches_total").value == \
                -(-4000 // 512)
            assert reg.get("univmon_pool_slab_refills_total").value > 0

    def test_crash_mid_epoch_breaks_then_recovers(self):
        """A worker killed between epochs fails the next run fast, and
        the run after that rides a fresh worker generation."""
        import signal

        keys, _ = stream(seed=1)
        expected = serial(small_sketch(5), keys)
        with fork_pool() as pool:
            assert same_bytes(pool.run_epoch(small_sketch(5), keys),
                              expected)
            first_pids = pool.worker_pids()
            os.kill(first_pids[0], signal.SIGKILL)
            t0 = time.monotonic()
            with pytest.raises(ShardFailureError, match="exit code"):
                pool.run_epoch(small_sketch(5), keys)
            assert time.monotonic() - t0 < 30
            # next run restarts the pool transparently
            assert same_bytes(pool.run_epoch(small_sketch(5), keys),
                              expected)
            assert pool.worker_pids() != first_pids

    def test_spawn_pool_persists_too(self):
        """The spawn start method (no inherited state at all) reuses its
        worker generation across epochs just like fork."""
        with ShardWorkerPool(workers=2, start_method="spawn",
                             timeout=120.0) as pool:
            pids = None
            for epoch in range(2):
                keys, weights = stream(seed=epoch + 3, weighted=True)
                merged = pool.run_epoch(small_sketch(21), keys, weights)
                assert same_bytes(merged, serial(small_sketch(21), keys,
                                                 weights))
                if pids is None:
                    pids = pool.worker_pids()
                else:
                    assert pool.worker_pids() == pids

    def test_close_releases_every_shared_memory_block(self, tiny_trace):
        """Closing the switch must unlink the slabs (no leaked blocks)
        and reap every worker process."""
        from multiprocessing import shared_memory

        sw = switch_with(small_sketch)
        sw.process_trace(tiny_trace, workers=2)
        pool = sw._shard_pool
        names, procs = pool.slab_names(), list(pool._procs)
        assert len(names) == 2
        sw.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert all(proc.exitcode is not None for proc in procs)
        assert not pool.running
        assert sw._shard_pool is None

    def test_shared_pool_serves_multiple_drivers(self, tiny_trace):
        """One pool, several geometries: the pool is geometry-agnostic
        (params travel per epoch), so every program of a switch drives
        the same hot workers."""
        sw = MonitoredSwitch()
        for seed, levels in ((11, 3), (12, 4)):
            sw.attach(f"u{levels}",
                      lambda seed=seed, levels=levels: small_sketch(
                          seed, levels=levels), src_ip_key)
        keys = tiny_trace.key_array(src_ip_key)
        with sw:
            pids = None
            for _ in range(2):
                sw.process_trace(tiny_trace, workers=2)
                for seed, levels in ((11, 3), (12, 4)):
                    assert same_bytes(
                        sw.poll(f"u{levels}"),
                        serial(small_sketch(seed, levels=levels), keys))
                if pids is None:
                    pids = sw._shard_pool.worker_pids()
                else:
                    assert sw._shard_pool.worker_pids() == pids
