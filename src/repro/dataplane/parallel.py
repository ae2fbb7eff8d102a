"""Sharded multi-core ingest over sketch linearity (§5).

The universal sketch is linear: equal-seed instances built over disjoint
substreams merge into exactly the sketch of the concatenated stream.
:class:`ShardWorkerPool` uses that to spread one epoch's ingest over N
worker processes, and :meth:`MonitoredSwitch.process_trace
<repro.dataplane.switch.MonitoredSwitch.process_trace>` with
``workers > 1`` is its one caller:

- The N workers are spawned **once** and persist across epochs, traces
  and sketch geometries (geometry and seed travel as plain parameters
  at the start of each epoch, so the protocol is spawn-safe).
- The stream crosses into the workers through a **double-buffered
  slab**: two shared-memory blocks sized once (keys + weights regions).
  The driver copies the next batch into one slab while the workers fold
  the other, and no key array crosses a pipe.  The slab bounds a
  worker's working set, whatever the epoch's length.
- Each worker keeps one epoch-local equal-seed
  :class:`~repro.core.universal.UniversalSketch` and folds its
  contiguous slice of every slab batch into it with one
  ``update_array`` call, the same call serial ingest makes.
- At seal every worker ships its sketch's bytes once; the driver checks
  packet conservation and returns ``sketch.merge(*shards)``, one n-ary
  merge.  Level counters, packets and weights are bit-identical to one
  serial ``update_array`` of the stream (partitioning only reorders the
  int64 additions).

Failure semantics are exact-or-nothing: a worker that dies (any exit
code — a clean ``exit(0)`` without a result is just as fatal), errors,
or stalls, and a seal whose shards miss packets, surface as a typed
:class:`~repro.errors.ShardFailureError`.  The pool tears itself down
(and restarts transparently on the next epoch), and partial shards are
never merged — that would silently undercount everything.

Observability (driver-side, through the ambient registry): the
``univmon_shard_*`` families (per-shard series are cleared every epoch
so a narrow run never exports stale shard labels from a wider one) and
the pool lifecycle: ``univmon_pool_starts_total``,
``univmon_pool_spawns_total``, ``univmon_pool_stops_total``,
``univmon_pool_workers``, ``univmon_pool_slab_bytes``,
``univmon_pool_batches_total``, ``univmon_pool_slab_refills_total``,
``univmon_pool_epochs_total``, ``univmon_pool_slab_wait_seconds`` and
``univmon_pool_seal_seconds``.
"""

from __future__ import annotations

import os
import queue as _queue
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, ShardFailureError
from repro.obs.metrics import get_registry
from repro.core.universal import UniversalSketch
from repro.sketches.base import check_batch

#: Packets per slab buffer.  Each slab holds a uint64 key region plus an
#: int64 weight region (16 bytes/packet); two slabs per pool.  256k
#: packets (8 MB/slab) is large enough that the one ack message per
#: batch per worker is noise, small enough for cramped /dev/shm mounts.
DEFAULT_SLAB_PACKETS = 1 << 18

_SHM_AVAILABLE: Optional[bool] = None


def shared_memory_available() -> bool:
    """True when POSIX shared memory blocks can actually be created
    (probed once per process; e.g. containers without /dev/shm fail)."""
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        try:
            from multiprocessing import shared_memory
            block = shared_memory.SharedMemory(create=True, size=8)
        except Exception:
            _SHM_AVAILABLE = False
        else:
            block.close()
            block.unlink()
            _SHM_AVAILABLE = True
    return _SHM_AVAILABLE


def _sketch_params(sketch: UniversalSketch) -> Dict[str, int]:
    """The constructor arguments workers rebuild their sketch from
    (geometry + seed travel instead of a pickled factory, so lambdas
    work under the spawn start method too)."""
    return dict(levels=sketch.num_levels, rows=sketch.rows,
                width=sketch.width, heap_size=sketch.heap_size,
                seed=sketch.seed, counter_bytes=sketch.counter_bytes)


def _fold_slice(sketch: UniversalSketch, keys: np.ndarray,
                weights: Optional[np.ndarray], shard: int,
                workers: int) -> None:
    """Fold worker ``shard``'s contiguous slice of one slab batch into
    its epoch-local ``sketch``.

    Runs inside the worker process; ``keys``/``weights`` are views over
    the whole batch in the slab, so the slice is zero-copy.
    """
    n = len(keys)
    lo, hi = n * shard // workers, n * (shard + 1) // workers
    sketch.update_array(keys[lo:hi],
                        None if weights is None else weights[lo:hi])


def _worker_entry(task_queue, result_queue, slab_names: List[str],
                  slab_packets: int, shard: int, workers: int) -> None:
    """Pool worker main loop: attach the slabs once, then serve
    ``epoch`` / ``batch`` / ``seal`` / ``stop`` commands until shutdown.

    ``epoch`` starts an empty equal-seed sketch, each ``batch`` folds
    this worker's slice into it and acks, and ``seal`` ships the
    sketch's bytes with the time spent folding.
    """
    from multiprocessing import shared_memory

    from repro.core import serialization

    slabs = [shared_memory.SharedMemory(name=name) for name in slab_names]
    weight_offset = slab_packets * 8
    sketch = None
    seconds = 0.0
    keys = weights = None
    try:
        while True:
            command = task_queue.get()
            op = command[0]
            if op == "stop":
                break
            try:
                if op == "epoch":
                    sketch = UniversalSketch(**command[1])
                    seconds = 0.0
                elif op == "batch":
                    _, slab_index, n, has_weights, batch_id = command
                    buf = slabs[slab_index].buf
                    keys = np.ndarray((n,), dtype=np.uint64, buffer=buf)
                    weights = np.ndarray(
                        (n,), dtype=np.int64, buffer=buf,
                        offset=weight_offset) if has_weights else None
                    start = time.perf_counter()
                    try:
                        _fold_slice(sketch, keys, weights, shard, workers)
                    finally:
                        # Views into the slab must not outlive the batch:
                        # a mapped buffer with live exports cannot be
                        # released at shutdown.
                        keys = weights = None  # noqa: F841
                    seconds += time.perf_counter() - start
                    result_queue.put(("batch_done", shard, batch_id))
                elif op == "seal":
                    result_queue.put(("sealed", shard, command[1],
                                      serialization.dumps(sketch), seconds))
                    sketch = None
            except BaseException as exc:  # surfaced as ShardFailureError
                result_queue.put(("error", shard,
                                  f"{type(exc).__name__}: {exc}"))
    finally:
        keys = weights = None  # noqa: F841
        for slab in slabs:
            slab.close()


class ShardWorkerPool:
    """N persistent worker processes fed through two reusable slabs.

    The pool is the amortisation boundary: workers are spawned once and
    the slabs allocated once, then any number of epochs (and traces, and
    sketch geometries) run through them.  Within an epoch the two slabs
    double-buffer — the driver refills one while the workers fold the
    other — and :meth:`run_epoch` seals the workers' epoch-local
    sketches and merges them.

    Parameters
    ----------
    workers:
        Worker process count; defaults to ``os.cpu_count()``.
    slab_packets:
        Capacity of each slab in packets (keys + weights regions).
        Streams longer than this are fed in multiple batches.
    start_method:
        ``multiprocessing`` start method (``None`` = platform default;
        tests exercise both ``"fork"`` and ``"spawn"``).
    timeout:
        Wall-clock budget for any single wait on the workers; a shard
        still silent past it raises :class:`ShardFailureError` (never a
        hang).
    clock:
        Timer for the slab-wait histogram.

    The pool restarts transparently: any failure tears the workers and
    slabs down, and the next :meth:`run_epoch` (or explicit
    :meth:`start`) spawns a fresh generation.
    """

    def __init__(self, workers: Optional[int] = None,
                 slab_packets: int = DEFAULT_SLAB_PACKETS,
                 start_method: Optional[str] = None,
                 timeout: float = 300.0,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if slab_packets < 1:
            raise ConfigurationError(
                f"slab_packets must be >= 1, got {slab_packets}")
        if timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout}")
        self.workers = workers
        self.slab_packets = slab_packets
        self.start_method = start_method
        self.timeout = timeout
        self._clock = clock
        self._procs: List = []
        self._task_queues: List = []
        self._results = None
        self._slabs: List = []
        self._key_views: List[np.ndarray] = []
        self._weight_views: List[np.ndarray] = []
        self._slab_pending: List[set] = []
        self._slab_batch: List[Optional[int]] = []
        self._batch_seq = 0
        self._epoch_seq = 0
        self._started = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def running(self) -> bool:
        return self._started

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker generation (tests pin persistence)."""
        return [proc.pid for proc in self._procs]

    def slab_names(self) -> List[str]:
        """Shared-memory block names of the live slabs."""
        return [slab.name for slab in self._slabs]

    def start(self) -> "ShardWorkerPool":
        """Spawn the workers and allocate the slabs (idempotent)."""
        if self._started:
            return self
        if not shared_memory_available():
            raise ConfigurationError(
                "ShardWorkerPool needs POSIX shared memory")
        import multiprocessing as mp
        from multiprocessing import shared_memory

        reg = get_registry()
        ctx = mp.get_context(self.start_method)
        slab_bytes = self.slab_packets * 16  # u64 keys + i64 weights
        try:
            for _ in range(2):
                block = shared_memory.SharedMemory(create=True,
                                                   size=slab_bytes)
                self._slabs.append(block)
                self._key_views.append(np.ndarray(
                    (self.slab_packets,), dtype=np.uint64, buffer=block.buf))
                self._weight_views.append(np.ndarray(
                    (self.slab_packets,), dtype=np.int64, buffer=block.buf,
                    offset=self.slab_packets * 8))
                self._slab_pending.append(set())
                self._slab_batch.append(None)
            self._results = ctx.Queue()
            names = [block.name for block in self._slabs]
            for shard in range(self.workers):
                task_queue = ctx.SimpleQueue()
                proc = ctx.Process(
                    target=_worker_entry,
                    args=(task_queue, self._results, names,
                          self.slab_packets, shard, self.workers),
                    daemon=True)
                self._task_queues.append(task_queue)
                self._procs.append(proc)
                proc.start()
        except Exception:
            self._teardown()
            raise
        self._started = True
        reg.counter("univmon_pool_starts_total",
                    help="worker-pool generations started").inc()
        reg.counter("univmon_pool_spawns_total",
                    help="worker processes spawned over all pool "
                         "generations").inc(self.workers)
        reg.gauge("univmon_pool_workers",
                  help="live worker processes of the pool").set(self.workers)
        reg.gauge("univmon_pool_slab_bytes",
                  help="bytes of shared-memory slab the pool holds").set(
                      2 * slab_bytes)
        return self

    def close(self) -> None:
        """Stop the workers and release the slabs.

        Safe to call repeatedly; the pool may be started again
        afterwards (a fresh worker generation and fresh slabs).
        """
        if not self._started and not self._procs and not self._slabs:
            return
        for task_queue, proc in zip(self._task_queues, self._procs):
            if proc.is_alive():
                try:
                    task_queue.put(("stop",))
                except Exception:
                    pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        self._teardown()
        reg = get_registry()
        reg.counter("univmon_pool_stops_total",
                    help="worker-pool generations stopped").inc()
        reg.gauge("univmon_pool_workers",
                  help="live worker processes of the pool").set(0)
        reg.gauge("univmon_pool_slab_bytes",
                  help="bytes of shared-memory slab the pool holds").set(0)

    def _teardown(self) -> None:
        """Force-release every process and shared-memory resource."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs = []
        for task_queue in self._task_queues:
            try:
                task_queue.close()
            except Exception:
                pass
        self._task_queues = []
        if self._results is not None:
            try:
                self._results.close()
                self._results.cancel_join_thread()
            except Exception:
                pass
            self._results = None
        # Views must drop before close(): a mapped buffer with live
        # exports cannot be released.
        self._key_views = []
        self._weight_views = []
        for slab in self._slabs:
            try:
                slab.close()
                slab.unlink()
            except Exception:
                pass
        self._slabs = []
        self._slab_pending = []
        self._slab_batch = []
        self._started = False

    def __enter__(self) -> "ShardWorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC ordering varies
        try:
            self._teardown()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # the epoch pipeline
    # ------------------------------------------------------------------ #

    def run_epoch(self, sketch: UniversalSketch, keys: np.ndarray,
                  weights: Optional[np.ndarray] = None) -> UniversalSketch:
        """``sketch`` plus the stream ``keys`` (optionally ``weights``),
        folded across the pool; ``sketch`` itself is left unchanged.

        Starts one equal-seed epoch sketch per worker, dispatches the
        stream slab-batch by slab-batch (double-buffered: the next batch
        is copied in while workers fold the previous one), seals every
        worker, verifies that the shards hold every packet, and returns
        ``sketch.merge(*shards)``.

        Raises :class:`~repro.errors.ConfigurationError` for a sketch
        that is not a seeded :class:`UniversalSketch` or a malformed
        batch (see :func:`~repro.sketches.base.check_batch`), and
        :class:`~repro.errors.ShardFailureError` when any worker fails.
        """
        if not isinstance(sketch, UniversalSketch):
            raise ConfigurationError(
                "the worker pool shards UniversalSketch ingest only, got "
                f"{type(sketch).__name__}")
        if sketch.seed is None:
            raise ConfigurationError(
                "sharded ingest needs an explicit sketch seed (equal-seed "
                "shards are what makes the merge exact)")
        keys = check_batch(keys, weights)
        self.start()
        reg = get_registry()
        n = len(keys)
        epoch_id = self._epoch_seq
        self._epoch_seq += 1
        params = _sketch_params(sketch)
        try:
            for task_queue in self._task_queues:
                task_queue.put(("epoch", params))
            for lo in range(0, n, self.slab_packets):
                hi = min(n, lo + self.slab_packets)
                slab = self._acquire_slab(reg)
                m = hi - lo
                with reg.span("univmon_shard_scatter_seconds",
                              help="refilling a slab with the next batch"):
                    self._key_views[slab][:m] = keys[lo:hi]
                    if weights is not None:
                        self._weight_views[slab][:m] = weights[lo:hi]
                batch_id = self._batch_seq
                self._batch_seq += 1
                self._slab_pending[slab] = set(range(self.workers))
                self._slab_batch[slab] = batch_id
                for task_queue in self._task_queues:
                    task_queue.put(("batch", slab, m, weights is not None,
                                    batch_id))
                reg.counter("univmon_pool_batches_total",
                            help="slab batches dispatched to the pool").inc()
            sealed = self._seal(epoch_id, reg)
        except ShardFailureError:
            raise
        except Exception:
            self._teardown()
            raise
        from repro.core import serialization
        shards = [serialization.loads(sealed[i][0])
                  for i in range(self.workers)]
        total = sum(shard.packets for shard in shards)
        if total != n:
            self._fail(reg, f"shards folded {total} of {n} packets — "
                            f"the partition dropped data")
        self._record_epoch(reg, shards,
                           [sealed[i][1] for i in range(self.workers)])
        with reg.span("univmon_shard_merge_seconds",
                      help="one n-ary merge of the sealed shard sketches"):
            return sketch.merge(*shards)

    def _record_epoch(self, reg, shards: List[UniversalSketch],
                      seconds: List[float]) -> None:
        reg.counter("univmon_pool_epochs_total",
                    help="epochs sealed by the pool").inc()
        reg.counter("univmon_shard_runs_total",
                    help="completed sharded-ingest runs").inc()
        reg.gauge("univmon_shard_workers",
                  help="worker count of the last sharded-ingest run").set(
                      self.workers)
        # Per-shard series reset every run: a 2-worker run after a
        # 4-worker run must export exactly 2 shard series, not keep the
        # wider run's stale shard="2"/"3" values alive in scrapes.
        reg.clear_family("univmon_shard_packets_total")
        reg.clear_family("univmon_shard_packets_per_second")
        for index, (shard, busy) in enumerate(zip(shards, seconds)):
            rate = shard.packets / busy if busy > 0 \
                else (float("inf") if shard.packets else 0.0)
            reg.counter("univmon_shard_packets_total",
                        help="packets folded in per shard",
                        shard=str(index)).inc(shard.packets)
            reg.gauge("univmon_shard_packets_per_second",
                      help="per-shard fold rate of the last run",
                      shard=str(index)).set(rate)

    def _free_slab(self) -> Optional[int]:
        for index, pending in enumerate(self._slab_pending):
            if not pending:
                return index
        return None

    def _acquire_slab(self, reg) -> int:
        """Index of a slab with no batch in flight (waits for acks)."""
        index = self._free_slab()
        if index is None:
            deadline = time.monotonic() + self.timeout
            wait_start = self._clock()
            while index is None:
                self._pump(deadline, reg)
                index = self._free_slab()
            reg.histogram(
                "univmon_pool_slab_wait_seconds",
                help="backpressure: time the driver waited for workers "
                     "to free a slab").observe(
                         max(self._clock() - wait_start, 0.0))
        if self._slab_batch[index] is not None:
            reg.counter(
                "univmon_pool_slab_refills_total",
                help="batches that reused an already-filled slab "
                     "(steady-state double buffering)").inc()
        return index

    def _seal(self, epoch_id: int, reg) -> Dict[int, tuple]:
        """Ship ``seal`` to every worker and collect the sealed bytes."""
        for task_queue in self._task_queues:
            task_queue.put(("seal", epoch_id))
        sealed: Dict[int, tuple] = {}
        deadline = time.monotonic() + self.timeout
        with reg.span("univmon_pool_seal_seconds",
                      help="seal round-trip: flush acks, collect sealed "
                           "shard sketches"):
            while len(sealed) < self.workers:
                self._pump(deadline, reg, sealed=sealed, epoch_id=epoch_id)
        return sealed

    def _pump(self, deadline: float, reg,
              sealed: Optional[Dict[int, tuple]] = None,
              epoch_id: Optional[int] = None) -> None:
        """Process one worker message (or detect dead/stalled shards)."""
        try:
            item = self._results.get(timeout=0.2)
        except _queue.Empty:
            self._check_dead(reg, sealed)
            if time.monotonic() > deadline:
                missing = sorted(self._expecting(sealed))
                self._fail(reg, f"shard(s) {missing} produced no result "
                                f"within {self.timeout:.0f}s")
            return
        kind = item[0]
        if kind == "error":
            self._fail(reg, f"shard {item[1]} failed: {item[2]}")
        elif kind == "batch_done":
            _, shard, batch_id = item
            for index, in_flight in enumerate(self._slab_batch):
                if in_flight == batch_id:
                    self._slab_pending[index].discard(shard)
        elif kind == "sealed" and sealed is not None:
            _, shard, sealed_epoch, payload, seconds = item
            if sealed_epoch == epoch_id:
                sealed[shard] = (payload, seconds)
                # A sealed reply is the worker's last message of the
                # epoch: every batch it acked is implicitly complete.
                for pending in self._slab_pending:
                    pending.discard(shard)

    def _expecting(self, sealed: Optional[Dict[int, tuple]]) -> set:
        """Shards that still owe the driver a message."""
        owe: set = set()
        for pending in self._slab_pending:
            owe |= pending
        if sealed is not None:
            owe |= set(range(self.workers)) - set(sealed)
        return owe

    def _check_dead(self, reg, sealed: Optional[Dict[int, tuple]]) -> None:
        """Fail fast on any fully-exited worker that still owes a result.

        *Any* exit counts — a worker that exits 0 without posting (e.g.
        ``os._exit(0)`` in user code, or a lost queue feeder) would
        otherwise stall the driver for the full timeout.
        """
        owe = self._expecting(sealed)
        dead = [index for index in sorted(owe)
                if self._procs[index].exitcode is not None]
        if dead:
            codes = [self._procs[index].exitcode for index in dead]
            self._fail(reg, f"worker(s) {dead} exited with exit code(s) "
                            f"{codes} before posting a result")

    def _fail(self, reg, message: str) -> None:
        reg.counter("univmon_shard_failures_total",
                    help="sharded-ingest runs that failed").inc()
        self._teardown()
        raise ShardFailureError(message)
