"""Sharded multi-core ingest over sketch linearity (§5).

The universal sketch is linear: equal-seed instances built over disjoint
substreams merge into exactly the sketch of the concatenated stream.
This module exploits that to scale :class:`BatchIngest` past one core —
and, since PR 6, to do it at a profit: the original driver spawned N
processes, allocated a fresh ``SharedMemory`` block, and pickled every
shard sketch back *per call*, which made 30k-packet runs slower than
serial ingest.  The redesign amortises all of that:

- :class:`ShardWorkerPool` — N worker processes spawned **once** that
  persist across epochs and traces.  Each worker folds its shard of
  every batch into an epoch-local equal-seed
  :class:`~repro.core.universal.UniversalSketch` via the vectorised
  ``update_array`` path and ships bytes only when the driver seals the
  epoch, so steady-state cost is pure ``update_array`` work.
- A reusable **double-buffered slab**: two shared-memory blocks sized
  once (keys + weights regions), refilled batch by batch — the driver
  copies the next batch into one slab while the workers chew the other,
  and no key array ever crosses a pipe or is reallocated per run.
- ``seal()`` ships each worker's sealed sketch bytes to the driver,
  which merges them in one n-ary merge; the level counters are
  bit-identical to serial ingest of the same stream (partitioning only
  reorders the int64 additions).

:class:`ShardedIngest` keeps its PR-4 surface (same constructor, same
``ingest_keys`` -> :class:`ShardedIngestReport`) but now lazily owns a
pool that it reuses across calls; pass ``pool=`` to share one pool
between drivers (the switch does this across programs and epochs).

Two shard policies:

- ``"range"`` (default): worker ``i`` reads the contiguous slice
  ``batch[m*i//N : m*(i+1)//N]`` straight out of the slab — zero scan,
  zero copy, best throughput;
- ``"hash"``: worker ``i`` takes the keys whose mixed hash lands in
  residue ``i`` — per-key determinism (a flow always lands on the same
  shard), the policy a keyed NIC RSS / eBPF steering stage would apply.

The driver degrades gracefully to in-process :class:`BatchIngest` when
``workers == 1``, the stream is empty, or the platform lacks POSIX
shared memory.  Failure semantics are exact-or-nothing: a worker that
dies (any exit code — a clean ``exit(0)`` without a result is just as
fatal), errors, or stalls surfaces as a typed
:class:`~repro.errors.ShardFailureError`, the pool tears itself down
(and restarts transparently on the next run), and partial shards are
never merged — that would silently undercount everything.

Observability (driver-side, through the ambient registry): the PR-4
``univmon_shard_*`` families are retained (per-shard series are cleared
at the start of every run so a narrow run never exports stale shard
labels from a wider one), plus pool lifecycle metrics:
``univmon_pool_starts_total``, ``univmon_pool_spawns_total``,
``univmon_pool_stops_total``, ``univmon_pool_workers``,
``univmon_pool_slab_bytes``, ``univmon_pool_batches_total``,
``univmon_pool_slab_refills_total``, ``univmon_pool_epochs_total``,
``univmon_pool_slab_wait_seconds`` and ``univmon_pool_seal_seconds``.
"""

from __future__ import annotations

import os
import queue as _queue
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShardFailureError
from repro.obs.metrics import get_registry
from repro.core.universal import UniversalSketch
from repro.dataplane.replay import BatchIngest, IngestReport

#: Shard policies: contiguous slices vs hash-of-key residues.
RANGE = "range"
HASH = "hash"
_POLICIES = (RANGE, HASH)

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


def shard_of(keys: np.ndarray, workers: int) -> np.ndarray:
    """The hash-policy shard of every key: ``mix64(key) % workers``.

    A raw ``key % workers`` would send sequential IP blocks to one
    shard; the splitmix64 finaliser spreads any key structure evenly
    while staying a pure (deterministic) function of the key.
    """
    x = np.asarray(keys, dtype=np.uint64).copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E9B5)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x % np.uint64(workers)).astype(np.int64)


def _range_bounds(n: int, workers: int) -> List[int]:
    return [n * i // workers for i in range(workers + 1)]


def _sketch_params(sketch: UniversalSketch) -> Dict[str, int]:
    """The constructor arguments workers rebuild their sketch from
    (geometry + seed travel instead of a pickled factory, so lambdas
    work under the spawn start method too)."""
    return dict(levels=sketch.num_levels, rows=sketch.rows,
                width=sketch.width, heap_size=sketch.heap_size,
                seed=sketch.seed, counter_bytes=sketch.counter_bytes)


def _ingest_shard(params: Dict[str, int], keys: np.ndarray,
                  weights: Optional[np.ndarray], shard: int, workers: int,
                  policy: str, chunk_size: int
                  ) -> Tuple[UniversalSketch, IngestReport]:
    """Fold shard ``shard`` of one batch into a fresh sketch.

    Runs inside the worker process; ``keys``/``weights`` are views over
    the slab (range slices stay zero-copy, hash masks copy only the
    shard's own keys).  The worker merges the returned sketch into its
    epoch-local accumulator.
    """
    if policy == HASH:
        mask = shard_of(keys, workers) == shard
        keys = keys[mask]
        weights = None if weights is None else weights[mask]
    else:
        bounds = _range_bounds(len(keys), workers)
        lo, hi = bounds[shard], bounds[shard + 1]
        keys = keys[lo:hi]
        weights = None if weights is None else weights[lo:hi]
    sketch = UniversalSketch(**params)
    report = BatchIngest(sketch, chunk_size=chunk_size).ingest_keys(
        keys, weights)
    return sketch, report


def _worker_entry(task_queue, result_queue, slab_names: List[str],
                  slab_packets: int, shard: int, workers: int) -> None:
    """Pool worker main loop: attach the slabs once, then serve
    ``batch`` / ``seal`` / ``stop`` commands until shutdown.

    The worker folds every batch's shard into an epoch-local sketch and
    ships serialized bytes only at seal time — the steady-state cost per
    batch is one ``update_array`` fold plus a tiny ack message.
    """
    from multiprocessing import shared_memory

    from repro.core import serialization

    slabs = [shared_memory.SharedMemory(name=name) for name in slab_names]
    weight_offset = slab_packets * 8
    sketch = None
    params = None
    policy = RANGE
    chunk_size = 8192
    packets = chunks = 0
    seconds = 0.0
    keys = weights = None
    try:
        while True:
            command = task_queue.get()
            op = command[0]
            if op == "stop":
                break
            try:
                if op == "batch":
                    (_, slab_index, n, has_weights, new_params,
                     new_policy, new_chunk_size, batch_id) = command
                    if new_params is not None:  # first batch of an epoch
                        params = new_params
                        policy = new_policy
                        chunk_size = new_chunk_size
                        sketch = None
                        packets = chunks = 0
                        seconds = 0.0
                    buf = slabs[slab_index].buf
                    keys = np.ndarray((n,), dtype=np.uint64, buffer=buf)
                    weights = np.ndarray(
                        (n,), dtype=np.int64, buffer=buf,
                        offset=weight_offset) if has_weights else None
                    try:
                        batch_sketch, report = _ingest_shard(
                            params, keys, weights, shard, workers, policy,
                            chunk_size)
                    finally:
                        # Views into the slab must not outlive the batch:
                        # a mapped buffer with live exports cannot be
                        # released at shutdown.
                        keys = weights = None  # noqa: F841
                    sketch = batch_sketch if sketch is None \
                        else sketch.merge(batch_sketch)
                    packets += report.packets
                    chunks += report.chunks
                    seconds += report.seconds
                    result_queue.put(("batch_done", shard, batch_id,
                                      report.packets))
                elif op == "seal":
                    epoch_id = command[1]
                    if sketch is None and params is not None:
                        sketch = UniversalSketch(**params)
                    payload = b"" if sketch is None \
                        else serialization.dumps(sketch)
                    result_queue.put(("sealed", shard, epoch_id, payload,
                                      packets, chunks, seconds))
                    sketch = None
                    params = None
                    packets = chunks = 0
                    seconds = 0.0
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
    the slabs allocated once, then any number of epochs (and traces) run
    through them.  Within an epoch the two slabs double-buffer — the
    driver refills one while the workers chew the other — and
    :meth:`run_epoch` seals the workers' epoch-local sketches and merges
    the results.

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

    def run_epoch(self, params: Dict[str, int], keys: np.ndarray,
                  weights: Optional[np.ndarray] = None,
                  policy: str = RANGE, chunk_size: int = 8192
                  ) -> Tuple[UniversalSketch, Tuple[IngestReport, ...],
                             float]:
        """Feed one epoch's key stream through the pool and seal it.

        Dispatches the stream slab-batch by slab-batch (double-buffered:
        the next batch is copied in while workers chew the previous
        one), seals every worker's epoch-local sketch, verifies packet
        conservation, and merges the sealed shard sketches in one call.
        Returns ``(merged sketch, per-shard reports,
        merge_seconds)``.
        """
        if policy not in _POLICIES:
            raise ConfigurationError(
                f"unknown shard policy {policy!r} (want one of {_POLICIES})")
        self.start()
        reg = get_registry()
        n = len(keys)
        epoch_id = self._epoch_seq
        self._epoch_seq += 1
        first = True
        try:
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
                message = ("batch", slab, m, weights is not None,
                           params if first else None,
                           policy if first else None,
                           chunk_size if first else None, batch_id)
                first = False
                self._slab_pending[slab] = set(range(self.workers))
                self._slab_batch[slab] = batch_id
                for task_queue in self._task_queues:
                    task_queue.put(message)
                reg.counter("univmon_pool_batches_total",
                            help="slab batches dispatched to the pool").inc()
            sealed = self._seal(epoch_id, reg)
        except ShardFailureError:
            raise
        except Exception:
            self._teardown()
            raise
        total = sum(sealed[i][1] for i in range(self.workers))
        if total != n:
            self._fail(reg, f"shards processed {total} of {n} packets — "
                            f"the {policy} partition dropped data")
        shards = tuple(IngestReport(packets=sealed[i][1],
                                    chunks=sealed[i][2],
                                    seconds=sealed[i][3])
                       for i in range(self.workers))
        from repro.core import serialization
        merge_start = self._clock()
        with reg.span("univmon_shard_merge_seconds",
                      help="one n-ary merge of the sealed shard sketches"):
            first, *rest = (serialization.loads(sealed[i][0])
                            for i in range(self.workers))
            merged = first.merge(*rest)
        merge_seconds = self._clock() - merge_start
        reg.counter("univmon_pool_epochs_total",
                    help="epochs sealed by the pool").inc()
        return merged, shards, merge_seconds

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
            _, shard, batch_id, _packets = item
            for index, in_flight in enumerate(self._slab_batch):
                if in_flight == batch_id:
                    self._slab_pending[index].discard(shard)
        elif kind == "sealed" and sealed is not None:
            _, shard, sealed_epoch, payload, packets, chunks, seconds = item
            if sealed_epoch == epoch_id:
                sealed[shard] = (payload, packets, chunks, seconds)
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


@dataclass(frozen=True)
class ShardedIngestReport:
    """Outcome of one :meth:`ShardedIngest.ingest_keys` run."""

    sketch: UniversalSketch
    packets: int
    workers: int
    policy: str
    parallel: bool
    seconds: float
    merge_seconds: float
    shards: Tuple[IngestReport, ...]
    fallback_reason: Optional[str] = None

    @property
    def packets_per_second(self) -> float:
        if self.seconds <= 0:
            return float("inf") if self.packets else 0.0
        return self.packets / self.seconds


class ShardedIngest:
    """Split a key stream across pooled worker processes and merge.

    Parameters
    ----------
    sketch_factory:
        Produces the per-shard :class:`UniversalSketch`.  Called once in
        the driver to read off geometry + seed (workers rebuild from
        those, so the factory itself never crosses a process boundary);
        an explicit seed is required whenever ``workers > 1`` — seedless
        shards could not merge.
    workers:
        Shard count; defaults to ``os.cpu_count()`` (or the shared
        pool's worker count).  ``workers == 1`` runs in-process through
        :class:`BatchIngest`.
    policy:
        ``"range"`` (contiguous slices, default) or ``"hash"``
        (per-key residue sharding); both partitions are exact by
        linearity, the choice only moves scan cost vs flow affinity.
    chunk_size:
        Per-worker :class:`BatchIngest` chunk size.
    start_method:
        ``multiprocessing`` start method (``None`` = platform default;
        tests exercise both ``"fork"`` and ``"spawn"``).
    timeout:
        Wall-clock budget for any single wait on the workers; a shard
        still missing past it raises :class:`ShardFailureError` (never a
        hang).
    pool:
        A shared :class:`ShardWorkerPool` to run on.  When omitted the
        driver lazily starts its own pool on the first parallel run and
        keeps it hot across calls — close the driver (or let it be
        garbage collected) to release the workers and slabs.
    slab_packets:
        Slab capacity for an owned pool (ignored with ``pool=``).
    """

    def __init__(self, sketch_factory: Callable[[], UniversalSketch],
                 workers: Optional[int] = None, policy: str = RANGE,
                 chunk_size: int = 8192,
                 start_method: Optional[str] = None,
                 timeout: float = 300.0,
                 clock: Callable[[], float] = time.perf_counter,
                 pool: Optional[ShardWorkerPool] = None,
                 slab_packets: int = DEFAULT_SLAB_PACKETS) -> None:
        if workers is None:
            workers = pool.workers if pool is not None \
                else (os.cpu_count() or 1)
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if policy not in _POLICIES:
            raise ConfigurationError(
                f"unknown shard policy {policy!r} (want one of {_POLICIES})")
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}")
        if timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout}")
        if pool is not None and pool.workers != workers:
            raise ConfigurationError(
                f"shared pool runs {pool.workers} workers, driver wants "
                f"{workers}")
        self.sketch_factory = sketch_factory
        self.workers = workers
        self.policy = policy
        self.chunk_size = chunk_size
        self.start_method = start_method
        self.timeout = timeout
        self.slab_packets = slab_packets
        self._clock = clock
        self._pool = pool
        self._owns_pool = pool is None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    @classmethod
    def like(cls, sketch: UniversalSketch, **kwargs) -> "ShardedIngest":
        """A driver whose shards share ``sketch``'s geometry and seed —
        the result merges exactly into (or replaces) ``sketch``."""
        if not isinstance(sketch, UniversalSketch):
            raise ConfigurationError(
                "ShardedIngest.like needs a UniversalSketch template, got "
                f"{type(sketch).__name__}")
        params = _sketch_params(sketch)
        return cls(lambda: UniversalSketch(**params), **kwargs)

    @property
    def pool(self) -> Optional[ShardWorkerPool]:
        """The pool this driver runs on (None until the first parallel
        run of an owned-pool driver)."""
        return self._pool

    def close(self) -> None:
        """Release an owned pool (workers + slabs); shared pools are the
        owner's to close.  The driver stays usable — the next parallel
        run starts a fresh pool."""
        if self._owns_pool and self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ShardedIngest":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC ordering varies
        try:
            self.close()
        except Exception:
            pass

    def ingest_keys(self, keys: np.ndarray,
                    weights: Optional[np.ndarray] = None
                    ) -> ShardedIngestReport:
        """Shard, ingest, and merge a ``uint64`` key stream."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if weights is not None:
            weights = np.asarray(weights)
            if np.issubdtype(weights.dtype, np.floating) \
                    and not np.isfinite(weights).all():
                bad = int(np.count_nonzero(~np.isfinite(weights)))
                raise ConfigurationError(
                    f"weights must be finite: {bad} NaN/inf value(s) "
                    f"cannot be counted as int64 packet weights")
            weights = np.ascontiguousarray(
                weights.astype(np.int64, copy=False))
            if len(weights) != len(keys):
                raise ConfigurationError(
                    f"weights length {len(weights)} != keys length "
                    f"{len(keys)}")
        template = self.sketch_factory()
        if not isinstance(template, UniversalSketch):
            raise ConfigurationError(
                "ShardedIngest shards UniversalSketch ingest only, got "
                f"{type(template).__name__}")
        if self.workers > 1 and template.seed is None:
            raise ConfigurationError(
                "sharded ingest needs an explicit sketch seed (equal-seed "
                "shards are what makes the merge exact)")
        reason = None
        if self.workers == 1:
            reason = "workers=1"
        elif len(keys) == 0:
            reason = "empty stream"
        elif not shared_memory_available():
            reason = "no shared memory"
        if reason is not None:
            return self._ingest_in_process(template, keys, weights, reason)
        return self._ingest_parallel(template, keys, weights)

    # ------------------------------------------------------------------ #
    # degraded path
    # ------------------------------------------------------------------ #

    def _ingest_in_process(self, sketch: UniversalSketch, keys: np.ndarray,
                           weights: Optional[np.ndarray],
                           reason: str) -> ShardedIngestReport:
        reg = get_registry()
        reg.counter("univmon_shard_fallbacks_total",
                    help="sharded-ingest runs degraded to in-process "
                         "BatchIngest", reason=reason).inc()
        report = BatchIngest(sketch, chunk_size=self.chunk_size,
                             clock=self._clock).ingest_keys(keys, weights)
        self._record_run(reg, (report,), workers=1)
        return ShardedIngestReport(
            sketch=sketch, packets=report.packets, workers=1,
            policy=self.policy, parallel=False, seconds=report.seconds,
            merge_seconds=0.0, shards=(report,), fallback_reason=reason)

    # ------------------------------------------------------------------ #
    # pooled path
    # ------------------------------------------------------------------ #

    def _ensure_pool(self) -> ShardWorkerPool:
        if self._pool is None:
            self._pool = ShardWorkerPool(
                workers=self.workers, slab_packets=self.slab_packets,
                start_method=self.start_method, timeout=self.timeout,
                clock=self._clock)
        return self._pool

    def _ingest_parallel(self, template: UniversalSketch, keys: np.ndarray,
                         weights: Optional[np.ndarray]
                         ) -> ShardedIngestReport:
        reg = get_registry()
        pool = self._ensure_pool()
        params = _sketch_params(template)
        n = len(keys)
        start = self._clock()
        merged, shards, merge_seconds = pool.run_epoch(
            params, keys, weights, policy=self.policy,
            chunk_size=self.chunk_size)
        self._record_run(reg, shards, workers=self.workers)
        return ShardedIngestReport(
            sketch=merged, packets=n, workers=self.workers,
            policy=self.policy, parallel=True,
            seconds=self._clock() - start, merge_seconds=merge_seconds,
            shards=shards)

    def _record_run(self, reg, shards: Tuple[IngestReport, ...],
                    workers: int) -> None:
        reg.counter("univmon_shard_runs_total",
                    help="completed sharded-ingest runs").inc()
        reg.gauge("univmon_shard_workers",
                  help="worker count of the last sharded-ingest run").set(
                      workers)
        # Per-shard series reset every run: a 2-worker run after a
        # 4-worker run must export exactly 2 shard series, not keep the
        # wider run's stale shard="2"/"3" values alive in scrapes.
        clear = getattr(reg, "clear_family", None)
        if clear is not None:
            clear("univmon_shard_packets_total")
            clear("univmon_shard_packets_per_second")
        for index, report in enumerate(shards):
            reg.counter("univmon_shard_packets_total",
                        help="packets folded in per shard",
                        shard=str(index)).inc(report.packets)
            reg.gauge("univmon_shard_packets_per_second",
                      help="per-shard rate of the last run",
                      shard=str(index)).set(report.packets_per_second)
