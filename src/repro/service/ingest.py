"""The service's ingest thread: chunked ingest, wall-clock sealing.

Ingest must never stall on serving.  The loop below owns the data path
end to end — pull a chunk from the source, feed it through the
controller's switch, and on the epoch timer seal + hand the epoch to
the publication callback — and it shares *nothing* mutable with the
HTTP side: the callback publishes an immutable record into the ring and
schedules event fan-out onto the asyncio loop, after which this thread
is back to ingesting.  The serving side can be saturated, slow, or
absent; the only ingest-side cost of serving is CPU the OS scheduler
gives to the other thread (measured by ``bench_service.py``; budget
<= 10%).  The loop holds no packets: each chunk is dropped after its
``ingest`` call, and a seal is the same ``seal_epoch`` call the batch
loop makes.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Optional

from repro.errors import ConfigurationError
from repro.obs.metrics import get_registry
from repro.controlplane.controller import seal_stage
from repro.dataplane.trace import Trace

#: on_epoch callback: (sealed_sketch, EpochReport) -> None
EpochCallback = Callable[[object, object], None]


class IngestLoop(threading.Thread):
    """Background thread running the epoch loop over a chunk source.

    Parameters
    ----------
    controller:
        A :class:`~repro.controlplane.controller.Controller`; the loop
        calls its decomposed epoch-loop API (``ingest`` per chunk,
        ``seal_epoch`` on the timer).
    chunks:
        Iterable of :class:`Trace` chunks — typically a
        :class:`~repro.dataplane.replay.LoopingChunkSource` (endless)
        or a finite list in tests.  A finite source seals its last
        partial epoch on exhaustion, then the loop exits.
    epoch_seconds:
        Wall-clock sealing interval.
    on_epoch:
        Called *from this thread* with ``(sealed, report)``
        after each seal; must be fast and non-blocking (the service
        publishes a ring record and schedules fan-out).
    max_epochs:
        Stop after this many sealed epochs (None = run until
        :meth:`stop`).  Bounded runs are what the CLI's ``--epochs``
        and the tests use.
    chunk_sleep:
        Optional pacing sleep between chunks (demo mode; 0 = ingest at
        maximum rate).
    """

    def __init__(self, controller, chunks: Iterable[Trace],
                 epoch_seconds: float,
                 on_epoch: EpochCallback,
                 max_epochs: Optional[int] = None,
                 chunk_sleep: float = 0.0,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if epoch_seconds <= 0:
            raise ConfigurationError(
                f"epoch_seconds must be > 0, got {epoch_seconds}")
        if max_epochs is not None and max_epochs < 1:
            raise ConfigurationError(
                f"max_epochs must be >= 1, got {max_epochs}")
        super().__init__(name="univmon-ingest", daemon=True)
        self.controller = controller
        self.chunks = chunks
        self.epoch_seconds = epoch_seconds
        self.on_epoch = on_epoch
        self.max_epochs = max_epochs
        self.chunk_sleep = chunk_sleep
        self._clock = clock
        self._sleep = sleep
        self._stop_event = threading.Event()
        self.epochs_sealed = 0
        self.packets_ingested = 0
        self.error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #

    def stop(self) -> None:
        """Request exit; the loop notices between chunks."""
        self._stop_event.set()

    @property
    def stopping(self) -> bool:
        return self._stop_event.is_set()

    def run(self) -> None:  # pragma: no branch - exercised via service
        try:
            self._run()
        except BaseException as exc:  # surfaced via Service.health()
            self.error = exc
            get_registry().counter(
                "univmon_service_ingest_errors_total",
                help="ingest loop terminations by exception").inc()

    def _run(self) -> None:
        reg = get_registry()
        deadline = self._clock() + self.epoch_seconds
        open_epoch = False      # a chunk was ingested since the last seal
        source = iter(self.chunks)
        while not self._stop_event.is_set():
            if self.max_epochs is not None \
                    and self.epochs_sealed >= self.max_epochs:
                return
            try:
                chunk = next(source)
            except StopIteration:
                break
            self.controller.ingest(chunk)
            open_epoch = True
            self.packets_ingested += len(chunk)
            if self.chunk_sleep > 0.0:
                self._sleep(self.chunk_sleep)
            if self._clock() >= deadline:
                self._seal(reg)
                open_epoch = False
                deadline = self._clock() + self.epoch_seconds
        # Finite source exhausted or stop requested: drain what's left
        # so no ingested packet goes unpublished (graceful shutdown).
        if open_epoch and (self.max_epochs is None
                           or self.epochs_sealed < self.max_epochs):
            self._seal(reg)

    def _seal(self, reg) -> None:
        with reg.span("univmon_service_seal_seconds",
                      help="epoch seal + snapshot build + publication "
                           "latency"):
            sealed, report = self.controller.seal_epoch(self.epochs_sealed)
            with seal_stage(reg, "publish"):
                self.on_epoch(sealed, report)
        self.epochs_sealed += 1
