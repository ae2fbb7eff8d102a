"""The always-on monitoring service: ingest thread + asyncio front end.

Composition (DESIGN.md §14):

- an :class:`~repro.service.ingest.IngestLoop` thread drives the
  controller's epoch loop over an endless chunk source and seals on a
  wall-clock timer;
- each sealed epoch becomes an immutable
  :class:`~repro.service.ring.EpochRecord` — sketch, pre-built query
  snapshot, app results, and a small pre-evaluated statistics header —
  published into the lock-free :class:`~repro.service.ring.EpochRing`
  with a single reference swap;
- an asyncio thread runs the HTTP server
  (:class:`~repro.service.http.ServiceHttp`), answering queries from
  ring records through a shared :class:`~repro.core.query.QueryMemo`
  and streaming epoch/detection events over SSE via the
  :class:`~repro.service.events.EventBroker`.

Ingest and serving share no mutable state except the ring's published
tuple and the thread-safe memo/metrics, so serving load cannot stall
ingest and ingest cannot tear a response.
"""

from __future__ import annotations

import threading
import asyncio
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.metrics import get_registry
from repro.core.query import QueryEngine, QueryMemo, Statistic
from repro.controlplane.controller import Controller
from repro.dataplane.keys import KeyFunction, src_ip_key
from repro.dataplane.replay import LoopingChunkSource
from repro.dataplane.trace import Trace
from repro.service.events import EventBroker
from repro.service.http import ServiceHttp
from repro.service.ingest import IngestLoop
from repro.service.ring import EpochRing, make_record


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the always-on service (see ``univmon serve``)."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral (tests)
    epoch_seconds: float = 1.0
    ring_depth: int = 8
    memo_size: int = 128
    event_queue_size: int = 64
    chunk_size: int = 4096
    chunk_sleep: float = 0.0           # pacing; 0 = max-rate ingest
    max_epochs: Optional[int] = None   # None = run until stop()
    #: statistics pre-evaluated at seal, embedded in epoch SSE events
    epoch_statistics: Tuple[str, ...] = ("cardinality", "entropy",
                                         "l1", "f2")

    def __post_init__(self) -> None:
        if self.epoch_seconds <= 0:
            raise ConfigurationError(
                f"epoch_seconds must be > 0, got {self.epoch_seconds}")
        if self.ring_depth < 1:
            raise ConfigurationError(
                f"ring_depth must be >= 1, got {self.ring_depth}")


class MonitoringService:
    """Own an ingest loop and an HTTP front end over one controller.

    Lifecycle: ``start()`` brings up the HTTP server (in its own
    asyncio thread) and then the ingest thread; ``stop()`` tears down
    in reverse — stop ingest, drain its final partial epoch, then close
    the server.  Use as a context manager in tests.
    """

    def __init__(self, controller: Controller,
                 chunks: Iterable[Trace],
                 config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.controller = controller
        self.ring = EpochRing(self.config.ring_depth)
        self.broker = EventBroker(self.config.event_queue_size)
        self.memo = QueryMemo(self.config.memo_size)
        self.http = ServiceHttp(self)
        self._epoch_stats = tuple(Statistic.parse(spec)
                                  for spec in self.config.epoch_statistics)
        self.ingest = IngestLoop(
            controller, chunks,
            epoch_seconds=self.config.epoch_seconds,
            on_epoch=self._on_epoch,
            max_epochs=self.config.max_epochs,
            chunk_sleep=self.config.chunk_sleep)
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._stopping = False
        self._stopped = False

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_trace(cls, trace: Trace,
                   config: Optional[ServiceConfig] = None,
                   sketch_factory=None,
                   key_function: KeyFunction = src_ip_key,
                   apps=()) -> "MonitoringService":
        """Service over a finite trace cycled forever
        (:class:`~repro.dataplane.replay.LoopingChunkSource`)."""
        config = config or ServiceConfig()
        controller = Controller(sketch_factory=sketch_factory,
                                key_function=key_function,
                                epoch_seconds=config.epoch_seconds)
        for app in apps:
            controller.register(app)
        chunks = LoopingChunkSource(trace, chunk_size=config.chunk_size)
        return cls(controller, chunks, config)

    # ------------------------------------------------------------------ #
    # the seal callback (runs on the ingest thread)
    # ------------------------------------------------------------------ #

    def _on_epoch(self, sealed, report, trace: Trace) -> None:
        # make_record builds the epoch's snapshot; the statistics
        # evaluation below then reuses it through the version-guarded
        # cache, and warms the shared memo for the first reader query.
        record = make_record(self.ingest.epochs_sealed, sealed, report)
        statistics = QueryEngine(sealed, memo=self.memo) \
            .evaluate_many(self._epoch_stats)
        record.statistics.update(statistics)
        self.ring.publish(record)
        event = {"type": "epoch"}
        event.update(record.summary())
        event["statistics"] = {k: v for k, v in statistics.items()
                               if isinstance(v, (int, float))}
        self.broker.publish_from_thread(event)
        detect = report.results.get("detect")
        if detect:
            for detection in detect.get("events", ()):
                payload = {"type": "detection",
                           "epoch": record.epoch_index}
                payload.update(detection)
                self.broker.publish_from_thread(payload)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self, server_timeout: float = 10.0) -> "MonitoringService":
        """Bring up the HTTP server, then ingest.  Returns self."""
        if self._loop_thread is not None:
            raise ConfigurationError("service already started")
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="univmon-serve", daemon=True)
        self._loop_thread.start()
        if not self._started.wait(server_timeout):
            raise ConfigurationError("HTTP server failed to start in "
                                     f"{server_timeout}s")
        if self._start_error is not None:
            self._loop_thread.join(timeout=1.0)
            raise self._start_error
        self.ingest.start()
        get_registry().gauge(
            "univmon_service_up",
            help="1 while the monitoring service is running").set(1)
        return self

    def _run_loop(self) -> None:
        asyncio.run(self._serve_main())

    async def _serve_main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        self.broker.bind(self._loop)
        try:
            server = await asyncio.start_server(
                self.http.handle, self.config.host, self.config.port)
        except OSError as exc:
            self._start_error = exc
            self._started.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        self._started.set()
        async with server:
            await self._stop_async.wait()
        # ``async with`` closed the listener; lingering handler tasks
        # (SSE streams) exit on ``self.stopping`` within their timeout
        # tick and asyncio.run cancels anything left.

    @property
    def stopping(self) -> bool:
        return self._stopping

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the ingest loop exits (bounded runs); True if it
        did within ``timeout``."""
        self.ingest.join(timeout)
        return not self.ingest.is_alive()

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: ingest first (sealing its partial epoch),
        then the HTTP loop."""
        if self._stopped:
            return
        self._stopping = True
        if self.ingest.is_alive() or self.ingest.ident is not None:
            self.ingest.stop()
            self.ingest.join(timeout)
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._stop_async.set)
            except RuntimeError:  # pragma: no cover - already closing
                pass
        if self._loop_thread is not None:
            self._loop_thread.join(timeout)
        get_registry().gauge(
            "univmon_service_up",
            help="1 while the monitoring service is running").set(0)
        self._stopped = True

    def __enter__(self) -> "MonitoringService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def health(self) -> dict:
        ingest_ok = self.ingest.error is None
        done = self.config.max_epochs is not None \
            and self.ingest.epochs_sealed >= self.config.max_epochs
        alive = self.ingest.is_alive() or done
        status = "ok" if (ingest_ok and (alive or self._stopping)) \
            else "degraded"
        out = {
            "status": status,
            "epochs_sealed": self.ingest.epochs_sealed,
            "packets_ingested": self.ingest.packets_ingested,
            "ring_epochs": len(self.ring),
            "subscribers": self.broker.subscribers,
            "ingest_alive": self.ingest.is_alive(),
        }
        if self.ingest.error is not None:
            out["error"] = repr(self.ingest.error)
        return out


__all__ = ["MonitoringService", "ServiceConfig"]
