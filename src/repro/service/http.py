"""The service's asyncio HTTP/1.1 front end.

Hand-rolled on ``asyncio.start_server`` (the repo carries no HTTP
framework dependency): one short-lived connection per request
(``Connection: close``), except ``GET /events`` which stays open as a
Server-Sent-Events stream.

Request handlers are deliberately synchronous once parsed: they read an
immutable :class:`~repro.service.ring.EpochRecord` off the publication
ring (no lock) and evaluate against its cached snapshot on the event
loop.  Running the evaluation *on* the loop is what makes the query
memo collapse identical concurrent queries to one evaluation — requests
serialise through the loop, so the first computes and every concurrent
duplicate hits the memo.  Batch evaluation over a warm snapshot is
sub-millisecond at the service's geometry, far below the network cost
of the request itself.

Endpoints (reference: ``docs/service.md``):

- ``GET  /healthz``     liveness + ingest progress
- ``GET  /metrics``     Prometheus text exposition
- ``GET  /metrics.json`` JSON metrics dump
- ``POST /query``       batch statistics against a published epoch
- ``GET  /epochs``      ring contents (summaries)
- ``GET  /epochs/{n}``  one epoch: summary, statistics, app results
- ``GET  /events``      SSE stream of epoch and detection events
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.export import to_text, to_json
from repro.obs.metrics import get_registry
from repro.core.query import QueryEngine, Statistic

#: Latency histogram bounds: sub-ms memo hits to second-scale stalls.
REQUEST_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5)

_MAX_REQUEST_LINE = 8192
_MAX_HEADERS = 64
_MAX_BODY = 1 << 20

#: Statistics evaluated when a query names none.
DEFAULT_QUERY_SPECS: Tuple[str, ...] = (
    "cardinality", "entropy", "l1", "f2")

#: Spec-string -> parsed Statistic.  Statistics are frozen, so parsed
#: instances are shared across requests; pollers re-send the same few
#: specs forever.  Bounded crudely — a wipe just re-parses.
_STAT_CACHE: Dict[str, Statistic] = {}
_STAT_CACHE_MAX = 512


def _parse_stat(spec: str) -> Statistic:
    stat = _STAT_CACHE.get(spec)
    if stat is None:
        stat = Statistic.parse(spec)
        if len(_STAT_CACHE) >= _STAT_CACHE_MAX:
            _STAT_CACHE.clear()
        _STAT_CACHE[spec] = stat
    return stat


class HttpError(Exception):
    """A response-able request failure."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


def _head(status: int, content_type: str,
          length: Optional[int] = None) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
             f"Content-Type: {content_type}",
             "Connection: close"]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


class ServiceHttp:
    """Routes requests against a :class:`MonitoringService`'s state."""

    def __init__(self, service) -> None:
        self.service = service
        # (registry id, route, status) -> (registry, counter, histogram)
        # so the per-request accounting is two cached attribute pokes
        # instead of two registry get-or-creates; the registry is kept
        # in the value to guard against id() reuse across registries.
        self._metric_cache: Dict[Tuple[int, str, int], tuple] = {}

    def _request_metrics(self, route: str, status: int):
        reg = get_registry()
        key = (id(reg), route, status)
        cached = self._metric_cache.get(key)
        if cached is None or cached[0] is not reg:
            cached = (
                reg,
                reg.counter("univmon_service_requests_total",
                            help="HTTP requests served",
                            route=route, status=str(status)),
                reg.histogram("univmon_service_request_seconds",
                              help="request latency by route",
                              buckets=REQUEST_SECONDS_BUCKETS,
                              route=route),
            )
            self._metric_cache[key] = cached
        return cached[1], cached[2]

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        route = "unparsed"
        status = 500
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            method, path, body = await self._read_request(reader)
            route, handler, args = self._route(method, path)
            if route == "/events":
                status = 200  # counted once in finally, when it ends
                await self._stream_events(writer)
                return
            status, payload, content_type = handler(body, *args)
            data = payload if isinstance(payload, bytes) \
                else json.dumps(payload).encode("utf-8")
            writer.write(_head(status, content_type, len(data)) + data)
            await writer.drain()
        except HttpError as err:
            status = err.status
            data = json.dumps({"error": err.message}).encode("utf-8")
            try:
                writer.write(_head(status, "application/json",
                                   len(data)) + data)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.LimitOverrunError):
            status = 400  # client went away / malformed framing
        finally:
            counter, histogram = self._request_metrics(route, status)
            counter.inc()
            histogram.observe(loop.time() - start)
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover - loop teardown
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if len(line) > _MAX_REQUEST_LINE:
            raise HttpError(400, "request line too long")
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise HttpError(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        for _ in range(_MAX_HEADERS):
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise HttpError(400, "bad Content-Length")
                if content_length < 0:
                    raise HttpError(400, "bad Content-Length")
        else:
            raise HttpError(400, "too many headers")
        if content_length > _MAX_BODY:
            raise HttpError(413, "body too large")
        body = await reader.readexactly(content_length) \
            if content_length else b""
        return method, path, body

    def _route(self, method: str, path: str):
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            return "/healthz", self._healthz, ()
        if path == "/metrics" and method == "GET":
            return "/metrics", self._metrics_text, ()
        if path == "/metrics.json" and method == "GET":
            return "/metrics.json", self._metrics_json, ()
        if path == "/query":
            if method != "POST":
                raise HttpError(405, "use POST /query")
            return "/query", self._query, ()
        if path == "/epochs" and method == "GET":
            return "/epochs", self._epochs, ()
        if path.startswith("/epochs/") and method == "GET":
            raw = path[len("/epochs/"):]
            try:
                index = int(raw)
            except ValueError:
                raise HttpError(400, f"bad epoch index {raw!r}")
            return "/epochs/{n}", self._epoch, (index,)
        if path == "/events" and method == "GET":
            return "/events", None, ()
        raise HttpError(404, f"no route for {method} {path}")

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #

    def _healthz(self, body: bytes):
        return 200, self.service.health(), "application/json"

    def _metrics_text(self, body: bytes):
        text = to_text(get_registry())
        return 200, text.encode("utf-8"), "text/plain; version=0.0.4"

    def _metrics_json(self, body: bytes):
        return (200, to_json(get_registry()).encode("utf-8"),
                "application/json")

    def _epochs(self, body: bytes):
        records = self.service.ring.records()
        return 200, {
            "depth": self.service.ring.depth,
            "epochs": [r.summary() for r in records],
        }, "application/json"

    def _epoch(self, body: bytes, index: int):
        record = self.service.ring.get(index)
        if record is None:
            raise HttpError(404, f"epoch {index} not in the ring")
        payload = record.summary()
        payload["statistics"] = _jsonable(record.statistics)
        payload["results"] = _jsonable(record.report.results)
        return 200, payload, "application/json"

    def _query(self, body: bytes):
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            raise HttpError(400, "body must be JSON")
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        specs = payload.get("statistics", list(DEFAULT_QUERY_SPECS))
        if not isinstance(specs, list) or not specs \
                or not all(isinstance(s, str) for s in specs):
            raise HttpError(400,
                            "statistics must be a non-empty string list")
        try:
            stats = tuple(_parse_stat(spec) for spec in specs)
        except ConfigurationError as err:
            raise HttpError(400, str(err))
        epoch = payload.get("epoch")
        if epoch is None:
            record = self.service.ring.latest()
        else:
            if not isinstance(epoch, int) or isinstance(epoch, bool):
                raise HttpError(400, "epoch must be an integer")
            record = self.service.ring.get(epoch)
        if record is None:
            raise HttpError(404, "requested epoch is not published"
                            if epoch is not None
                            else "no epoch published yet")
        engine = QueryEngine(record.sketch, memo=self.service.memo)
        results = engine.evaluate_many(stats)
        return 200, {
            "epoch": record.epoch_index,
            "sealed_at": record.sealed_at,
            "packets": record.packets,
            "results": _jsonable(results),
        }, "application/json"

    # ------------------------------------------------------------------ #
    # SSE
    # ------------------------------------------------------------------ #

    async def _stream_events(self, writer: asyncio.StreamWriter) -> None:
        writer.write(_head(200, "text/event-stream"))
        await writer.drain()
        sub = self.service.broker.subscribe()
        try:
            while not self.service.stopping:
                try:
                    event = await asyncio.wait_for(sub.queue.get(),
                                                   timeout=0.25)
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\r\n\r\n")
                    await writer.drain()
                    continue
                data = json.dumps(event)
                writer.write(f"data: {data}\n\n".encode("utf-8"))
                # drain() applies TCP backpressure to *this* task only;
                # while it waits, the bounded queue drops oldest events
                # so a stalled client costs O(queue_size) memory.
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.service.broker.unsubscribe(sub)


def _jsonable(value: Any) -> Any:
    """Recursively coerce results to JSON-safe types (numpy scalars,
    tuples-as-lists, detection event objects)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if hasattr(value, "to_dict"):
        return _jsonable(value.to_dict())
    return str(value)


__all__ = ["ServiceHttp", "HttpError", "REQUEST_SECONDS_BUCKETS",
           "DEFAULT_QUERY_SPECS"]
