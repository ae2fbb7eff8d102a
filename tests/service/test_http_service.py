"""End-to-end service tests over real HTTP: queries, epochs, SSE,
memoisation, and graceful shutdown."""

import json
import socket
import threading
import time

import pytest

from repro.service import ServiceConfig

from tests.service.conftest import http_get, http_post


def wait_for_epochs(service, n, timeout=30.0):
    deadline = time.monotonic() + timeout
    while service.ingest.epochs_sealed < n:
        assert time.monotonic() < deadline, \
            f"only {service.ingest.epochs_sealed}/{n} epochs in {timeout}s"
        time.sleep(0.01)


class TestEndpoints:
    def test_bounded_run_serves_everything(self, make_service, registry):
        service = make_service(ServiceConfig(
            port=0, epoch_seconds=0.1, ring_depth=4, max_epochs=3))
        assert service.wait(timeout=30)
        port = service.port

        status, health = http_get(port, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["epochs_sealed"] == 3
        assert health["packets_ingested"] > 0

        status, listing = http_get(port, "/epochs")
        assert status == 200
        indices = [e["epoch"] for e in listing["epochs"]]
        assert indices == [0, 1, 2]

        status, detail = http_get(port, f"/epochs/{indices[-1]}")
        assert status == 200
        assert detail["statistics"]["cardinality"] > 0
        assert "entropy" in detail["statistics"]

        status, result = http_post(port, "/query",
                                   {"statistics": ["cardinality",
                                                   "entropy",
                                                   "hh:0.01"]})
        assert status == 200
        assert result["epoch"] == 2
        assert result["results"]["cardinality"] > 0
        assert isinstance(result["results"]["heavy_hitters"], list)

        status, text = http_get(port, "/metrics")
        assert status == 200
        assert "univmon_epochs_total 3" in text
        assert "univmon_service_request_seconds" in text

        # The acceptance invariant: exactly one snapshot build per
        # sealed epoch, no matter how many queries were served.
        builds = registry.counter(
            "univmon_query_snapshot_builds_total").value
        assert builds == 3

    def test_error_paths(self, make_service):
        service = make_service(ServiceConfig(
            port=0, epoch_seconds=0.1, max_epochs=2))
        assert service.wait(timeout=30)
        port = service.port

        status, body = http_get(port, "/nope")
        assert status == 404
        status, body = http_get(port, "/epochs/999")
        assert status == 404
        status, body = http_get(port, "/epochs/abc")
        assert status == 400
        status, body = http_post(port, "/query",
                                 {"statistics": ["bogus_stat"]})
        assert status == 400
        assert "bogus_stat" in body["error"]
        status, body = http_post(port, "/query", {"statistics": []})
        assert status == 400
        status, body = http_post(port, "/query", {"epoch": 999})
        assert status == 404
        status, body = http_get(port, "/query")  # GET on a POST route
        assert status == 405

    def test_query_before_first_epoch_is_404(self, make_service):
        service = make_service(ServiceConfig(
            port=0, epoch_seconds=3600.0, chunk_sleep=0.05))
        status, body = http_post(service.port, "/query", {})
        assert status == 404
        assert "no epoch" in body["error"]


class TestQueryMemo:
    def test_concurrent_identical_queries_collapse(self, make_service,
                                                   registry):
        service = make_service(ServiceConfig(
            port=0, epoch_seconds=0.1, max_epochs=2))
        assert service.wait(timeout=30)
        port = service.port
        # A statistic set nothing else (epoch events, other tests)
        # evaluates, so its memo entry is provably ours.
        payload = {"statistics": ["entropy:e", "moment:1.5"]}

        misses_before = registry.counter(
            "univmon_query_memo_misses_total").value
        hits_before = registry.counter(
            "univmon_query_memo_hits_total").value

        results, errors = [], []

        def client():
            try:
                results.append(http_post(port, "/query", payload))
            except Exception as exc:  # noqa: BLE001 - surface in assert
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(results) == 8
        assert all(status == 200 for status, _ in results)
        values = [json.dumps(body["results"], sort_keys=True)
                  for _, body in results]
        assert len(set(values)) == 1          # identical answers

        misses = registry.counter(
            "univmon_query_memo_misses_total").value - misses_before
        hits = registry.counter(
            "univmon_query_memo_hits_total").value - hits_before
        assert misses == 1                    # evaluated exactly once
        assert hits == 7                      # everyone else collapsed


class TestServerSentEvents:
    def read_sse_events(self, port, n, timeout=30.0):
        """Collect ``n`` data events from a raw /events stream."""
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=timeout) as sock:
            sock.sendall(b"GET /events HTTP/1.1\r\n"
                         b"Host: localhost\r\n\r\n")
            sock.settimeout(timeout)
            buffer = b""
            events = []
            deadline = time.monotonic() + timeout
            while len(events) < n and time.monotonic() < deadline:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n\n" in buffer:
                    frame, buffer = buffer.split(b"\n\n", 1)
                    for line in frame.splitlines():
                        if line.startswith(b"data: "):
                            events.append(json.loads(line[6:]))
            return events

    def test_epoch_events_stream(self, make_service):
        service = make_service(ServiceConfig(
            port=0, epoch_seconds=0.15, ring_depth=4))
        events = self.read_sse_events(service.port, 2)
        service.stop()
        assert len(events) >= 2
        assert all(e["type"] == "epoch" for e in events)
        assert events[1]["epoch"] > events[0]["epoch"]
        assert "cardinality" in events[0]["statistics"]


class TestGracefulShutdown:
    def test_stop_drains_everything(self, make_service):
        service = make_service(ServiceConfig(
            port=0, epoch_seconds=0.1, ring_depth=4))
        wait_for_epochs(service, 2)
        port = service.port
        service.stop()
        assert not service.ingest.is_alive()
        assert service.ingest.error is None
        assert not service._loop_thread.is_alive()
        # The listener is gone: a fresh connection must be refused.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=1.0)
        service.stop()  # idempotent
