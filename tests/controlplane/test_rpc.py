"""Integration tests for the TCP poll protocol (real sockets)."""

import socket
import struct
import threading
import zlib

import numpy as np
import pytest

from repro.controlplane.rpc import (
    FRAME_VERSION,
    RemoteSwitchClient,
    RetryPolicy,
    RpcError,
    STATUS_BAD_FRAME,
    SwitchAgent,
)
from repro.errors import ConfigurationError, FrameError, TransportError
from repro.core.gsum import estimate_cardinality
from repro.core.universal import UniversalSketch
from repro.dataplane.keys import src_ip_key
from repro.dataplane.switch import MonitoredSwitch

FAIL_FAST = RetryPolicy(max_attempts=1)


def make_switch():
    switch = MonitoredSwitch("s1")
    switch.attach(
        "univmon",
        lambda: UniversalSketch(levels=5, rows=3, width=256, heap_size=16,
                                seed=3),
        src_ip_key)
    return switch


@pytest.fixture()
def agent():
    agent = SwitchAgent(make_switch()).start()
    yield agent
    agent.stop()


@pytest.fixture()
def client(agent):
    host, port = agent.address
    with RemoteSwitchClient(host, port) as client:
        yield client


class TestProtocol:
    def test_ping(self, client):
        assert client.ping()

    def test_memory(self, agent, client):
        assert client.memory_bytes() == agent.switch.memory_bytes()

    def test_stats(self, agent, client, tiny_trace):
        agent.switch.process_trace(tiny_trace)
        stats = client.stats()
        assert stats["packets"] == len(tiny_trace)
        assert stats["programs"] == 1

    def test_poll_returns_queryable_sketch(self, agent, client, tiny_trace):
        agent.switch.process_trace(tiny_trace)
        sketch = client.poll("univmon")
        assert isinstance(sketch, UniversalSketch)
        assert sketch.total_weight == len(tiny_trace)
        true_distinct = tiny_trace.distinct(src_ip_key)
        assert abs(estimate_cardinality(sketch) - true_distinct) \
            / true_distinct < 0.6

    def test_poll_resets_the_epoch(self, agent, client, tiny_trace):
        agent.switch.process_trace(tiny_trace)
        client.poll("univmon")
        fresh = client.poll("univmon")
        assert fresh.total_weight == 0

    def test_frame_returns_one_full_codec_frame(self, agent, client,
                                                tiny_trace):
        from repro.network.codec import DeltaDecoder, frame_info
        agent.switch.process_trace(tiny_trace)
        frame = client.poll_frame("univmon")
        assert frame_info(frame).kind == "full"
        sketch = DeltaDecoder().decode(frame)
        assert sketch.total_weight == len(tiny_trace)
        # reset-on-read, like POLL
        fresh = DeltaDecoder().decode(client.poll_frame("univmon"))
        assert fresh.total_weight == 0

    def test_unknown_program_is_remote_error(self, client):
        with pytest.raises(RpcError):
            client.poll("nope")

    def test_unknown_command_is_remote_error(self, agent):
        host, port = agent.address
        with RemoteSwitchClient(host, port) as client:
            with pytest.raises(RpcError):
                client._call("FROBNICATE")

    def test_multiple_requests_same_connection(self, agent, client,
                                               tiny_trace):
        for _ in range(3):
            agent.switch.process_trace(tiny_trace)
            sketch = client.poll("univmon")
            assert sketch.total_weight == len(tiny_trace)

    def test_two_concurrent_clients(self, agent, tiny_trace):
        host, port = agent.address
        agent.switch.process_trace(tiny_trace)
        with RemoteSwitchClient(host, port) as c1, \
                RemoteSwitchClient(host, port) as c2:
            assert c1.ping() and c2.ping()
            assert c1.stats()["packets"] == c2.stats()["packets"]


def _v2_frame(payload: bytes) -> bytes:
    return struct.pack("<BII", FRAME_VERSION, len(payload),
                       zlib.crc32(payload) & 0xFFFFFFFF) + payload


def one_shot_server(responder):
    """Serve exactly one connection with ``responder(conn)``; returns addr."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def run():
        conn, _ = listener.accept()
        try:
            responder(conn)
        finally:
            conn.close()
            listener.close()

    threading.Thread(target=run, daemon=True).start()
    return listener.getsockname()


def _drain_request(conn) -> None:
    version, length, crc = struct.unpack("<BII", conn.recv(9))
    while length:
        length -= len(conn.recv(length))


class TestErrorPaths:
    def test_malformed_poll_is_remote_error(self, client):
        with pytest.raises(RpcError, match="usage"):
            client._call("POLL")
        with pytest.raises(RpcError, match="usage"):
            client._call("POLL univmon extra")

    def test_malformed_frame_is_remote_error(self, client):
        with pytest.raises(RpcError, match="usage: FRAME"):
            client._call("FRAME")
        # the retired delta verb's acked base is not accepted
        with pytest.raises(RpcError, match="usage: FRAME"):
            client._call("FRAME univmon -1")
        with pytest.raises(RpcError, match="unknown command"):
            client._call("DELTA univmon -1")

    def test_truncated_response_mid_payload(self):
        """A frame cut inside the payload is a short read, not a hang."""
        def responder(conn):
            _drain_request(conn)
            header = struct.pack("<BII", FRAME_VERSION, 100, 0)
            conn.sendall(header + b"only ten b")  # 10 of 100 bytes

        host, port = one_shot_server(responder)
        with RemoteSwitchClient(host, port, timeout=5.0,
                                retry=FAIL_FAST) as client:
            with pytest.raises(TransportError, match="mid-frame|failed"):
                client.ping()

    def test_v1_response_frame_rejected(self):
        """A server speaking the old bare-length format is refused."""
        def responder(conn):
            _drain_request(conn)
            conn.sendall(struct.pack("<I", 5) + b"\x00pong")  # v1 framing

        host, port = one_shot_server(responder)
        with RemoteSwitchClient(host, port, timeout=5.0,
                                retry=FAIL_FAST) as client:
            with pytest.raises(TransportError, match="frame version"):
                client.ping()

    def test_v1_request_frame_rejected_with_clear_error(self, agent):
        """The agent answers a v1 request with a bad-frame status."""
        host, port = agent.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(struct.pack("<I", 4) + b"PING")  # v1 framing
            version, length, crc = struct.unpack("<BII", sock.recv(9))
            assert version == FRAME_VERSION
            body = b""
            while len(body) < length:
                body += sock.recv(length - len(body))
        assert body[0] == STATUS_BAD_FRAME
        assert b"frame version" in body[1:]
        # ...and the connection is then closed: the stream is untrusted.
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(struct.pack("<I", 4) + b"PING")
            while sock.recv(4096):
                pass  # drain the error frame until EOF

    def test_checksum_mismatch_rejected(self):
        def responder(conn):
            _drain_request(conn)
            payload = b"\x00pong"
            header = struct.pack("<BII", FRAME_VERSION, len(payload),
                                 0xDEADBEEF)
            conn.sendall(header + payload)

        host, port = one_shot_server(responder)
        with RemoteSwitchClient(host, port, timeout=5.0,
                                retry=FAIL_FAST) as client:
            with pytest.raises(TransportError, match="checksum"):
                client.ping()

    def test_oversized_frame_rejected_before_allocation(self):
        """A hostile length prefix raises instead of allocating 4 GiB."""
        def responder(conn):
            _drain_request(conn)
            conn.sendall(struct.pack("<BII", FRAME_VERSION,
                                     0xFFFFFFF0, 0) + b"x")

        host, port = one_shot_server(responder)
        with RemoteSwitchClient(host, port, timeout=5.0,
                                retry=FAIL_FAST) as client:
            with pytest.raises(TransportError, match="exceeds"):
                client.ping()

    def test_client_side_frame_limit(self, agent, tiny_trace):
        """The per-client max_frame_bytes guard applies to responses."""
        agent.switch.process_trace(tiny_trace)
        host, port = agent.address
        with RemoteSwitchClient(host, port, retry=FAIL_FAST,
                                max_frame_bytes=64) as client:
            with pytest.raises(TransportError, match="exceeds"):
                client.poll("univmon")

    def test_malformed_stats_payload(self):
        def responder(conn):
            _drain_request(conn)
            conn.sendall(_v2_frame(b"\x00packets=12 garbage programs=1"))

        host, port = one_shot_server(responder)
        with RemoteSwitchClient(host, port, timeout=5.0,
                                retry=FAIL_FAST) as client:
            with pytest.raises(RpcError, match="malformed STATS"):
                client.stats()

    def test_stats_missing_fields(self):
        def responder(conn):
            _drain_request(conn)
            conn.sendall(_v2_frame(b"\x00packets=12"))

        host, port = one_shot_server(responder)
        with RemoteSwitchClient(host, port, timeout=5.0,
                                retry=FAIL_FAST) as client:
            with pytest.raises(RpcError, match="missing"):
                client.stats()

    def test_malformed_memory_payload(self):
        def responder(conn):
            _drain_request(conn)
            conn.sendall(_v2_frame(b"\x00not-a-number"))

        host, port = one_shot_server(responder)
        with RemoteSwitchClient(host, port, timeout=5.0,
                                retry=FAIL_FAST) as client:
            with pytest.raises(RpcError, match="malformed MEMORY"):
                client.memory_bytes()

    def test_server_error_is_not_retried(self, agent):
        """Application errors must not burn the retry budget."""
        host, port = agent.address
        with RemoteSwitchClient(host, port,
                                retry=RetryPolicy(max_attempts=5,
                                                  base_delay=0.0),
                                sleep=lambda s: None) as client:
            with pytest.raises(RpcError):
                client.poll("nope")
            assert client.counters["retries"] == 0


class TestResilience:
    def test_agent_restart_between_calls(self, tiny_trace):
        """The client reconnects transparently across an agent restart."""
        agent = SwitchAgent(make_switch()).start()
        host, port = agent.address
        with RemoteSwitchClient(
                host, port,
                retry=RetryPolicy(max_attempts=4, base_delay=0.0,
                                  jitter=0.0),
                sleep=lambda s: None) as client:
            agent.switch.process_trace(tiny_trace)
            assert client.poll("univmon").total_weight == len(tiny_trace)

            agent.stop()
            agent = SwitchAgent(make_switch(), port=port).start()
            try:
                agent.switch.process_trace(tiny_trace)
                sketch = client.poll("univmon")
                assert sketch.total_weight == len(tiny_trace)
                assert client.counters["retries"] >= 1
                assert client.counters["connects"] >= 2
            finally:
                agent.stop()

    def test_stopped_agent_severs_live_connections(self, tiny_trace):
        """stop() kills established connections, not just the listener —
        otherwise a 'crashed' agent would keep answering old peers."""
        agent = SwitchAgent(make_switch()).start()
        host, port = agent.address
        with RemoteSwitchClient(host, port, retry=FAIL_FAST) as client:
            assert client.ping()
            agent.stop()
            with pytest.raises(TransportError):
                client.ping()

    def test_lazy_connection(self):
        """No socket is opened until the first call (resilient startup)."""
        client = RemoteSwitchClient("127.0.0.1", 65000, retry=FAIL_FAST)
        assert not client.connected
        with pytest.raises(TransportError):
            client.ping()
        client.close()


class TestRetryPolicyValidation:
    def test_bounds(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)

    def test_backoff_caps_at_max_delay(self, py_rng):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=3.0,
                             jitter=0.0)
        assert policy.backoff(0, py_rng) == 1.0
        assert policy.backoff(5, py_rng) == 3.0

    def test_fail_fast_keeps_other_fields(self):
        policy = RetryPolicy(max_attempts=9, base_delay=0.5)
        fast = policy.fail_fast()
        assert fast.max_attempts == 1
        assert fast.base_delay == 0.5

    def test_frame_error_is_transport_error(self):
        assert issubclass(FrameError, TransportError)
        assert issubclass(TransportError, RpcError)


class TestEndToEndPollLoop:
    def test_epoch_loop_over_the_wire(self, agent, small_trace):
        """The full Figure-2 loop with a real socket in the middle."""
        host, port = agent.address
        distincts = []
        with RemoteSwitchClient(host, port) as client:
            for epoch in small_trace.epochs(1.0):
                agent.switch.process_trace(epoch)
                sealed = client.poll("univmon")
                distincts.append(estimate_cardinality(sealed))
        assert len(distincts) == len(small_trace.epochs(1.0))
        assert all(d >= 0 for d in distincts)

    def test_polled_sketches_merge_into_trace_view(self, agent, small_trace):
        host, port = agent.address
        merged = None
        with RemoteSwitchClient(host, port) as client:
            for epoch in small_trace.epochs(1.0):
                agent.switch.process_trace(epoch)
                sealed = client.poll("univmon")
                merged = sealed if merged is None else merged.merge(sealed)
        assert merged.total_weight == len(small_trace)
