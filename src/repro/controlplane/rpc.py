"""The poll protocol: controller <-> switch agent over TCP.

Figure 2's dashed line, made concrete: a :class:`SwitchAgent` wraps a
:class:`~repro.dataplane.switch.MonitoredSwitch` and serves its sealed
sketches over a socket; a :class:`RemoteSwitchClient` on the controller
side polls them.  Sketches travel in the binary format of
:mod:`repro.core.serialization`, so the controller reconstructs a fully
queryable :class:`~repro.core.universal.UniversalSketch` and runs the
usual estimation apps on it.

Protocol **v2** (all integers little-endian):

    frame   :  u8 version (=2) | u32 length | u32 crc32(payload) | payload
    request :  frame carrying the utf-8 command line
    response:  frame carrying u8 status | body

Status 0 is success, 1 is an application error (the body is the
message; never retried), and 2 is a *transport-integrity* error — the
server could not trust the request stream (bad version, oversized
length, checksum mismatch) and is about to close the connection, so the
client retries on a fresh one.  The status byte lives inside the frame
so it is covered by the checksum too.

Every frame is hardened against a lossy or hostile transport: the
version byte rejects v1 peers with a clear error instead of a silent
misparse, the length is bounded by :data:`MAX_FRAME_BYTES` before any
allocation, and the CRC32 checksum catches payload corruption on both
sides.  Integrity failures raise :class:`~repro.errors.FrameError`
(a :class:`~repro.errors.TransportError`), because after one the byte
stream can no longer be trusted and the connection must be rebuilt.

Commands:

- ``POLL <program>``  -> payload = serialized sealed sketch (any
  sketch type the serializer knows)
- ``FRAME <program>`` -> payload = the sealed sketch as one
  compressed :mod:`repro.network.codec` frame
- ``MEMORY``          -> payload = ascii decimal total data-plane bytes
- ``STATS``           -> payload = ascii ``packets=<n> programs=<k>``
- ``PING``            -> payload = ``pong``

The server is intentionally synchronous and single-threaded per
connection (a ThreadingTCPServer underneath): a switch has one
controller, and the 5-second cadence leaves it idle almost always.

Fault tolerance: :class:`RemoteSwitchClient` connects lazily and
reconnects automatically; every call retries transport failures under a
:class:`RetryPolicy` (exponential backoff, deterministic seeded jitter).
Server-reported errors (status 1) are *not* retried — the exchange
succeeded, the answer was an error.  Note the one semantic wrinkle:
``POLL`` and ``FRAME`` swap the epoch sketch before the response
travels, so a retry after a *response* loss returns the next
(near-empty) epoch; the coverage report of
:class:`~repro.network.hierarchy.HierarchicalCoordinator` makes that
loss visible instead of silent.

Concurrency contract: POLL/MEMORY/STATS hold the agent's lock, so a
poll atomically swaps the program's sketch.  The data-plane feed
(``switch.process_trace`` from the owning thread) does not take the
lock — under CPython's GIL the sketch-reference read is atomic, and the
worst interleaving lands one in-flight chunk in the epoch on either
side of the poll, which is exactly the boundary fuzziness a real
switch's asynchronous counter read has.
"""

from __future__ import annotations

import random
import socket
import socketserver
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    FrameError,
    ReproError,
    RpcError,
    TransportError,
)
from repro.core import serialization
from repro.dataplane.switch import MonitoredSwitch

__all__ = [
    "FRAME_VERSION", "MAX_FRAME_BYTES", "RetryPolicy", "RpcError",
    "TransportError", "FrameError", "SwitchAgent", "RemoteSwitchClient",
]

#: Wire format revision; v1 frames (bare length prefix) are rejected.
FRAME_VERSION = 2

#: Hard ceiling on a frame payload.  A corrupt length prefix must never
#: translate into a multi-gigabyte allocation; the largest sketch the
#: experiments ship is a few megabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct("<BII")

#: Response status codes (first byte of every response frame).
STATUS_OK = 0
STATUS_ERROR = 1
STATUS_BAD_FRAME = 2


# --------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------- #

def _send_frame(sock: socket.socket, payload: bytes) -> None:
    header = _HEADER.pack(FRAME_VERSION, len(payload),
                          zlib.crc32(payload) & 0xFFFFFFFF)
    try:
        sock.sendall(header + payload)
    except OSError as exc:
        raise TransportError(f"send failed: {exc}") from exc


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError as exc:
            raise TransportError(f"recv failed: {exc}") from exc
        if not chunk:
            raise TransportError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket,
                max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    # Validate the version byte before waiting for the rest of the
    # header: a v1 peer's frame may be shorter than a v2 header, and
    # blocking on bytes that will never come turns a clean rejection
    # into a timeout.
    (version,) = _recv_exact(sock, 1)
    if version != FRAME_VERSION:
        raise FrameError(
            f"unsupported frame version {version} (this peer speaks "
            f"v{FRAME_VERSION}; v1 frames have no version byte)")
    length, crc = struct.unpack("<II", _recv_exact(sock, 8))
    if length > max_bytes:
        raise FrameError(
            f"frame length {length} exceeds the {max_bytes}-byte limit")
    payload = _recv_exact(sock, length)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FrameError("frame checksum mismatch (corrupt payload)")
    return payload


# --------------------------------------------------------------------- #
# retry policy
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, seeded jitter.

    ``max_attempts`` counts the first try: 1 means fail-fast.  The delay
    before retry ``i`` (1-based) is ``base_delay * multiplier**(i-1)``
    capped at ``max_delay``, then scaled by a jitter factor drawn
    uniformly from ``[1 - jitter, 1 + jitter]`` using a
    ``random.Random(seed)`` private to each client — so a fixed seed
    yields a reproducible delay sequence (no wall-clock flakiness in
    tests, no synchronized retry stampedes in deployments).
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("retry delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1), got {self.jitter}")

    def backoff(self, retry_index: int, rng: random.Random) -> float:
        """Delay before the ``retry_index``-th retry (0-based)."""
        delay = min(self.base_delay * self.multiplier ** retry_index,
                    self.max_delay)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(delay, 0.0)

    def fail_fast(self) -> "RetryPolicy":
        """This policy reduced to a single attempt (health probes)."""
        return RetryPolicy(max_attempts=1, base_delay=self.base_delay,
                           multiplier=self.multiplier,
                           max_delay=self.max_delay, jitter=self.jitter,
                           seed=self.seed)


# --------------------------------------------------------------------- #
# server side
# --------------------------------------------------------------------- #

class _AgentHandler(socketserver.BaseRequestHandler):
    def setup(self) -> None:
        self.server.agent._track(self.request, add=True)

    def finish(self) -> None:
        self.server.agent._track(self.request, add=False)

    def handle(self) -> None:
        while True:
            try:
                raw = _recv_frame(self.request)
            except FrameError as exc:
                # Protocol violation: report it, then drop the stream —
                # after a bad frame, resynchronisation is impossible.
                self._reply(STATUS_BAD_FRAME, str(exc).encode())
                return
            except TransportError:
                return  # client went away between requests
            try:
                command = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                self._reply(STATUS_BAD_FRAME,
                            f"undecodable command: {exc}".encode())
                return
            status, payload = self.server.agent._dispatch(command)
            if not self._reply(status, payload):
                return

    def _reply(self, status: int, payload: bytes) -> bool:
        try:
            _send_frame(self.request, struct.pack("<B", status) + payload)
            return True
        except (TransportError, OSError):
            return False


class _AgentServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class SwitchAgent:
    """Serves a monitored switch's sketches to a remote controller."""

    def __init__(self, switch: MonitoredSwitch, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.switch = switch
        self._lock = threading.Lock()
        self._conn_lock = threading.Lock()
        self._connections: set = set()
        self._server = _AgentServer((host, port), _AgentHandler)
        self._server.agent = self
        self._thread: Optional[threading.Thread] = None

    def _track(self, conn: socket.socket, add: bool) -> None:
        with self._conn_lock:
            if add:
                self._connections.add(conn)
            else:
                self._connections.discard(conn)

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address

    def start(self) -> "SwitchAgent":
        """Start serving in a background thread (chainable)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="switch-agent",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and sever every live connection.

        Closing established connections matters for crash simulation and
        clean restarts: handler threads are daemonic, so without this a
        "stopped" agent would keep answering peers that connected before
        the shutdown.
        """
        self._server.shutdown()
        self._server.server_close()
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "SwitchAgent":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # request dispatch (runs on server threads)
    # ------------------------------------------------------------------ #

    def _dispatch(self, command: str) -> Tuple[int, bytes]:
        try:
            parts = command.split()
            if not parts:
                raise RpcError("empty command")
            verb = parts[0].upper()
            if verb == "PING":
                return STATUS_OK, b"pong"
            if verb == "MEMORY":
                with self._lock:
                    return STATUS_OK, str(self.switch.memory_bytes()).encode()
            if verb == "STATS":
                with self._lock:
                    text = (f"packets={self.switch.packets_seen} "
                            f"programs={len(self.switch.programs())}")
                return STATUS_OK, text.encode()
            if verb in ("POLL", "FRAME"):
                if len(parts) != 2:
                    raise RpcError(f"usage: {verb} <program>")
                with self._lock:
                    sealed = self.switch.poll(parts[1])
                if verb == "POLL":
                    return STATUS_OK, serialization.dumps(sealed)
                # Imported lazily: repro.network imports the control
                # plane (the tree builds on the controller), so a
                # module-level import would be circular.
                from repro.network.codec import DeltaEncoder
                return STATUS_OK, DeltaEncoder().encode(sealed)
            raise RpcError(f"unknown command {verb!r}")
        except ReproError as exc:
            return STATUS_ERROR, str(exc).encode()
        except Exception as exc:  # defensive: never kill the server loop
            return STATUS_ERROR, f"internal error: {exc}".encode()


# --------------------------------------------------------------------- #
# client side
# --------------------------------------------------------------------- #

class RemoteSwitchClient:
    """Controller-side client for one switch agent.

    Connects lazily and reconnects automatically: any transport failure
    (refused connect, reset, timeout, short read, corrupt frame) tears
    the socket down and — under ``retry`` — backs off and tries again on
    a fresh connection.  All transport failures surface as
    :class:`~repro.errors.TransportError`; server-reported errors stay
    plain :class:`~repro.errors.RpcError` and are never retried.

    ``sleep`` is injectable so tests (and simulations) can run the
    backoff schedule without wall-clock delays.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 retry: Optional[RetryPolicy] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        if port <= 0:
            raise ConfigurationError(f"invalid port {port}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.counters: Dict[str, int] = {
            "calls": 0, "connects": 0, "retries": 0, "failures": 0,
        }
        self._sleep = sleep
        self._rng = random.Random(self.retry.seed)
        self._max_frame_bytes = max_frame_bytes
        self._sock: Optional[socket.socket] = None

    # -- connection management ---------------------------------------- #

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _ensure_connected(self) -> socket.socket:
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
            except OSError as exc:
                raise TransportError(
                    f"connect to {self.host}:{self.port} failed: {exc}"
                ) from exc
            self.counters["connects"] += 1
        return self._sock

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "RemoteSwitchClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request/response ---------------------------------------------- #

    def _call(self, command: str, retry: Optional[RetryPolicy] = None) -> bytes:
        policy = retry if retry is not None else self.retry
        self.counters["calls"] += 1
        last: Optional[TransportError] = None
        for attempt in range(policy.max_attempts):
            if attempt:
                self.counters["retries"] += 1
                self._sleep(policy.backoff(attempt - 1, self._rng))
            try:
                sock = self._ensure_connected()
                _send_frame(sock, command.encode("utf-8"))
                response = _recv_frame(sock, self._max_frame_bytes)
                if not response:
                    raise FrameError("response frame missing status byte")
                status, payload = response[0], response[1:]
                if status == STATUS_BAD_FRAME:
                    # The server could not trust our request stream and
                    # is closing; rebuild the connection and try again.
                    raise FrameError(
                        f"peer rejected frame: "
                        f"{payload.decode('utf-8', 'replace')}")
            except TransportError as exc:
                last = exc
                self._disconnect()
                continue
            if status != STATUS_OK:
                raise RpcError(payload.decode("utf-8", "replace"))
            return payload
        self.counters["failures"] += 1
        verb = command.split()[0] if command.split() else command
        raise TransportError(
            f"{verb} to {self.host}:{self.port} failed after "
            f"{policy.max_attempts} attempt(s): {last}") from last

    # -- commands ------------------------------------------------------- #

    def ping(self, retry: Optional[RetryPolicy] = None) -> bool:
        return self._call("PING", retry=retry) == b"pong"

    def memory_bytes(self) -> int:
        payload = self._call("MEMORY")
        try:
            return int(payload)
        except ValueError:
            raise RpcError(
                f"malformed MEMORY payload {payload!r}") from None

    def stats(self) -> dict:
        raw = self._call("STATS").decode("utf-8", "replace")
        stats: Dict[str, int] = {}
        for item in raw.split():
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise RpcError(f"malformed STATS payload {raw!r}")
            try:
                stats[key] = int(value)
            except ValueError:
                raise RpcError(
                    f"malformed STATS payload {raw!r}: "
                    f"{value!r} is not an integer") from None
        missing = {"packets", "programs"} - stats.keys()
        if missing:
            raise RpcError(
                f"malformed STATS payload {raw!r}: missing "
                f"{sorted(missing)}")
        return stats

    def poll(self, program: str):
        """Poll-and-reset one program; returns the reconstructed sketch."""
        return serialization.loads(self._call(f"POLL {program}"))

    def poll_frame(self, program: str) -> bytes:
        """Poll-and-reset one program as one codec frame.  Returns the
        raw frame bytes; decode with a
        :class:`~repro.network.codec.DeltaDecoder`."""
        return self._call(f"FRAME {program}")
