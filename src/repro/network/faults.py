"""Fault injection for the poll protocol: a seeded chaos TCP proxy.

:class:`FaultyProxy` listens on its own port and forwards byte streams
to an upstream :class:`~repro.controlplane.rpc.SwitchAgent`, injecting
failures drawn from a seeded RNG according to a :class:`FaultPlan`:

- **drop_accept** — close a brand-new client connection before any byte
  is forwarded (a SYN that got through but a peer that died; the agent
  never sees the request, so no epoch state is consumed),
- **drop_chunk** — close both directions mid-stream before forwarding a
  chunk (connection reset mid-exchange),
- **truncate_chunk** — forward only half a chunk and then close, which
  cuts a frame mid-payload (short read on the other side),
- **corrupt_chunk** — flip one byte of a chunk in flight (caught by the
  v2 frame CRC),
- **delay_seconds** — sleep before forwarding each chunk (latency).

The proxy is transport-level on purpose: it needs no knowledge of the
frame format, so it exercises exactly the failure surface a real
network presents.  The request/response discipline of the poll protocol
keeps chunk order — and therefore the injected fault sequence —
reproducible for a fixed seed in single-client use (the chaos suite).
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, TransportError
from repro.network.codec import DeltaEncoder


@dataclass(frozen=True)
class FaultPlan:
    """Per-event fault probabilities (all default to 'no fault')."""

    drop_accept: float = 0.0
    drop_chunk: float = 0.0
    truncate_chunk: float = 0.0
    corrupt_chunk: float = 0.0
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_accept", "drop_chunk", "truncate_chunk",
                     "corrupt_chunk"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be a probability, got {value}")
        if self.delay_seconds < 0:
            raise ConfigurationError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}")


class FaultyProxy:
    """A chaos TCP proxy between a client and one upstream server."""

    def __init__(self, upstream: Tuple[str, int],
                 plan: Optional[FaultPlan] = None, seed: int = 0,
                 host: str = "127.0.0.1", port: int = 0,
                 chunk_bytes: int = 65536) -> None:
        self.upstream = upstream
        self.plan = plan if plan is not None else FaultPlan()
        self.counters: Dict[str, int] = {
            "connections": 0, "accepts_dropped": 0, "chunks": 0,
            "chunks_dropped": 0, "chunks_truncated": 0,
            "chunks_corrupted": 0,
        }
        self._chunk_bytes = chunk_bytes
        self._rng = random.Random(seed)
        self._lock = threading.Lock()  # guards rng + counters
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        # Poll rather than block in accept(): closing a socket another
        # thread is blocked on does not reliably wake it, and stop()
        # must not hang CI.
        self._listener.settimeout(0.1)
        self._running = False
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.getsockname()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "FaultyProxy":
        self._running = True
        self._thread = threading.Thread(target=self._accept_loop,
                                        name="faulty-proxy", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._running = False
        try:
            self._listener.close()
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "FaultyProxy":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # proxying
    # ------------------------------------------------------------------ #

    def _roll(self, probability: float) -> bool:
        if probability <= 0.0:
            return False
        with self._lock:
            return self._rng.random() < probability

    def _count(self, key: str) -> None:
        with self._lock:
            self.counters[key] += 1

    def _accept_loop(self) -> None:
        while self._running:
            try:
                client, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by stop()
            self._count("connections")
            if self._roll(self.plan.drop_accept):
                self._count("accepts_dropped")
                _close(client)
                continue
            try:
                server = socket.create_connection(self.upstream, timeout=10)
                server.settimeout(None)  # connect timeout only; pumps block
            except OSError:
                _close(client)
                continue
            for src, dst in ((client, server), (server, client)):
                threading.Thread(target=self._pump, args=(src, dst),
                                 daemon=True).start()

    def _pump(self, src: socket.socket, dst: socket.socket) -> None:
        try:
            while True:
                data = src.recv(self._chunk_bytes)
                if not data:
                    break
                self._count("chunks")
                if self._roll(self.plan.drop_chunk):
                    self._count("chunks_dropped")
                    break
                if self._roll(self.plan.truncate_chunk):
                    self._count("chunks_truncated")
                    dst.sendall(data[:max(1, len(data) // 2)])
                    break
                if self._roll(self.plan.corrupt_chunk):
                    self._count("chunks_corrupted")
                    with self._lock:
                        index = self._rng.randrange(len(data))
                    mutable = bytearray(data)
                    mutable[index] ^= 0xFF
                    data = bytes(mutable)
                if self.plan.delay_seconds:
                    time.sleep(self.plan.delay_seconds)
                dst.sendall(data)
        except OSError:
            pass
        finally:
            # Dropping either direction kills the whole connection: the
            # poll protocol cannot survive a half-open stream anyway.
            _close(src)
            _close(dst)


def _close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


# --------------------------------------------------------------------- #
# in-process chaos simulation (hundreds of switches, no sockets)
# --------------------------------------------------------------------- #

class SimulatedSwitch:
    """One in-process switch agent for the scale chaos suite.

    The TCP chaos proxy above exercises the real transport, but at 200+
    switches a socket per agent is all overhead and no extra coverage.
    :class:`SimulatedSwitch` keeps the *semantics* that matter to the
    resilience story — seal-and-swap polling, sealed epochs shipped as
    :mod:`~repro.network.codec` frames, and exact packet accounting
    (``fed_total == polled + lost + pending`` at all times, which is
    what the conservation assertions check) — without the sockets.

    ``kill()`` loses whatever the current epoch sketch holds (a dead
    switch's un-polled counters are gone for good), exactly as a
    restarted process would.
    """

    def __init__(self, name: str, sketch_factory) -> None:
        self.name = name
        self.sketch_factory = sketch_factory
        self.sketch = sketch_factory()
        self.encoder = DeltaEncoder()
        self.alive = True
        self.fed_total = 0    # packets ever offered while alive
        self.lost_total = 0   # packets destroyed by kills (pending at death)
        self.polled_total = 0  # packets shipped in sealed epochs

    def feed(self, keys) -> int:
        """Offer a packet batch; returns how many were ingested (0 if
        dead — a dead switch simply sees no traffic)."""
        if not self.alive:
            return 0
        self.sketch.update_array(keys)
        self.fed_total += len(keys)
        return len(keys)

    def kill(self) -> None:
        """Crash: pending epoch state is lost."""
        if not self.alive:
            return
        self.alive = False
        self.lost_total += self.sketch.packets
        self.sketch = self.sketch_factory()

    def restart(self) -> None:
        """Come back empty."""
        if self.alive:
            return
        self.alive = True
        self.sketch = self.sketch_factory()

    @property
    def pending(self) -> int:
        """Packets ingested but not yet sealed into a polled epoch."""
        return self.sketch.packets if self.alive else 0

    def poll(self) -> bytes:
        """Seal the current epoch and return it as one codec frame."""
        sealed = self.sketch
        self.sketch = self.sketch_factory()
        self.polled_total += sealed.packets
        return self.encoder.encode(sealed)


class SimLink:
    """A lossy request/response link to one :class:`SimulatedSwitch`.

    Faults are injected *request-side* — before the switch seals — so a
    failed poll leaves the epoch's data pending on the switch rather
    than destroying it in flight (that is also what the real protocol
    guarantees: the agent seals only after parsing a valid request).
    Each poll retries up to ``max_attempts`` times against the seeded
    drop probability, mirroring the RPC client's retry loop, and counts
    ``retries`` and ``failures`` the way the client does.
    """

    def __init__(self, switch: SimulatedSwitch, drop_rate: float = 0.0,
                 max_attempts: int = 3, seed: int = 0) -> None:
        if not 0.0 <= drop_rate <= 1.0:
            raise ConfigurationError(
                f"drop_rate must be a probability, got {drop_rate}")
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.switch = switch
        self.name = switch.name
        self.drop_rate = drop_rate
        self.max_attempts = max_attempts
        self._rng = random.Random(seed)
        self.attempts = 0
        self.drops = 0
        self.counters: Dict[str, int] = {"retries": 0, "failures": 0}

    def _attempt(self) -> None:
        self.attempts += 1
        if not self.switch.alive:
            raise TransportError(f"switch {self.name} is down")
        if self.drop_rate and self._rng.random() < self.drop_rate:
            self.drops += 1
            raise TransportError(f"connection to {self.name} dropped")

    def ping(self) -> bool:
        """One-shot liveness probe (no retries — probes are cheap and
        the health tracker owns the cadence)."""
        try:
            self._attempt()
        except TransportError:
            self.counters["failures"] += 1
            raise
        return True

    def poll(self) -> bytes:
        last: Exception = TransportError(f"poll of {self.name} failed")
        for attempt in range(self.max_attempts):
            if attempt:
                self.counters["retries"] += 1
            try:
                self._attempt()
            except TransportError as exc:
                last = exc
                if not self.switch.alive:
                    break
                continue
            return self.switch.poll()
        self.counters["failures"] += 1
        raise last


def zipf_keys(rng, packets: int, flows: int = 1024, skew: float = 1.1,
              key_base: int = 0):
    """Draw ``packets`` flow keys from a Zipf(``skew``) popularity
    distribution over ``flows`` distinct flows — the steady-state
    traffic model of the scale benchmarks.

    ``rng`` is a :class:`numpy.random.Generator`; returns a ``uint64``
    key array ready for :meth:`UniversalSketch.update_array`.
    ``key_base`` offsets the flow-ID space so different racks can carry
    overlapping or disjoint flow populations.
    """
    if packets < 0 or flows < 1:
        raise ConfigurationError(
            f"need packets >= 0 and flows >= 1, got {packets}/{flows}")
    ranks = np.arange(1, flows + 1, dtype=np.float64)
    probs = ranks ** -skew
    probs /= probs.sum()
    draws = rng.choice(flows, size=packets, p=probs)
    return (draws.astype(np.uint64) + np.uint64(key_base))


def scenario_fleet_epochs(scenario, n_switches: int, seed: int = 0):
    """Shard a workload scenario's epochs across a simulated fleet.

    For each epoch of ``scenario`` (a
    :class:`~repro.dataplane.scenarios.Scenario`), the packet key stream
    is shuffled with a seeded RNG and split into ``n_switches``
    near-equal shards — the traffic one switch of the fleet would see
    that epoch.  Returns a list (per epoch) of lists (per switch) of
    ``uint64`` key arrays.  Packet conservation holds by construction:
    the shards of an epoch concatenate back to exactly that epoch's
    stream, so the chaos suite's accounting invariants apply unchanged.
    """
    if n_switches < 1:
        raise ConfigurationError(
            f"n_switches must be >= 1, got {n_switches}")
    rng = np.random.default_rng(seed)
    epochs = []
    for keys in scenario.epoch_keys():
        shuffled = keys[rng.permutation(len(keys))]
        epochs.append(np.array_split(shuffled, n_switches))
    return epochs
