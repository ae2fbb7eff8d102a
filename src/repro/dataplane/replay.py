"""Trace ingest drivers: timed replay and an endless chunk source.

The CLI's switch agent and any live-ish demo need a trace pushed at
realistic pacing rather than all at once.  :class:`TraceReplayer` walks
a trace in chunks, sleeping so that inter-packet gaps match the capture
timestamps divided by ``speedup``, and invokes a callback per chunk.

Pacing is best-effort (coarse sleeps, no busy-wait): the guarantee is
that a chunk is never delivered *early*, and delivery lag is reported
so callers can detect when they cannot keep up.

:class:`LoopingChunkSource` cycles a finite trace forever in fixed-size
chunks, for the always-on service.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.dataplane.trace import Trace


class TraceReplayer:
    """Replay a trace against a callback at scaled capture pacing.

    Parameters
    ----------
    trace:
        The (time-sorted) trace to replay.
    speedup:
        Time compression factor; ``inf`` (or ``0``) replays as fast as
        possible, 1.0 replays in real time, 60 replays an hour-long
        trace in a minute.
    chunk_seconds:
        Capture-time granularity of the callback batches.
    """

    def __init__(self, trace: Trace, speedup: float = float("inf"),
                 chunk_seconds: float = 1.0,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if speedup < 0:
            raise ConfigurationError(f"speedup must be >= 0, got {speedup}")
        if chunk_seconds <= 0:
            raise ConfigurationError(
                f"chunk_seconds must be > 0, got {chunk_seconds}")
        self.trace = trace
        self.speedup = speedup if speedup > 0 else float("inf")
        self.chunk_seconds = chunk_seconds
        self._clock = clock
        self._sleep = sleep
        self.max_lag = 0.0
        self.chunks_delivered = 0

    def run(self, consume: Callable[[Trace], None],
            stop: Optional[Callable[[], bool]] = None) -> int:
        """Replay; calls ``consume(chunk)`` per chunk.  Returns packets
        delivered.  ``stop()`` is checked between chunks."""
        trace = self.trace
        if len(trace) == 0:
            return 0
        start_wall = self._clock()
        start_capture = float(trace.timestamps[0])
        delivered = 0
        for chunk in trace.epochs(self.chunk_seconds):
            if stop is not None and stop():
                break
            if len(chunk) == 0:
                self.chunks_delivered += 1
                continue
            if self.speedup != float("inf"):
                due = (float(chunk.timestamps[0]) - start_capture) \
                    / self.speedup
                now = self._clock() - start_wall
                if now < due:
                    self._sleep(due - now)
                else:
                    self.max_lag = max(self.max_lag, now - due)
            consume(chunk)
            delivered += len(chunk)
            self.chunks_delivered += 1
        return delivered


class LoopingChunkSource:
    """An endless chunk stream cycled from a finite trace.

    The always-on monitoring service ingests forever but test and demo
    deployments only have a finite trace on disk; this source re-plays
    it in fixed-size row slices, shifting the timestamp column forward
    by one trace-span per wrap so capture time keeps advancing (epoch
    slicing and detection baselines never see time jump backwards).

    Iteration is infinite — callers stop by breaking out (the service's
    ingest loop checks its stop flag between chunks).  ``wraps`` counts
    completed passes over the source trace.
    """

    def __init__(self, trace: Trace, chunk_size: int = 4096) -> None:
        if len(trace) == 0:
            raise ConfigurationError(
                "LoopingChunkSource needs a non-empty trace")
        if chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {chunk_size}")
        self.trace = trace.sorted_by_time()
        self.chunk_size = chunk_size
        self.wraps = 0
        # Span includes one mean inter-packet gap so the first packet of
        # a wrap lands after the last packet of the previous one.
        t = self.trace.timestamps
        span = float(t[-1] - t[0])
        gap = span / max(len(t) - 1, 1)
        self._span = span + max(gap, 1e-9)

    def __iter__(self):
        return self.chunks()

    def chunks(self):
        """Yield row-sliced :class:`Trace` chunks forever."""
        trace = self.trace
        n = len(trace)
        while True:
            offset = self.wraps * self._span
            for lo in range(0, n, self.chunk_size):
                hi = min(lo + self.chunk_size, n)
                yield Trace(trace.timestamps[lo:hi] + offset,
                            trace.src[lo:hi], trace.dst[lo:hi],
                            trace.sport[lo:hi], trace.dport[lo:hi],
                            trace.proto[lo:hi], trace.size[lo:hi])
            self.wraps += 1
