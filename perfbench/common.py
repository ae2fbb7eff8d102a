"""Shared measurement helpers: percentiles with their guard, memory
high-water marks, fork-isolated set-up timing, and the run result."""

from __future__ import annotations

import gc
import os
import pickle
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: The ``univmon query`` default batch, which switch_zipf and fleet_tree
#: ask of every sealed epoch, and the result names it must answer with.
QUERY_SPECS = ("hh:0.005", "cardinality", "l1", "entropy", "f2")
QUERY_NAMES = {"heavy_hitters", "cardinality", "l1", "entropy", "f2"}


def beyond(n: int, q: float) -> float:
    """Samples above the ``q``-th percentile of ``n`` samples."""
    return round(n * (1.0 - q / 100.0), 9)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class Outcome:
    """What one phase of a workload measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    diagnostics: Dict[str, object] = field(default_factory=dict)
    guards: Dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    epochs: int = 0

    def check(self, ok: bool, what: str) -> None:
        """Count one output check against operations attempted."""
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def guard(self, name: str, value: float, ok: bool, rule: str) -> None:
        self.guards[name] = {"value": value, "ok": bool(ok), "rule": rule}

    def percentile_guard(self, name: str, n: int, q: float) -> None:
        self.guard(f"{name}.samples_beyond", beyond(n, q),
                   beyond(n, q) >= MIN_BEYOND,
                   f">= {MIN_BEYOND} samples beyond p{q:g} (n={n})")

    @property
    def valid(self) -> bool:
        return all(g["ok"] for g in self.guards.values())


# --------------------------------------------------------------------- #
# memory
# --------------------------------------------------------------------- #

def _status_kb(field_name: str) -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field_name} not in /proc/self/status")


def reset_peak_rss() -> float:
    """Reset VmHWM to the current RSS; returns that RSS in MiB."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
        refs.write("5")
    return _status_kb("VmRSS") / 1024.0


def peak_rss_mb() -> float:
    return _status_kb("VmHWM") / 1024.0


# --------------------------------------------------------------------- #
# set-up time in fresh processes
# --------------------------------------------------------------------- #

def timed_setups(setup: Callable[[], float],
                 repeats: int) -> List[Tuple[float, float]]:
    """Run ``setup`` (which returns its own elapsed seconds) in
    ``repeats`` forked children, one after another, so each starts from
    the parent's imports but with cold program caches.  Each child first
    times the reference kernel; returns ``(setup seconds, kernel ms)``
    pairs.  Call before the parent builds any sketch or starts any
    thread."""
    from refkernel import ReferenceKernel
    kernel = ReferenceKernel()
    out = []
    for _ in range(repeats):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: measure, report, leave without cleanup
            code = 1
            try:
                os.close(read_fd)
                ref_ms = median([kernel.time_ms() for _ in range(5)])
                os.write(write_fd, pickle.dumps((setup(), ref_ms)))
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(write_fd)
        chunks = []
        while True:
            chunk = os.read(read_fd, 4096)
            if not chunk:
                break
            chunks.append(chunk)
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0 or not chunks:
            raise RuntimeError("set-up failed in a forked child")
        out.append(pickle.loads(b"".join(chunks)))
    return out


class TraceMaker:
    """Wraps generated source-address columns in program ``Trace``
    objects.  Only the source address (the monitored key) varies; the
    other columns are shared constants and timestamps are spread evenly
    over ``span_s`` seconds from each trace's start."""

    def __init__(self, packets: int, span_s: float) -> None:
        from repro.dataplane.trace import Trace
        self._trace = Trace
        self._clock = np.linspace(0.0, span_s, packets, endpoint=False)
        self._zero32 = np.zeros(packets, dtype=np.uint32)
        self._zero16 = np.zeros(packets, dtype=np.uint16)
        self._proto = np.full(packets, 6, dtype=np.uint8)
        self._size = np.full(packets, 64, dtype=np.uint16)

    def make(self, src: np.ndarray, start_s: float):
        return self._trace(self._clock + start_s, src, self._zero32,
                           self._zero16, self._zero16, self._proto,
                           self._size)


def cs_path(sketch) -> str:
    """Which Count Sketch bulk path the sketch's levels take: the program's
    own packing test, asked of a live level (not inferred from width)."""
    packed, _bits = sketch.levels[0].sketch._packed_state()
    return "generic" if packed is None else "packed"


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def settle() -> float:
    """Collect garbage outside a timed region, so collections of earlier
    epochs' garbage do not land at random inside later timings.  Returns
    the collection's milliseconds: workloads report their median as
    ``bench.settle_ms``, so growth in the program's garbage-collection
    cost, which no timed region sees, stays visible."""
    start = now()
    gc.collect()
    return (now() - start) * 1e3


def now() -> float:
    return time.perf_counter()
