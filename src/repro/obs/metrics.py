"""Metric primitives and the registry that owns them.

Three metric types, mirroring the Prometheus data model (the de-facto
exposition format for network monitoring systems):

- :class:`Counter` — monotonically non-decreasing total (offers,
  evictions, packets ingested);
- :class:`Gauge` — a value that can go anywhere (heap occupancy,
  packets/sec of the last run);
- :class:`Histogram` — fixed upper-bound buckets plus sum/count
  (update/query/merge latencies).  Bucket bounds are fixed at creation,
  so two registries with the same metric merge bucket-by-bucket.

A metric is identified by ``(family name, label set)``; the registry
get-or-creates on access, so instrumentation points never need to check
whether a metric exists.  :class:`NullRegistry` implements the same
surface with shared no-op metric objects — the global default, keeping
uninstrumented deployments at zero cost.
"""

from __future__ import annotations

import bisect
import re
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.timing import NULL_SPAN, Span

#: Default histogram bounds (seconds): spans from 10 microseconds to
#: 10 seconds, log-spaced — wide enough for a chunk update and an epoch
#: merge alike.  The overflow (+inf) bucket is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, str]) -> LabelSet:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise ConfigurationError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def render_name(name: str, labels: LabelSet) -> str:
    """``name{k="v",...}`` — the exposition identity of one metric."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically non-decreasing total.

    Mutations are lock-protected: ``_value += amount`` is a
    read-modify-write across several bytecodes, so unsynchronised
    increments from concurrent scrape/serve threads lose updates.
    """

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value (may move in either direction)."""

    __slots__ = ("name", "labels", "_value", "touched", "_lock")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self.touched = False
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)
            self.touched = True

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount
            self.touched = True

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram: counts per upper bound, plus sum/count.

    ``bounds`` are the *finite* inclusive upper bounds, strictly
    ascending; an overflow bucket (conceptually ``+Inf``) is always
    present, so every observation lands in exactly one bucket and the
    bucket counts conserve the observation count.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "_sum",
                 "_count", "_lock")

    def __init__(self, name: str, labels: LabelSet = (),
                 bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ConfigurationError(
                f"histogram {name!r} needs at least one bucket bound")
        if any(b != b or b in (float("inf"), float("-inf")) for b in bounds):
            raise ConfigurationError(
                f"histogram {name!r} bounds must be finite (got {bounds})")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name!r} bounds must be strictly ascending "
                f"(got {bounds})")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        bucket = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[bucket] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def cumulative_counts(self) -> List[int]:
        """Per-bound cumulative counts, Prometheus ``le`` style; the last
        entry (the ``+Inf`` bucket) always equals :attr:`count`."""
        with self._lock:      # consistent snapshot vs a mid-observe writer
            counts = list(self.bucket_counts)
        total, out = 0, []
        for c in counts:
            total += c
            out.append(total)
        return out


class MetricsRegistry:
    """Get-or-create store for all of a process's metrics.

    Parameters
    ----------
    clock:
        The time source handed to every :meth:`span`; injectable so
        latency tests are deterministic.
    """

    enabled = True

    def __init__(self,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._metrics: Dict[Tuple[str, LabelSet], object] = {}
        self._types: Dict[str, str] = {}
        self._help: Dict[str, str] = {}
        self._bounds: Dict[str, Tuple[float, ...]] = {}
        # Guards family registration and metric creation: concurrent
        # get-or-create from serving/scrape/ingest threads must never
        # hand two callers distinct metric objects for one identity.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # metric access
    # ------------------------------------------------------------------ #

    def _family(self, name: str, kind: str, help: str) -> None:
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        existing = self._types.get(name)
        if existing is None:
            self._types[name] = kind
            self._help[name] = help
        elif existing != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as {existing}, "
                f"cannot re-register as {kind}")
        elif help and not self._help[name]:
            self._help[name] = help

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)    # lock-free fast path
        if type(metric) is not Counter:
            with self._lock:
                self._family(name, "counter", help)
                metric = self._metrics.get(key)
                if metric is None:
                    metric = self._metrics[key] = Counter(name, key[1])
        return metric  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)
        if type(metric) is not Gauge:
            with self._lock:
                self._family(name, "gauge", help)
                metric = self._metrics.get(key)
                if metric is None:
                    metric = self._metrics[key] = Gauge(name, key[1])
        return metric  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  **labels: str) -> Histogram:
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)    # lock-free fast path: an
        # existing metric whose bounds already match never needs the
        # lock — callers that pass ``buckets`` on every observation
        # (the per-request serving path does) must not serialize
        # against the ingest thread here.
        if type(metric) is Histogram and (
                buckets is None
                or metric.bounds == tuple(float(b) for b in buckets)):
            return metric  # type: ignore[return-value]
        with self._lock:
            self._family(name, "histogram", help)
            bounds = tuple(float(b) for b in buckets) \
                if buckets is not None \
                else self._bounds.get(name, DEFAULT_LATENCY_BUCKETS)
            registered = self._bounds.setdefault(name, bounds)
            if bounds != registered:
                raise ConfigurationError(
                    f"histogram {name!r} already registered with buckets "
                    f"{registered}, cannot change to {bounds}")
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = Histogram(name, key[1],
                                                        bounds=registered)
        return metric  # type: ignore[return-value]

    def span(self, name: str, help: str = "",
             buckets: Optional[Sequence[float]] = None,
             **labels: str) -> Span:
        """A timer recording into the named latency histogram."""
        return Span(self.histogram(name, help=help, buckets=buckets,
                                   **labels), clock=self._clock)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def kind(self, name: str) -> Optional[str]:
        return self._types.get(name)

    def help(self, name: str) -> str:
        return self._help.get(name, "")

    def metrics(self) -> Iterator[object]:
        """All metric objects, family-sorted then label-sorted."""
        with self._lock:   # stable snapshot vs concurrent creation
            snapshot = sorted(self._metrics.items())
        for _key, metric in snapshot:
            yield metric

    def families(self) -> List[str]:
        return sorted(self._types)

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str, **labels: str) -> Optional[object]:
        """The metric at ``(name, labels)``, or None (no creation)."""
        return self._metrics.get((name, _labelset(labels)))

    def clear_family(self, name: str) -> int:
        """Drop every metric of family ``name`` (all label sets).

        The family's type/help registration survives, so the series can
        be re-created with the same kind.  For instrumentation whose
        label space shrinks between runs: without this, stale series
        would keep exporting their last values forever.  Returns the
        number of metrics removed.
        """
        with self._lock:
            doomed = [key for key in self._metrics if key[0] == name]
            for key in doomed:
                del self._metrics[key]
        return len(doomed)

    # ------------------------------------------------------------------ #
    # merge
    # ------------------------------------------------------------------ #

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """A new registry equal to observing both input streams.

        Counters and histograms add (histograms must share bucket
        bounds); for gauges the *other* side wins when it has been
        written — merge order is observation order, so ``a.merge(b)``
        models "everything in ``a`` happened, then everything in ``b``".
        """
        out = MetricsRegistry(clock=self._clock)
        for source in (self, other):
            with source._lock:
                items = sorted(source._metrics.items())
            for (name, labels), metric in items:
                kwargs = dict(metric.labels)
                if isinstance(metric, Counter):
                    out.counter(name, help=source.help(name),
                                **kwargs).inc(metric.value)
                elif isinstance(metric, Gauge):
                    if metric.touched:
                        out.gauge(name, help=source.help(name),
                                  **kwargs).set(metric.value)
                    else:
                        out.gauge(name, help=source.help(name), **kwargs)
                elif isinstance(metric, Histogram):
                    target = out.histogram(name, help=source.help(name),
                                           buckets=metric.bounds, **kwargs)
                    for i, c in enumerate(metric.bucket_counts):
                        target.bucket_counts[i] += c
                    target._sum += metric.sum
                    target._count += metric.count
        return out


# --------------------------------------------------------------------- #
# the no-op default
# --------------------------------------------------------------------- #

class _NullCounter:
    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0.0
    touched = False

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    sum = 0.0
    count = 0

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """Same surface as :class:`MetricsRegistry`; every operation is a
    no-op on a shared singleton — no allocation, no clock reads, no
    dictionary lookups on the hot path."""

    enabled = False

    def counter(self, name: str, help: str = "", **labels: str):
        return _NULL_COUNTER

    def gauge(self, name: str, help: str = "", **labels: str):
        return _NULL_GAUGE

    def histogram(self, name: str, help: str = "", buckets=None,
                  **labels: str):
        return _NULL_HISTOGRAM

    def span(self, name: str, help: str = "", buckets=None, **labels: str):
        return NULL_SPAN

    def metrics(self) -> Iterator[object]:
        return iter(())

    def families(self) -> List[str]:
        return []

    def kind(self, name: str) -> Optional[str]:
        return None

    def help(self, name: str) -> str:
        return ""

    def get(self, name: str, **labels: str) -> Optional[object]:
        return None

    def clear_family(self, name: str) -> int:
        return 0

    def __len__(self) -> int:
        return 0


NULL_REGISTRY = NullRegistry()

_global_registry = NULL_REGISTRY


def get_registry():
    """The process-global registry (the no-op registry by default)."""
    return _global_registry


def set_registry(registry):
    """Install ``registry`` globally; returns the previous one."""
    global _global_registry
    previous = _global_registry
    _global_registry = registry
    return previous


@contextmanager
def use_registry(registry):
    """Scope the global registry to a ``with`` block."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
