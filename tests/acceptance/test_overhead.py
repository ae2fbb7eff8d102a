"""Instrumentation overhead guard.

Two contracts from DESIGN.md §8, measured on the service's ingest path
(one :meth:`Controller.ingest` per chunk of the service's chunk source,
as the ingest loop runs it):

1. with the default no-op registry installed, the instrumented ingest
   path costs within 5% of a raw (uninstrumented) loop of key
   extraction plus the bulk update body over the same chunks;
2. with a real :class:`MetricsRegistry` installed, ingest stays under
   2x the raw loop (instrumentation is chunk-granularity, never
   per-packet, so the overhead is bounded by chunk count).

Timings use min-over-repeats (the standard way to strip scheduler
noise) with interleaved measurement, plus one retry, so the 5% bound is
a real regression tripwire rather than a coin flip.
"""

import itertools
import time

import numpy as np
import pytest

from repro.controlplane.controller import Controller
from repro.core.universal import UniversalSketch
from repro.dataplane.keys import src_ip_key
from repro.dataplane.replay import LoopingChunkSource
from repro.dataplane.trace import Trace
from repro.obs import (
    MetricsRegistry,
    NULL_REGISTRY,
    get_registry,
    use_registry,
)

pytestmark = pytest.mark.acceptance

PACKETS = 120_000
FLOWS = 20_000
CHUNK = 8192
REPEATS = 5


@pytest.fixture(scope="module")
def chunks(zipf_keys_factory):
    """One pass of the service's chunk source over a trace whose source
    addresses are a seeded Zipf key stream."""
    keys = zipf_keys_factory(packets=PACKETS, flows=FLOWS, skew=1.1, seed=7)
    zeros = np.zeros(PACKETS, dtype=np.uint32)
    trace = Trace(np.arange(PACKETS, dtype=np.float64), keys, zeros,
                  zeros, zeros, zeros)
    source = LoopingChunkSource(trace, chunk_size=CHUNK)
    return list(itertools.islice(source, -(-PACKETS // CHUNK)))


def _sketch():
    return UniversalSketch(levels=10, rows=5, width=2048, heap_size=64,
                           seed=1)


def _time_baseline(chunks):
    """The uninstrumented reference: key extraction and the bulk update
    body per chunk, with no registry lookups at all."""
    sketch = _sketch()
    start = time.perf_counter()
    for chunk in chunks:
        keys = chunk.key_array(src_ip_key)
        sketch._update_array(keys, None, len(keys))
    return time.perf_counter() - start


def _time_ingest(chunks, registry=None):
    controller = Controller(sketch_factory=_sketch, key_function=src_ip_key)

    def run():
        start = time.perf_counter()
        for chunk in chunks:
            controller.ingest(chunk)
        return time.perf_counter() - start

    if registry is None:
        return run()
    with use_registry(registry):
        return run()


def _interleaved_minimums(chunks, make_registry):
    """Min-over-repeats for baseline and ingest, measured alternately so
    machine-load drift hits both sides equally."""
    baseline, ingest = [], []
    for _ in range(REPEATS):
        baseline.append(_time_baseline(chunks))
        ingest.append(_time_ingest(chunks, make_registry()))
    return min(baseline), min(ingest)


def test_noop_registry_within_5_percent_of_raw(chunks):
    assert get_registry() is NULL_REGISTRY  # the documented default
    _time_baseline(chunks)  # warm caches / JIT-less but import-lazy paths
    _time_ingest(chunks)
    ratio = None
    for _attempt in range(2):  # one retry absorbs a rogue scheduler blip
        base, noop = _interleaved_minimums(chunks, lambda: None)
        ratio = noop / base
        if ratio <= 1.05:
            break
    assert ratio <= 1.05, (
        f"no-op instrumentation costs {ratio:.3f}x the raw update loop")


@pytest.mark.slow
def test_live_registry_within_2x_of_raw(chunks):
    _time_baseline(chunks)
    registry_box = []

    def make_registry():
        registry_box.append(MetricsRegistry())
        return registry_box[-1]

    base, instrumented = _interleaved_minimums(chunks, make_registry)
    ratio = instrumented / base
    assert ratio <= 2.0, (
        f"live instrumentation costs {ratio:.3f}x the raw update loop")
    # And it actually recorded: one span per chunk on the last run.
    hist = registry_box[-1].get("univmon_epoch_ingest_seconds")
    assert hist.count == len(chunks) == -(-PACKETS // CHUNK)
