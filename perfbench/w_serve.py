"""serve_query: the always-on service under open-loop reads and writes.

Mirrors ``univmon serve --detect`` at its defaults: ``MonitoringService``
with the 512 KiB geometry, 4096-packet chunks, ring 8, memo 128, the
default detection rules with their actions removed, and a live metrics
registry.  Epochs are 0.18 s of wall clock rather than the default 1 s,
so a run seals enough epochs (>= 100) to put ten samples beyond the
reported seal p90.  An epoch is sealed after the first chunk ingested
past its deadline; 0.18 s puts that deadline about half a chunk interval
away from the fifth chunk's end either way, so while the source keeps
up every epoch holds five chunks.

Packets: a paced chunk source on the ingest thread offers 100 kpps of
distinct-heavy traffic, about 1.3 packets per distinct key in each chunk
(Zipf 0.6 over 6000 addresses; every chunk is the same multiset in its
own order, see ``inputs.FixedMixSource``).  That keeps the ingest thread
busy about a third of the time, so it keeps up even while two other
CPU-bound processes share a 2-vCPU host (busy share about 0.5 then; at
150 kpps it reached 0.85 and the source fell behind).  It is open loop:
chunk ``k`` is due at ``k * 4096 / rate`` and a late source is recorded,
not caught up silently.  A late source hands out its overdue chunks at
no more than 1.75 times the nominal rate, like a tap buffer drained
faster than line rate but not instantly: when the whole process was
frozen for 0.7 s, an unlimited catch-up put 2-3 times the usual packets
into the next two epochs and the default volume-surge rule (packets
above twice the baseline) confirmed a detection.  A run lasts until 1010
chunks were due, so ten samples lie beyond the ingest lateness p99.

Queries: a separate single-threaded client process (``client.py``) sends
40 requests/s on a fixed schedule, one connection at a time.  Three in
four are dashboard queries (latest epoch, the statistic set the service
already evaluated at seal, so they hit the memo); the rest are ad-hoc (an
epoch 1-3 back in the ring, ``hh:`` and ``moment:`` parameters from 200
combinations, a working set larger than the 128-entry memo).  The mix is
uneven on purpose: with half of each, the median would sit on the
boundary between memo hits and misses.  Going at most three epochs back
in a ring of eight leaves the client's view of the newest epoch four
epochs (0.8 s) to fall behind before an ad-hoc request names an epoch
that has left the ring.

It is the only workload where reads and writes share a process and the
GIL, where memory grows with rate x epoch length (the ingest loop keeps
every chunk of the open epoch), and where obs instrumentation is live.
Times are scaled by a reference kernel the ingest thread times once per
epoch, in the server process, in a gap where no request is due or in
flight (see ``PacedSource`` and ``run``); raw values are diagnostics.
Heavy hitters are scored after the run, on the epochs left in the ring,
so no benchmark query shares the GIL with the measured requests.

Traced shares here are of the measured window's wall time on each
thread, so the remainder also holds the threads' idle time and the paced
source itself.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from typing import List

import numpy as np

from repro.obs.metrics import MetricsRegistry

import common
from inputs import EpochTruth, FixedMixSource, query_schedule
from refkernel import NOMINAL_MS, ReferenceKernel

CHUNK = 4096
RATE_PPS = 100_000
EPOCH_S = 0.18
RING = 8
MEMO = 128
UNIVERSE = 6000
SKEW = 0.6
POOL = 256
ALPHA = 0.005
QUERY_RATE = 40.0
DASHBOARD_SHARE = 0.75
FRACTIONS = tuple(round(0.001 * k, 3) for k in range(1, 21))
MOMENTS = tuple(round(1.1 + 0.1 * k, 1) for k in range(10))
MAX_BACK = 3
WARMUP_EPOCHS = RING
#: 1010 chunks and requests put ten samples beyond p99 lateness.
MIN_SAMPLES = 1010
#: A generator whose backlog grows runs later and later, which moves its
#: p95 lateness; one host stall that it recovers from does not.
INGEST_LATENESS_MS = 2e3 * CHUNK / RATE_PPS   # two chunk intervals
CLIENT_LATENESS_MS = 100.0
MAX_SEAL_OVERLAP = 0.5
#: Fastest hand-out of overdue chunks, as a multiple of the nominal rate;
#: below the 2x packet rise that the default volume-surge rule needs.
CATCH_UP = 1.75
#: Kernel timings either side of a sample whose median scales it.
REF_RADIUS = 10
#: A kernel timing starts at least REQUEST_AFTER_S after one request is
#: due (raw query p95 reads 4-7 ms; a request still in flight counts as a
#: ref overlap) and leaves REF_SLOT_S (two to three kernel runs) before
#: REQUEST_BEFORE_S ahead of the next one.
REQUEST_AFTER_S = 0.010
REQUEST_BEFORE_S = 0.001
REF_SLOT_S = 0.006
MAX_REF_OVERLAP = 0.02
HERE = os.path.dirname(os.path.abspath(__file__))


class RecordingRegistry(MetricsRegistry):
    """The live metrics registry, also keeping the start and end of every
    chunk ingest and epoch seal the program times through it."""

    INGEST = "univmon_epoch_ingest_seconds"
    SEAL = "univmon_service_seal_seconds"

    def __init__(self) -> None:
        super().__init__()
        self.intervals = {self.INGEST: [], self.SEAL: []}

    def span(self, name, help="", buckets=None, **labels):
        span = super().span(name, help=help, buckets=buckets, **labels)
        out = self.intervals.get(name)
        return span if out is None else _Interval(span, out)


class _Interval:
    __slots__ = ("_span", "_out", "_start")

    def __init__(self, span, out: list) -> None:
        self._span = span
        self._out = out

    def __enter__(self):
        self._start = time.monotonic()
        self._span.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._span.__exit__(*exc)
        self._out.append((self._start, time.monotonic()))


def _rules():
    from repro.detect.pipeline import DEFAULT_RULES, rules_from_spec
    return rules_from_spec({"rules": [dict(rule, actions=[])
                                      for rule in DEFAULT_RULES]})


def build(chunks):
    from repro.controlplane.controller import Controller
    from repro.core.universal import UniversalSketch
    from repro.dataplane.keys import src_ip_key
    from repro.detect import DetectionPipeline
    from repro.service import MonitoringService, ServiceConfig

    def factory():
        return UniversalSketch.for_memory_budget(
            512 * 1024, levels=12, rows=5, heap_size=64, seed=1)

    controller = Controller(sketch_factory=factory, key_function=src_ip_key,
                            epoch_seconds=EPOCH_S)
    controller.register(DetectionPipeline(_rules()))
    config = ServiceConfig(host="127.0.0.1", port=0, epoch_seconds=EPOCH_S,
                           ring_depth=RING, memo_size=MEMO, chunk_size=CHUNK)
    return MonitoringService(controller, chunks, config)


class PacedSource:
    """Open-loop chunk feed, run by the ingest thread through ``next``.

    Chunk ``k`` is due at ``t0 + k * interval``; when the source runs
    late, chunks go out at least ``interval / CATCH_UP`` apart.  The time
    between handing out a chunk and the next ``next`` call is the ingest
    thread's busy time (ingest, and seal when one falls due).  After each
    seal the source notes the newly published epoch, which chunks it
    covered and what the service pre-evaluated for it.  It then times the
    reference kernel once, in the first gap before a chunk is due where no
    request of the client's fixed schedule (one every ``1 / QUERY_RATE``
    seconds from ``requests_from``) is due or in flight, so the kernel does
    not hold the GIL while the server handles a request.
    """

    def __init__(self, pool: List[np.ndarray], rate_pps: float) -> None:
        self.pool = pool
        self.interval = CHUNK / rate_pps
        self._traces = common.TraceMaker(CHUNK, self.interval)
        self.service = None
        self.tracer = None
        self.stopping = threading.Event()
        self.t0 = 0.0
        self.k = 0
        self.chunks: List[tuple] = []   # (due, start, handed, busy)
        self.epochs: List[dict] = []
        self.ref: List[tuple] = []      # (start, end, kernel ms)
        self.requests_from = None       # set before the client starts
        self._kernel = ReferenceKernel()
        self._ref_due = False
        self._boundary = 0
        self._seen = -1
        self._last_start = -math.inf

    def __iter__(self):
        return self

    def _note_epoch(self) -> None:
        record = self.service.ring.latest()
        if record is None or record.epoch_index == self._seen:
            return
        self._seen = record.epoch_index
        detect = record.report.results.get("detect", {})
        self.epochs.append({
            "epoch": record.epoch_index, "first": self._boundary,
            "last": self.k, "packets": record.packets,
            "f0": record.statistics["cardinality"],
            "entropy": record.statistics["entropy"],
            "alerting": list(detect.get("alerting", ())),
            "done": time.monotonic()})
        self._boundary = self.k
        self._ref_due = True

    def _gap(self, now: float) -> float:
        """Earliest start, not before ``now``, of a kernel timing that no
        request is due or in flight during."""
        if self.requests_from is None:
            return now
        interval = 1.0 / QUERY_RATE
        j = math.floor((now - self.requests_from) / interval)
        while True:
            due = self.requests_from + j * interval
            start = max(now, due + REQUEST_AFTER_S)
            if start + REF_SLOT_S <= due + interval - REQUEST_BEFORE_S:
                return start
            j += 1

    def _time_reference(self, chunk_due: float) -> None:
        start = self._gap(time.monotonic())
        if start + REF_SLOT_S > chunk_due:
            return  # no gap before the next chunk: try after it
        wait = start - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        begin = time.monotonic()
        ms = self._kernel.time_ms()
        self.ref.append((begin, time.monotonic(), ms))
        self._ref_due = False

    def __next__(self):
        now = time.monotonic()
        if self.k:
            due, start, handed, _ = self.chunks[-1]
            self.chunks[-1] = (due, start, handed, now - handed)
        self._note_epoch()
        if self.tracer is not None:
            self.tracer.set_tag(self.service.ingest.epochs_sealed)
        if self.stopping.is_set():
            raise StopIteration
        if not self.k:
            self.t0 = now
        due = self.t0 + self.k * self.interval
        ready = max(due, self._last_start + self.interval / CATCH_UP)
        if self._ref_due:
            self._time_reference(ready)
        wait = ready - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        start = self._last_start = time.monotonic()
        chunk = self._traces.make(self.pool[self.k % len(self.pool)],
                                  self.k * self.interval)
        self.k += 1
        handed = time.monotonic()
        self.chunks.append((due, start, handed, 0.0))
        return chunk


class _SetupSource:
    """Set-up timing: marks the first pull, then holds the ingest thread."""

    def __init__(self, started: threading.Event) -> None:
        self.started = started

    def __iter__(self):
        return self

    def __next__(self):
        self.started.set()
        time.sleep(60.0)
        raise StopIteration


def setup_seconds() -> float:
    from repro.obs.metrics import set_registry
    started = threading.Event()
    start = common.now()
    set_registry(RecordingRegistry())
    service = build(_SetupSource(started))
    service.start()
    started.wait(30.0)
    return common.now() - start


def _client(port: int, start: float, plan) -> list:
    spec = json.dumps({"port": port, "start": start,
                       "interval": 1.0 / QUERY_RATE, "plan": plan})
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "client.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        stdout, _ = proc.communicate(spec.encode(), timeout=
                                     len(plan) / QUERY_RATE + 60.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"query client exited with {proc.returncode}")
    return json.loads(stdout)


def _seal_latencies(registry, lo: float, hi: float) -> List[tuple]:
    """(start, end) per seal that ended inside the window: from the end of
    the epoch's last chunk ingest to its ring publication."""
    ingests = registry.intervals[RecordingRegistry.INGEST]
    ends = np.array([e for _, e in ingests])
    out = []
    for seal_start, seal_end in registry.intervals[RecordingRegistry.SEAL]:
        if not lo <= seal_end <= hi:
            continue
        before = ends[ends <= seal_start]
        if len(before):
            out.append((float(before[-1]), seal_end))
    return out


def _overlapping(rows, spans) -> int:
    """Requests in flight (sent to answered) during any of ``spans``."""
    starts = np.array([span[0] for span in spans])
    ends = np.array([span[1] for span in spans])
    return sum(1 for row in rows
               if np.any((starts < row[2]) & (row[1] < ends)))


def run(seed: int, seconds: float, tracer=None) -> common.Outcome:
    from repro.core.query import QueryEngine, Statistic
    from repro.network.codec import DeltaEncoder
    from repro.obs.metrics import use_registry

    out = common.Outcome()
    mix = FixedMixSource(seed, tag=3, keys=UNIVERSE, skew=SKEW,
                         packets=CHUNK)
    pool = [mix.epoch(i) for i in range(POOL)]
    duration = max(seconds, MIN_SAMPLES / QUERY_RATE,
                   MIN_SAMPLES * CHUNK / RATE_PPS)
    plan = query_schedule(seed, int(round(duration * QUERY_RATE)),
                          DASHBOARD_SHARE, FRACTIONS, MOMENTS, MAX_BACK)
    source = PacedSource(pool, RATE_PPS)
    baseline = common.reset_peak_rss()
    registry = RecordingRegistry()
    with use_registry(registry):
        if tracer is not None:
            from layers import install
            install(tracer)
        service = build(source)
        source.service = service
        source.tracer = tracer
        if tracer is not None:
            tracer.wrap(service.ingest, "on_epoch", "service.publish")
        service.start()
        try:
            while len(service.ring) < WARMUP_EPOCHS:
                if not service.ingest.is_alive():
                    raise RuntimeError(f"ingest died: {service.ingest.error}")
                time.sleep(0.05)
            lo = time.monotonic() + 0.5
            source.requests_from = lo
            if tracer is not None:
                tracer.start()
            rows = _client(service.port, lo, plan)
            hi = time.monotonic()
            if tracer is not None:
                tracer.stop()
        finally:
            source.stopping.set()
            if tracer is not None:
                tracer.uninstall()
            service.stop()
        records = service.ring.records()
        wire = [len(DeltaEncoder().encode(r.sketch)) for r in records]
        builds = registry.get("univmon_query_snapshot_builds_total")
        confirmed = sum(
            metric.value for metric in registry.metrics()
            if getattr(metric, "name", "") ==
            "univmon_detect_confirmed_epochs_total")
    peak = common.peak_rss_mb() - baseline

    # -- output checks ------------------------------------------------- #
    failed_requests = sum(1 for row in rows if not row[4])
    out.attempted += len(rows)
    out.failed += failed_requests
    if failed_requests:
        out.errors.append(f"{failed_requests} /query requests failed")
    out.attempted += 2
    out.check(service.ingest.error is None,
              f"ingest thread error: {service.ingest.error!r}")
    out.check(builds is not None
              and builds.value == service.ingest.epochs_sealed,
              f"snapshot builds {builds.value if builds else None} != "
              f"epochs sealed {service.ingest.epochs_sealed}")

    # -- epochs inside the window ------------------------------------- #
    # Heavy hitters are asked only now, of the window's epochs still in
    # the ring, so that query never competed with the client's.
    in_ring = {record.epoch_index: record for record in records}
    heavy = Statistic.heavy_hitters(ALPHA)
    window = [e for e in source.epochs if lo <= e["done"] <= hi]
    f0_err, ent_err, f1, alerting = [], [], [], 0
    for epoch in window:
        keys = np.concatenate([pool[k % POOL]
                               for k in range(epoch["first"], epoch["last"])])
        truth = EpochTruth.of(keys, ALPHA)
        out.attempted += 1
        out.check(epoch["packets"] == len(keys),
                  f"epoch {epoch['epoch']}: {epoch['packets']} packets "
                  f"reported for {len(keys)} fed")
        f0_err.append(truth.f0_rel_err(epoch["f0"]))
        ent_err.append(truth.entropy_rel_err(epoch["entropy"]))
        alerting += bool(epoch["alerting"])
        record = in_ring.get(epoch["epoch"])
        if record is not None:
            hitters = [k for k, _ in
                       QueryEngine(record.sketch).evaluate(heavy)]
            out.attempted += 1
            out.check(all(truth.fed(k) for k in hitters),
                      f"epoch {epoch['epoch']}: reported a heavy hitter "
                      f"never fed")
            f1.append(truth.hh_f1(hitters))
    out.epochs = len(window)

    seals = _seal_latencies(registry, lo, hi)
    seal_ms = np.array([(e - s) * 1e3 for s, e in seals])
    latency_ms = np.array([(row[2] - row[0]) * 1e3 if row[4] else np.inf
                           for row in rows])
    client_late = np.array([(row[1] - row[0]) * 1e3 for row in rows])
    chunks = [c for c in source.chunks if lo <= c[0] <= hi]
    # A chunk due inside the window that the source had not handed out
    # when the window closed is at least ``hi - due`` late.
    unhanded = np.arange(len(source.chunks),
                         math.floor((hi - source.t0) / source.interval) + 1)
    ingest_late = np.concatenate([
        [(c[1] - c[0]) * 1e3 for c in chunks],
        (hi - source.t0 - unhanded * source.interval) * 1e3])
    busy = float(sum(c[3] for c in chunks))
    overlap = _overlapping(rows, seals)
    ref_overlap = _overlapping(rows, source.ref)

    # Same-process reference: the kernel timed by the ingest thread once
    # per epoch, between requests.  Scaling each sample by the median of
    # the REF_RADIUS kernel timings either side of it (about 2 s) narrowed
    # the run-to-run spread of every time metric here; the raw values
    # stay as diagnostics.
    ref_t = np.array([begin for begin, _, _ in source.ref])
    ref_ms = np.array([ms for _, _, ms in source.ref])

    def scale(times):
        at = np.searchsorted(ref_t, times)
        return np.array([NOMINAL_MS / np.median(
            ref_ms[max(0, i - REF_RADIUS):i + REF_RADIUS]) for i in at])

    chunk_busy = np.array([c[3] for c in chunks])
    seal_scale = scale([e for _, e in seals])
    query_scale = scale([row[0] for row in rows])
    m = out.metrics
    d = out.diagnostics
    for prefix, seal, query, pps_busy in (
            ("bench.raw.", seal_ms, latency_ms, busy),
            ("", seal_ms * seal_scale, latency_ms * query_scale,
             float(np.sum(chunk_busy * scale([c[2] for c in chunks]))))):
        target = d if prefix else m
        target[prefix + "ingest_pps"] = CHUNK * len(chunks) / pps_busy
        target[prefix + "seal_ms_p50"] = common.percentile(seal, 50)
        target[prefix + "seal_ms_p90"] = common.percentile(seal, 90)
        target[prefix + "query_ms_p50"] = common.percentile(query, 50)
        target[prefix + "query_ms_p95"] = common.percentile(query, 95)
    m["wire_bytes_per_epoch"] = common.median(wire)
    m["f0_rel_err"] = common.mean(f0_err)
    m["entropy_rel_err"] = common.mean(ent_err)
    m["hh_f1"] = common.mean(f1)
    m["peak_rss_mb"] = peak

    d["epochs"] = len(window)
    d["measured_s"] = hi - lo
    d["requests"] = len(rows)
    d["bench.ref_ms"] = common.median(ref_ms)
    d["bench.ref_samples"] = len(ref_ms)
    d["bench.ref_overlap_requests"] = ref_overlap
    d["query_ms_p99"] = common.percentile(latency_ms, 99)
    d["service.ingest.busy_share"] = busy / (hi - lo)
    d["service.seal_overlap_ratio"] = overlap / len(rows)
    d["service.ingest.lateness_ms_p99"] = common.percentile(ingest_late, 99)
    d["service.client.lateness_ms_p99"] = common.percentile(client_late, 99)
    d["detect.confirmed_epochs"] = alerting
    d["offered"] = (f"{RATE_PPS} pkts/s in {CHUNK}-packet chunks, "
                    f"{QUERY_RATE:g} queries/s")
    d["cs_path"] = common.cs_path(records[-1].sketch)

    out.percentile_guard("seal_ms_p90", len(seal_ms), 90)
    out.percentile_guard("query_ms_p95", len(latency_ms), 95)
    out.percentile_guard("ingest_lateness_p99", len(ingest_late), 99)
    out.percentile_guard("client_lateness_p99", len(client_late), 99)
    out.guard("detect.confirmed_epochs", alerting + confirmed,
              alerting + confirmed == 0, "no detection-confirmed epoch")
    for name, late, limit in (("ingest", ingest_late, INGEST_LATENESS_MS),
                              ("client", client_late, CLIENT_LATENESS_MS)):
        p95 = common.percentile(late, 95)
        out.guard(f"{name}_lateness_ms_p95", p95, p95 <= limit,
                  f"{name} generator p95 lateness <= {limit:.1f} ms")
    out.guard("seal_overlap_ratio", d["service.seal_overlap_ratio"],
              d["service.seal_overlap_ratio"] <= MAX_SEAL_OVERLAP,
              f"share of requests in flight during a seal <= "
              f"{MAX_SEAL_OVERLAP:g}")
    out.guard("ref_overlap_ratio", ref_overlap / len(rows),
              ref_overlap / len(rows) <= MAX_REF_OVERLAP,
              f"share of requests in flight during a reference-kernel "
              f"timing <= {MAX_REF_OVERLAP:g}")
    if tracer is not None:
        _http_split(tracer, rows, d)
    return out


def _http_split(tracer, rows, d) -> None:
    """Server-side handling time, and the client latency it leaves."""
    # Earlier spans than the last len(rows) are the client's untimed
    # priming request.
    handle = tracer.durations("service.http.handle")[-len(rows):]
    if not handle:
        return
    d["service.http.handle_ms_p50"] = common.median(handle) * 1e3
    if len(handle) == len(rows):
        wait = [(row[2] - row[0] - h) * 1e3
                for row, h in zip(rows, handle) if row[4]]
        d["service.http.wait_ms_p50"] = common.median(wait)
