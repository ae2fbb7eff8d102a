"""switch_zipf: one switch, one controller, max-rate epochs.

Mirrors ``univmon run`` at its defaults: a ``Controller`` on a
``MonitoredSwitch`` with the 512 KiB universal sketch (levels 12, rows 5,
heap 64, hence width 1965 and the generic Count Sketch path) and the
default tasks hh 0.005, ddos, change and entropy.  The loop is closed and
runs at maximum rate: one whole epoch per ``Controller.ingest`` +
``Controller.seal_epoch`` call, as ``run_epoch`` does it.  Epochs are cut
by packet count (65536 packets, Zipf 1.1 over 1400 source addresses,
about 47 packets per distinct key), so counts and accuracy repeat exactly
on a seed.  After each seal the benchmark asks the sealed epoch the
``univmon query`` default batch four times (one kind of query, so the
reported percentiles do not fall between query kinds).

Times are divided by a reference kernel timed on the same thread between
epochs (see ``refkernel``); raw values are kept as diagnostics.  The
traced phase records spans only around ingest, seal and the queries.
"""

from __future__ import annotations

import numpy as np

import common
from inputs import EpochTruth, ZipfSource
from refkernel import ReferenceKernel, scale
from tracer import recording

EPOCH_PACKETS = 65536
EPOCH_S = 5.0  # the controller's epoch length; timestamps only
UNIVERSE = 1400
SKEW = 1.1
ALPHA = 0.005
WARMUP = 5
#: 220 seals put 22 samples beyond p90; 880 queries put 44 beyond p95.
MIN_EPOCHS = 220
#: Accuracy is the mean over this many epochs.
ACC_EPOCHS = 200
WIRE_EPOCHS = 64
WIRE_EVERY = 8
REF_RADIUS = 10
QUERIES_PER_EPOCH = 4


def build():
    from repro.controlplane import (ChangeDetectionApp, Controller, DDoSApp,
                                    EntropyApp, HeavyHitterApp)
    from repro.core.universal import UniversalSketch
    from repro.dataplane.keys import src_ip_key

    def factory():
        return UniversalSketch.for_memory_budget(
            512 * 1024, levels=12, rows=5, heap_size=64, seed=1)

    controller = Controller(sketch_factory=factory, key_function=src_ip_key,
                            epoch_seconds=EPOCH_S)
    controller.register(HeavyHitterApp(alpha=ALPHA))
    controller.register(DDoSApp(threshold_k=5000))
    controller.register(ChangeDetectionApp(phi=0.05))
    controller.register(EntropyApp())
    return controller


def setup_seconds() -> float:
    start = common.now()
    build()
    return common.now() - start


def run(seed: int, seconds: float, tracer=None) -> common.Outcome:
    from repro.core.query import QueryEngine, Statistic
    from repro.network.codec import DeltaEncoder

    out = common.Outcome()
    source = ZipfSource(seed, tag=1, keys=UNIVERSE, skew=SKEW,
                        packets=EPOCH_PACKETS)
    traces = common.TraceMaker(EPOCH_PACKETS, EPOCH_S)
    kernel = ReferenceKernel()
    batch = tuple(Statistic.parse(spec) for spec in common.QUERY_SPECS)
    baseline = common.reset_peak_rss()
    controller = build()
    for w in range(WARMUP):
        controller.run_epoch(traces.make(source.epoch(-1 - w), EPOCH_S * w),
                             w)

    ingest_s, seal_s, query_s, ref_ms, settle_ms = [], [], [], [], []
    f0_err, ent_err, f1, wire, fill = [], [], [], [], []
    if tracer is not None:
        from layers import install
        install(tracer)
    start = common.now()
    try:
        i = 0
        while i < MIN_EPOCHS or common.now() - start < seconds:
            src = source.epoch(i)
            trace = traces.make(src, EPOCH_S * (WARMUP + i))
            settle_ms.append(common.settle())
            ref_ms.append(kernel.time_ms())
            answers = []
            with recording(tracer, tag=i):
                t0 = common.now()
                controller.ingest(trace)
                t1 = common.now()
                sealed, report = controller.seal_epoch(WARMUP + i,
                                                       trace=trace)
                t2 = common.now()
                for _ in range(QUERIES_PER_EPOCH):
                    q0 = common.now()
                    answers.append(QueryEngine(sealed).evaluate_many(batch))
                    query_s.append(common.now() - q0)
            ingest_s.append(t1 - t0)
            seal_s.append(t2 - t1)
            for answer in answers:
                out.attempted += 1
                out.check(set(answer) == common.QUERY_NAMES,
                          f"epoch {i}: query answered {sorted(answer)}")

            truth = EpochTruth.of(src, ALPHA)
            hitters = report["heavy_hitters"]["keys"]
            out.attempted += 2
            out.check(report.packets == EPOCH_PACKETS
                      and sealed.packets == EPOCH_PACKETS,
                      f"epoch {i}: report covers {report.packets} packets")
            out.check(all(truth.fed(k) for k in hitters),
                      f"epoch {i}: reported a heavy hitter never fed")
            if i < ACC_EPOCHS:
                f0_err.append(truth.f0_rel_err(
                    report["ddos"]["distinct_sources"]))
                ent_err.append(truth.entropy_rel_err(
                    report["entropy"]["entropy"]))
                f1.append(truth.hh_f1(hitters))
                fill.append(len(sealed.levels[-1].topk) / sealed.heap_size)
                if i < WIRE_EPOCHS and i % WIRE_EVERY == 0:
                    wire.append(len(DeltaEncoder().encode(sealed)))
            i += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = common.now() - start
    out.epochs = i

    epoch_s = np.add(ingest_s, seal_s)
    norm = scale(ref_ms, REF_RADIUS)
    seal_ms = np.asarray(seal_s) * 1e3
    query_ms = np.asarray(query_s) * 1e3
    m = out.metrics
    m["ingest_pps"] = EPOCH_PACKETS * i / float(np.sum(epoch_s * norm))
    m["seal_ms_p50"] = common.percentile(seal_ms * norm, 50)
    m["seal_ms_p90"] = common.percentile(seal_ms * norm, 90)
    query_norm = np.repeat(norm, QUERIES_PER_EPOCH)
    m["query_ms_p50"] = common.percentile(query_ms * query_norm, 50)
    m["query_ms_p95"] = common.percentile(query_ms * query_norm, 95)
    m["peak_rss_mb"] = common.peak_rss_mb() - baseline
    m["f0_rel_err"] = common.mean(f0_err)
    m["entropy_rel_err"] = common.mean(ent_err)
    m["hh_f1"] = common.mean(f1)
    m["wire_bytes_per_epoch"] = common.median(wire)

    d = out.diagnostics
    d["epochs"] = i
    d["measured_s"] = elapsed
    d["bench.ref_ms"] = common.median(ref_ms)
    d["bench.settle_ms"] = common.median(settle_ms)
    d["bench.raw.ingest_pps"] = EPOCH_PACKETS * i / float(np.sum(epoch_s))
    d["bench.raw.seal_ms_p50"] = common.percentile(seal_ms, 50)
    d["bench.raw.seal_ms_p90"] = common.percentile(seal_ms, 90)
    d["bench.raw.query_ms_p50"] = common.percentile(query_ms, 50)
    d["bench.raw.query_ms_p95"] = common.percentile(query_ms, 95)
    d["core.heap.deepest_fill"] = common.median(fill)
    d["detect.confirmed_epochs"] = 0
    d["offered"] = "closed loop, max rate"
    d["cs_path"] = common.cs_path(sealed)

    out.percentile_guard("seal_ms_p90", i, 90)
    out.percentile_guard("query_ms_p95", len(query_s), 95)
    return out
