"""Which public functions the traced run wraps, and what it reports.

Each wrapped function is assigned to one layer span name below; the
``<span>.share`` metric is that layer's self time over the traced wall
time, which on switch_zipf and fleet_tree covers only the program's own
work (see ``tracer.recording``) and on serve_query is the measured
window on each thread.
Counts that make ratios (heap offers and rejections, memo hits, snapshot
builds, merges, packets per distinct key of each bulk batch) are taken at
the same boundaries.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from tracer import Tracer

def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (see the module doc)."""
    from repro.controlplane import (CardinalityApp, ChangeDetectionApp,
                                    Controller, DDoSApp, EntropyApp,
                                    HeavyHitterApp)
    from repro.core.level import SketchLevel
    from repro.core.query import QueryEngine, QueryMemo, QuerySnapshot
    from repro.core.universal import UniversalSketch
    from repro.dataplane.trace import Trace
    from repro.detect.pipeline import DetectionPipeline
    from repro.hashing.sampling import LevelSampler
    from repro.network.codec import DeltaDecoder, DeltaEncoder
    from repro.network.faults import SimulatedSwitch
    from repro.network.hierarchy import HierarchicalCoordinator
    from repro.service.http import ServiceHttp
    from repro.sketches.countsketch import CountSketch
    from repro.sketches.topk import TopK

    # Packets per distinct key of each bulk batch: level 0 of a universal
    # update receives the whole batch together with its distinct keys.
    def batch_start(args, kwargs):
        tracer.thread().flags["batch"] = len(args[1])

    def level_batch(args, kwargs):
        flags = tracer.thread().flags
        distinct = kwargs.get("distinct")
        if distinct is not None and flags.get("batch") == len(args[1]):
            flags["batch"] = None
            tracer.samples["pkts_per_distinct"].append(
                len(args[1]) / max(1, len(distinct)))

    def heap_before(args, kwargs):
        heap = args[0]
        return heap.offers, heap.rejections

    def heap_after(pre, args, kwargs, result):
        heap = args[0]
        tracer.add("topk.offers", heap.offers - pre[0])
        tracer.add("topk.rejections", heap.rejections - pre[1])

    def merged(pre, args, kwargs, result):
        tracer.add("merge.calls")

    def built(pre, args, kwargs, snapshot):
        tracer.add("snapshot.builds")
        tracer.add("snapshot.heap_entries", snapshot.heap_entries())

    def memo_lookup(args, kwargs, result):
        tracer.add("memo.lookups")
        tracer.add("memo.hits", result is not None)

    def encoded(pre, args, kwargs, frame):
        if len(tracer.samples["frames"]) < 256:
            tracer.samples["frames"].append(frame)

    tracer.wrap(Trace, "key_array", "dataplane.key_array")
    tracer.wrap(Trace, "concat", "dataplane.concat")
    tracer.wrap(LevelSampler, "deepest_level_array", "hashing.depth")
    tracer.wrap(LevelSampler, "parity_words", "hashing.parity")
    tracer.wrap(CountSketch, "update_array", "sketches.cs_update")
    tracer.wrap(CountSketch, "query_many", "sketches.cs_query")
    tracer.wrap(TopK, "offer_many", "sketches.topk_offer",
                before=heap_before, after=heap_after)
    tracer.wrap(UniversalSketch, "update_array", "core.update",
                before=batch_start)
    tracer.wrap(SketchLevel, "update_array", "core.update",
                before=level_batch)
    tracer.wrap(UniversalSketch, "merge", "core.merge", after=merged)
    tracer.wrap(UniversalSketch, "subtract", "core.merge", after=merged)
    tracer.wrap(UniversalSketch, "__init__", "core.sketch_new")
    tracer.wrap(UniversalSketch, "copy", "core.copy")
    tracer.wrap(QuerySnapshot, "build", "core.snapshot", after=built)
    tracer.wrap(QueryEngine, "evaluate_many", "core.evaluate")
    tracer.count_calls(QueryMemo, "get", memo_lookup)
    tracer.wrap(Controller, "ingest", "controlplane.ingest")
    tracer.wrap(Controller, "seal_epoch", "controlplane.seal")
    for app in (HeavyHitterApp, DDoSApp, ChangeDetectionApp, EntropyApp,
                CardinalityApp):
        tracer.wrap(app, "on_sketch", "controlplane.apps")
    tracer.wrap(DetectionPipeline, "on_sketch", "detect.eval")
    tracer.wrap(HierarchicalCoordinator, "run_epoch", "network.collect")
    tracer.wrap(DeltaEncoder, "encode", "network.encode", after=encoded)
    tracer.wrap(DeltaDecoder, "decode", "network.decode")
    tracer.wrap(SimulatedSwitch, "feed", "network.leaf_feed")
    tracer.wrap_async(ServiceHttp, "handle", "service.http.handle")


def _frame_stats(frames):
    """(share of FULL frames, wire bytes over uncompressed bytes) of the
    sampled frames."""
    import zlib

    from repro.network.codec import frame_info
    wire = raw = full = 0
    for frame in frames:
        info = frame_info(frame)
        payload = frame[len(frame) - info.payload_len:]
        body = zlib.decompress(payload) if info.compressed else payload
        full += info.kind == "full"
        wire += len(frame)
        raw += len(frame) - len(payload) + len(body)
    return full / len(frames), wire / raw


def per_layer(tracer: Tracer, epochs: int,
              names: Iterable[str]) -> Dict[str, float]:
    """Shares, ratios and counts from one traced phase; every name in
    ``names`` is present, 0 where the workload does not reach the layer."""
    wall = tracer.wall
    out = {name: 0.0 for name in names}
    for span, self_time in tracer.self_times().items():
        out[f"{span}.share"] = self_time / wall
    threads = len(tracer.threads())
    out["bench.traced_threads"] = float(threads)
    out["bench.unattributed.share"] = threads - tracer.root_time() / wall
    counts = tracer.counts
    ppd = tracer.samples.get("pkts_per_distinct")
    if ppd:
        out["core.update.pkts_per_distinct"] = float(np.median(ppd))
    if counts["topk.offers"]:
        out["sketches.topk.reject_ratio"] = \
            counts["topk.rejections"] / counts["topk.offers"]
    epochs = max(1, epochs)
    out["core.merge.calls"] = counts["merge.calls"] / epochs
    out["core.snapshot.builds"] = counts["snapshot.builds"] / epochs
    if counts["snapshot.builds"]:
        out["core.snapshot.heap_entries"] = \
            counts["snapshot.heap_entries"] / counts["snapshot.builds"]
    if counts["memo.lookups"]:
        out["core.memo.hit_ratio"] = \
            counts["memo.hits"] / counts["memo.lookups"]
    if tracer.samples.get("frames"):
        out["network.frames_full_ratio"], out["network.compress_ratio"] = \
            _frame_stats(tracer.samples["frames"])
    return out
