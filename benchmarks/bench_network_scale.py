"""NETWORK — bytes-on-wire and merge time across the aggregation tree.

Sweeps switch count over a simulated fleet (no sockets, no drops) and
records, per point:

- **flat vs tree**: root merge seconds per epoch (a flat fan-in makes
  the root decode and merge every leaf; the tree amortises the fold
  across rack/pod aggregators so the root does ``fanout`` merges);
- **raw vs wire**: steady-state bytes per epoch for the same Zipf
  traffic, raw = every frame of the epoch uncompressed (serialized
  sketch plus frame header), wire = the compressed frames actually
  shipped.  Both come from the same run: raw is the codec's
  ``univmon_codec_raw_bytes_total`` over the epoch plus one
  ``HEADER_BYTES`` header per frame.

The release floor is ``raw_bytes / wire_bytes >= 3`` at every swept
switch count ("at least 3x fewer bytes than raw on steady-state Zipf
traffic").  Every frame is a full sealed sketch (DESIGN.md §11), so
the floor is earned by counter sparsity plus compression.  Raw bodies
already hold each counter table in its narrowest integer width, so the
ratio measures what zlib adds on top of that.

``test_speedup_codec`` times frame encode and decode over fleet_tree's
65 leaves against a frozen copy of the previous codec (every counter
``int64``, zlib level 6): encode must be >= 2x and decode >= 1x, and
both must decode to the same sketches.

Results merge into ``benchmarks/results/BENCH_network.json``, plus an ASCII
bytes-vs-switch-count figure in ``network_scale.txt``; both are spliced
into EXPERIMENTS.md by ``collect_results.py``.
"""

import io
import json
import os
import platform
import struct
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core import serialization
from repro.errors import TraceFormatError
from repro.eval.asciichart import render_chart
from repro.network.codec import (
    FRAME_FULL,
    NO_BASE,
    DeltaDecoder,
    DeltaEncoder,
    frame_info,
)
from repro.network.faults import SimLink, SimulatedSwitch, zipf_keys
from repro.network.hierarchy import HierarchicalCoordinator, TreePlan
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.core.universal import UniversalSketch

from conftest import QUICK, write_results_json

_RESULTS = {}

SWITCH_COUNTS = (25, 50) if QUICK else (50, 100, 200)
FANOUT = 8
PACKETS_PER_SWITCH = 120
FLOWS = 512
EPOCHS = 4  # steady state: measure the last epoch
HEADER_BYTES = 30  # the codec's UMF1 frame header ("<4sBBqqII")


def factory():
    return UniversalSketch(levels=6, rows=2, width=256, heap_size=16,
                           seed=9)


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json():
    yield
    if _RESULTS:
        _RESULTS["cpus"] = os.cpu_count()
        write_results_json("BENCH_network.json", _RESULTS)


class Fleet:
    """A dropless simulated fleet under one coordinator."""

    def __init__(self, n, fanout=FANOUT, seed=0):
        names = [f"sw{i:03d}" for i in range(n)]
        self.switches = {name: SimulatedSwitch(name, factory)
                         for name in names}
        links = {name: SimLink(self.switches[name], drop_rate=0.0,
                               seed=seed + i)
                 for i, name in enumerate(names)}
        self.coord = HierarchicalCoordinator(links, factory, fanout=fanout)
        self.rng = np.random.default_rng(seed)

    def feed(self):
        for switch in self.switches.values():
            switch.feed(zipf_keys(self.rng, PACKETS_PER_SWITCH,
                                  flows=FLOWS))

    def epoch(self):
        self.feed()
        report = self.coord.run_epoch()
        return report.results["coverage"]


def steady_state(n, fanout=FANOUT):
    """Wire and raw bytes and timings of the last of ``EPOCHS`` epochs."""
    fleet = Fleet(n, fanout=fanout)
    with use_registry(MetricsRegistry()) as registry:
        for _ in range(EPOCHS - 1):
            fleet.epoch()
        merge_before = registry.get("univmon_tree_merge_seconds")
        merged_s = merge_before.sum if merge_before else 0.0
        raw = registry.get("univmon_codec_raw_bytes_total")
        raw_before = raw.value
        t0 = time.perf_counter()
        cov = fleet.epoch()
        wall_s = time.perf_counter() - t0
        merge_s = registry.get("univmon_tree_merge_seconds").sum \
            - merged_s
        raw_body = raw.value - raw_before
    assert cov["coverage"] == 1.0
    return {
        "bytes_wire": cov["bytes_wire"],
        "raw_bytes": int(raw_body) + HEADER_BYTES * cov["frames_full"],
        "frames": cov["frames_full"],
        "root_merge_ms": round(merge_s * 1e3, 4),
        "epoch_wall_ms": round(wall_s * 1e3, 4),
        "tiers": fleet.coord.plan.depth,
    }


def test_bytes_on_wire_vs_raw():
    """The codec floor: >= 3x fewer bytes than raw at every scale."""
    sweep = {}
    for n in SWITCH_COUNTS:
        point = steady_state(n)
        ratio = point["raw_bytes"] / point["bytes_wire"]
        sweep[str(n)] = {
            "raw_bytes": point["raw_bytes"],
            "wire_bytes": point["bytes_wire"],
            "ratio": round(ratio, 2),
            "frames": point["frames"],
        }
        assert ratio >= 3.0, (
            f"wire bytes at {n} switches are only {ratio:.2f}x "
            f"fewer than raw (need >= 3x)")
    _RESULTS["bytes_on_wire"] = {
        "fanout": FANOUT,
        "packets_per_switch": PACKETS_PER_SWITCH,
        "flows": FLOWS,
        "by_switches": sweep,
    }

    series = {
        "raw": [(int(n), row["raw_bytes"]) for n, row in sweep.items()],
        "wire": [(int(n), row["wire_bytes"]) for n, row in sweep.items()],
    }
    chart = render_chart(series, x_label="switches", y_label="bytes/epoch",
                         title="steady-state bytes per epoch "
                               "(raw vs wire)")
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "network_scale.txt").write_text(chart + "\n")
    print("\n" + chart)


def test_merge_time_flat_vs_tree():
    """The root of a flat fan-in folds every leaf itself; the tree's
    root folds ``fanout`` pre-merged subtrees.  Record both."""
    sweep = {}
    for n in SWITCH_COUNTS:
        tree = steady_state(n)
        flat = steady_state(n, fanout=max(2, n))
        sweep[str(n)] = {
            "flat_root_merge_ms": flat["root_merge_ms"],
            "tree_root_merge_ms": tree["root_merge_ms"],
            "flat_epoch_ms": flat["epoch_wall_ms"],
            "tree_epoch_ms": tree["epoch_wall_ms"],
            "tree_tiers": tree["tiers"],
        }
    _RESULTS["merge_time"] = {"fanout": FANOUT, "by_switches": sweep}
    largest = sweep[str(SWITCH_COUNTS[-1])]
    # The tree must not cost more root merge time than the flat fold.
    assert largest["tree_root_merge_ms"] <= \
        largest["flat_root_merge_ms"] * 1.5


# --------------------------------------------------------------------- #
# codec speed: narrowed counter blocks + level-1 RLE vs int64 + level 6
# --------------------------------------------------------------------- #

#: fleet_tree's leaves: 65 sketches of its geometry, each fed 400
#: Zipf-0.6 packets over 450 keys.
CODEC_LEAVES = 65
CODEC_PACKETS = 400
CODEC_KEYS = 450
CODEC_SKEW = 0.6
CODEC_REPEATS = 15
CODEC_FLOORS = {"encode": 2.0, "decode": 1.0}

_FRAME_HEADER = struct.Struct("<4sBBqqII")


def _baseline_write_table(out, table):
    data = np.ascontiguousarray(table, dtype=np.int64).tobytes()
    out.write(struct.pack("<I", len(data)))
    out.write(data)


def _baseline_read_table(buf, rows, width):
    (nbytes,) = struct.unpack("<I", serialization._read_exact(buf, 4))
    expected = rows * width * 8
    if nbytes != expected:
        raise TraceFormatError(
            f"corrupt sketch payload: table block is {nbytes} bytes, "
            f"expected {expected} for {rows}x{width} int64 counters")
    raw = serialization._read_exact(buf, nbytes)
    table = np.frombuffer(raw, dtype=np.int64).reshape(rows, width).copy()
    return table


def _baseline_encode(sketch):
    """A ``UMS1`` body (every counter int64) in a zlib-6 frame."""
    out = io.BytesIO()
    out.write(b"UMS1")
    out.write(struct.pack("<BIIIIqq", 4, sketch.num_levels, sketch.rows,
                          sketch.width, sketch.heap_size, sketch.seed,
                          sketch.packets))
    for level in sketch.levels:
        out.write(struct.pack("<qq", level.packets, level.weight))
        _baseline_write_table(out, level.sketch.table)
        serialization._write_topk(out, level.topk)
    body = out.getvalue()
    flags, payload = 1, zlib.compress(body, 6)
    if len(payload) >= len(body):
        flags, payload = 0, body
    return _FRAME_HEADER.pack(b"UMF1", FRAME_FULL, flags, 0, NO_BASE,
                              len(payload),
                              zlib.crc32(payload) & 0xFFFFFFFF) + payload


def _baseline_decode(frame):
    """Decode a :func:`_baseline_encode` frame with the same checks as
    the current reader, less the declared-size check."""
    buf = io.BytesIO(DeltaDecoder._body(frame_info(frame), frame))
    if buf.read(4) != b"UMS1":
        raise TraceFormatError("bad sketch magic")
    tag, levels, rows, width, heap_size, seed, packets = struct.unpack(
        "<BIIIIqq", serialization._read_exact(buf, 33))
    serialization.check_geometry(levels, rows, width, heap_size)
    if tag != 4 or packets < 0:
        raise TraceFormatError("corrupt sketch payload")
    sketch = UniversalSketch(levels=levels, rows=rows, width=width,
                             heap_size=heap_size, seed=seed)
    sketch.packets = packets
    for j, level in enumerate(sketch.levels):
        level.packets, level.weight = struct.unpack(
            "<qq", serialization._read_exact(buf, 16))
        if level.packets < 0:
            raise TraceFormatError("corrupt sketch payload")
        sketch.counters[j] = _baseline_read_table(buf, rows, width)
        level.topk = serialization._read_topk(buf, heap_size)
    if buf.read(1):
        raise TraceFormatError("corrupt sketch payload: trailing bytes")
    return sketch


def _codec_leaves():
    gen = np.random.default_rng(CODEC_LEAVES)
    leaves = []
    for _ in range(CODEC_LEAVES):
        leaf = UniversalSketch(levels=5, rows=2, width=256, heap_size=16,
                               seed=9)
        leaf.update_array(zipf_keys(gen, CODEC_PACKETS, flows=CODEC_KEYS,
                                    skew=CODEC_SKEW))
        leaves.append(leaf)
    return leaves


def _state(sketch):
    """Everything a decoded sketch carries, heaps in storage order."""
    return (sketch.packets, [
        (level.packets, level.weight, level.sketch.table.tobytes(),
         level.topk._keys.tobytes(), level.topk._ests.tobytes(),
         level.topk.offers, len(level.topk))
        for level in sketch.levels])


def _best_ms(*fns, repeats=CODEC_REPEATS):
    """Best-of-``repeats`` milliseconds of each function, each warmed
    once; the calls alternate so every side sees the same host drift."""
    for fn in fns:
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return [seconds * 1e3 for seconds in best]


def _host_stamp():
    return {"cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "zlib": zlib.ZLIB_RUNTIME_VERSION}


def test_speedup_codec():
    """Encode >= 2x and decode >= 1x the int64 + zlib-6 codec over 65
    fleet_tree leaves, both sides decoding to identical sketches."""
    leaves = _codec_leaves()
    encoder, decoder = DeltaEncoder(), DeltaDecoder()
    frames = [encoder.encode(leaf) for leaf in leaves]
    old_frames = [_baseline_encode(leaf) for leaf in leaves]
    for leaf, frame, old_frame in zip(leaves, frames, old_frames):
        got = decoder.decode(frame)
        assert _state(got) == _state(_baseline_decode(old_frame))
        assert got.packets == leaf.packets
        for mine, theirs in zip(leaf.levels, got.levels):
            assert np.array_equal(mine.sketch.table, theirs.sketch.table)
            assert mine.topk.items() == theirs.topk.items()
    times = {
        "encode": _best_ms(
            lambda: [encoder.encode(leaf) for leaf in leaves],
            lambda: [_baseline_encode(leaf) for leaf in leaves]),
        "decode": _best_ms(
            lambda: [decoder.decode(frame) for frame in frames],
            lambda: [_baseline_decode(frame) for frame in old_frames]),
    }
    result = {"leaves": CODEC_LEAVES, "repeats": CODEC_REPEATS,
              "host": _host_stamp(),
              "wire_bytes": sum(map(len, frames)),
              "baseline_wire_bytes": sum(map(len, old_frames)),
              "body_bytes": len(serialization.dumps(leaves[0])),
              "baseline_body_bytes": len(
                  DeltaDecoder._body(frame_info(old_frames[0]),
                                     old_frames[0]))}
    for name, (new_ms, old_ms) in times.items():
        result[name] = {"new_ms": round(new_ms, 3),
                        "baseline_ms": round(old_ms, 3),
                        "speedup": round(old_ms / new_ms, 2),
                        "floor": CODEC_FLOORS[name]}
    _RESULTS["codec"] = result
    print("\ncodec:", json.dumps(result, sort_keys=True))
    for name in times:
        point = result[name]
        assert point["speedup"] >= point["floor"], (
            f"codec {name} is {point['speedup']:.2f}x the int64 + zlib-6 "
            f"codec over {CODEC_LEAVES} leaves (need >= "
            f"{point['floor']}x)")
