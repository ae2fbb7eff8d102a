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
the floor is earned by counter sparsity plus compression.

Results go to ``benchmarks/results/BENCH_network.json`` plus an ASCII
bytes-vs-switch-count figure in ``network_scale.txt``; both are spliced
into EXPERIMENTS.md by ``collect_results.py``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.eval.asciichart import render_chart
from repro.network.faults import SimLink, SimulatedSwitch, zipf_keys
from repro.network.hierarchy import HierarchicalCoordinator, TreePlan
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.core.universal import UniversalSketch

from conftest import QUICK

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
        results_dir = Path(__file__).parent / "results"
        results_dir.mkdir(exist_ok=True)
        (results_dir / "BENCH_network.json").write_text(
            json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")


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

