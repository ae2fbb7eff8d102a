"""Benchmark configuration.

Every figure bench regenerates its table at paper-like settings (20 runs
per point, median ± std) and writes it to ``benchmarks/results/`` for
EXPERIMENTS.md.  Set ``REPRO_BENCH_RUNS`` / ``REPRO_BENCH_QUICK=1`` to
trade fidelity for speed during development.
"""

import json
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Independent runs per sweep point (paper: 20).
RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "20"))

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"


def workload():
    from repro.eval.experiments import DEFAULT_WORKLOAD, WorkloadSpec
    if QUICK:
        return WorkloadSpec(packets=6_000, flows=1_200)
    return DEFAULT_WORKLOAD


def memory_sweep():
    from repro.eval.experiments import DEFAULT_MEMORY_KB
    if QUICK:
        return (32, 128, 512)
    return DEFAULT_MEMORY_KB


def write_result(name: str, text: str, points=None, metrics=None,
                 x_label: str = "memory_kb", log_x: bool = True) -> None:
    """Persist a figure's table (plus an ASCII chart of the series when
    sweep points are provided) and echo it into the test log."""
    if points is not None and metrics is not None:
        from repro.eval.asciichart import chart_sweep
        try:
            text = text + "\n\n" + chart_sweep(
                points, metrics, x_label=x_label, log_x=log_x)
        except Exception:
            pass  # charts are decoration; never fail the bench for one
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")
    print("\n" + text)


def write_results_json(name: str, results: dict) -> dict:
    """Merge ``results`` into ``results/<name>`` and return the merged
    dict.  Keys this run did not produce survive, so a ``-k``-filtered
    run refreshes its own entries without dropping the rest of the
    file; an unreadable file starts over."""
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / name
    merged = {}
    if out.exists():
        try:
            merged = json.loads(out.read_text())
        except ValueError:
            merged = {}
    merged.update(results)
    out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return merged


@pytest.fixture(scope="session")
def bench_trace():
    """A shared 30k-packet trace for the update-path throughput benches."""
    from repro.dataplane.trace import SyntheticTraceConfig, generate_trace
    return generate_trace(SyntheticTraceConfig(
        packets=30_000, flows=5_000, zipf_skew=1.1, duration=5.0, seed=1234))
