"""SCEN — per-scenario ingest throughput and estimation error.

One bench per workload scenario in the scenario library: generate the
scenario at the acceptance seed, time the bulk-ingest path per epoch at
the 256 KB acceptance budget, and record the end-to-end estimation
error against the scenario's exact ground truth (F0, entropy relative
error; heavy-hitter FN; total-change-D relative error).  These are the
numbers the acceptance matrix ceilings were calibrated from, refreshed
as a benchmark artifact.

Results merge into ``benchmarks/results/BENCH_scenarios.json`` (a
``-k``-filtered run refreshes its own scenarios without dropping the
rest) and the scenario x statistic error table is rewritten to
``scenarios.txt`` for the EXPERIMENTS.md splice.
"""

import time

import numpy as np
import pytest

from conftest import QUICK, write_result, write_results_json

from repro.core.gsum import (
    estimate_cardinality,
    estimate_entropy,
    g_core,
    heavy_changes,
)
from repro.dataplane.scenarios import make_scenario, scenario_names
from repro.eval.experiments import _univmon_for
from repro.eval.metrics import detection_rates, relative_error

MEMORY_BYTES = 256 * 1024
BASE_FLOWS = 5_000
SEED = 1000
SCALE = 0.25 if QUICK else 1.0
ALPHA = 0.005
PHI = 0.03

_RESULTS = {}


def _table(results):
    rows = [f"scenario x statistic error sweep "
            f"(256 KB budget, seed {SEED}, scale {SCALE})",
            f"{'scenario':16s} {'Mpps':>6s} {'hh_fn':>7s} {'f0':>7s} "
            f"{'entropy':>8s} {'change_D':>9s}"]
    for name in sorted(results):
        r = results[name]
        rows.append(
            f"{name:16s} {r['ingest_mpps']:6.2f} {r['hh_fn_max']:7.3f} "
            f"{r['f0_relerr_max']:7.3f} {r['entropy_relerr_max']:8.3f} "
            f"{r['change_d_relerr_max']:9.3f}")
    return "\n".join(rows)


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json():
    """A filtered run updates its own scenarios; the summary table is
    rebuilt from the merged file, not just this run's entries."""
    yield
    if _RESULTS:
        merged = write_results_json("BENCH_scenarios.json", _RESULTS)
        write_result("scenarios.txt", _table(merged))


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_ingest_and_error(name):
    scenario = make_scenario(name, seed=SEED, scale=SCALE)
    epoch_keys = scenario.epoch_keys()

    sketches = []
    ingested = 0
    elapsed = 0.0
    for keys in epoch_keys:
        sketch = _univmon_for(MEMORY_BYTES, BASE_FLOWS, seed=SEED + 17)
        start = time.perf_counter()
        sketch.update_array(keys)
        elapsed += time.perf_counter() - start
        ingested += len(keys)
        sketches.append(sketch)

    hh_fns, f0_errs, h_errs, d_errs = [], [], [], []
    for e, (truth, sketch) in enumerate(zip(scenario.truths, sketches)):
        true_hh = truth.heavy_hitter_keys(ALPHA)
        _, fn = detection_rates(
            true_hh, {k for k, _ in g_core(sketch, ALPHA)})
        hh_fns.append(fn)
        f0_errs.append(relative_error(
            estimate_cardinality(sketch), truth.distinct))
        h_errs.append(relative_error(
            estimate_entropy(sketch, base=2.0), truth.entropy(base=2.0)))
        if e > 0:
            _, total = heavy_changes(sketch, sketches[e - 1], PHI)
            d_errs.append(relative_error(
                total, truth.total_change(scenario.truths[e - 1])))

    rate = ingested / elapsed if elapsed > 0 else 0.0
    _RESULTS[name] = {
        "scale": SCALE,
        "epochs": scenario.n_epochs,
        "packets": ingested,
        "ingest_pps": round(rate),
        "ingest_mpps": round(rate / 1e6, 3),
        "hh_fn_max": round(float(max(hh_fns)), 4),
        "f0_relerr_max": round(float(max(f0_errs)), 4),
        "f0_relerr_median": round(float(np.median(f0_errs)), 4),
        "entropy_relerr_max": round(float(max(h_errs)), 4),
        "change_d_relerr_max": round(float(max(d_errs)), 4),
    }
    assert ingested == len(scenario.trace)
    assert rate > 0
