"""UnivMon benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload switch_zipf --seed 1 \\
        --seconds 30 --trace 0

Workloads (see BENCHMARK.json and each ``w_*.py`` module):

- ``switch_zipf``  closed-loop epoch loop of ``univmon run``;
- ``fleet_tree``   three-tier ``HierarchicalCoordinator`` collection;
- ``serve_query``  ``univmon serve --detect`` under open-loop packets
  and open-loop ``/query`` traffic from a separate client process.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` measures
them untraced, then again with every layer's public functions wrapped,
and reports the per-layer metrics plus ``bench.trace_overhead`` (traced
over untraced end-to-end time).  Spans of the traced phase are written
to ``.perfbench-out/`` when the run ends.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.  Output checks and
validity guards that fail make the result ``"correct": false`` and the
exit code 1.
"""

from __future__ import annotations

import os

# One thread per numeric library: the measured loops are single-threaded
# and stray BLAS threads only add noise.  Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    "switch_zipf": "w_switch",
    "fleet_tree": "w_fleet",
    "serve_query": "w_serve",
}

#: Forked set-ups per run; setup_s is their median, each scaled by the
#: reference kernel timed in the same child.
SETUP_REPEATS = 7

#: The end-to-end time each workload's bench.trace_overhead compares.
OVERHEAD_METRIC = {
    "switch_zipf": "ingest_pps",
    "fleet_tree": "seal_ms_p50",
    "serve_query": "query_ms_p50",
}


def _import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise ImportError(f"no program sources under {src}")
    sys.path.insert(0, src)
    importlib.import_module("repro")


def _declared():
    """(end-to-end, per-layer) ``{name: unit}`` from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import common
    from refkernel import NOMINAL_MS
    from tracer import Tracer

    end_to_end, per_layer_units = _declared()
    workload = importlib.import_module(WORKLOADS[args.workload])
    # Set-up first: the forked children must see cold program caches and
    # a parent without threads.
    setups = common.timed_setups(workload.setup_seconds, SETUP_REPEATS)
    untraced = workload.run(args.seed, args.seconds)
    untraced.metrics["setup_s"] = common.median(
        [s * NOMINAL_MS / ref for s, ref in setups])
    untraced.diagnostics["bench.raw.setup_s"] = common.median(
        [s for s, _ in setups])
    phases = [untraced]

    if args.trace:
        from layers import per_layer
        tracer = Tracer()
        traced = workload.run(args.seed, args.seconds, tracer=tracer)
        phases.append(traced)
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
        values = per_layer(tracer, traced.epochs, per_layer_units)
        for name, value in traced.diagnostics.items():
            if name in per_layer_units:
                values[name] = float(value)
        key = OVERHEAD_METRIC[args.workload]
        ratio = traced.metrics[key] / untraced.metrics[key]
        values["bench.trace_overhead"] = 1.0 / ratio if key.endswith("pps") \
            else ratio
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units.items()}
        _emit({"traced_end_to_end": traced.metrics,
               "untraced_end_to_end": untraced.metrics})
    else:
        metrics = {name: {"value": untraced.metrics[name], "unit": unit}
                   for name, unit in end_to_end.items()}

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    guards = dict(untraced.guards)
    if args.trace:
        guards.update({f"traced.{name}": guard
                       for name, guard in traced.guards.items()})
    valid = all(p.valid for p in phases)
    _emit({"workload": args.workload, "seed": args.seed,
           "diagnostics": untraced.diagnostics, "guards": guards,
           "errors": [e for p in phases for e in p.errors]})
    correct = failed == 0 and valid
    for name, guard in guards.items():
        if not guard["ok"]:
            print(f"perfbench: guard {name} failed: {guard['value']!r} "
                  f"(rule: {guard['rule']})", file=sys.stderr)
    for error in (e for p in phases for e in p.errors):
        print(f"perfbench: output check failed: {error}", file=sys.stderr)
    _emit({"correct": correct, "attempted": attempted, "failed": failed,
           "metrics": metrics})
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
