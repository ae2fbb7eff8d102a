"""Record each workload's measured traffic properties.

Runs every workload of ``BENCHMARK.json`` once with ``--trace 1``, at
seed 1 and the benchmark's ``run_seconds``, and writes
``perfbench/provenance.json``: what its traffic measured (packets per
distinct key per batch, Count Sketch path, deepest-level heap fill, memo
hit ratio, offered rates, ingest busy share, per-layer self shares), the
host it ran on, and what this benchmark deliberately does not measure.
Why each workload exists is its ``why`` in ``BENCHMARK.json``.  A later
claim that a change "helps repeated keys only" cites these shares.

Usage, from the root of a source checkout::

    python3 perfbench/provenance.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1

NOT_MEASURED = [
    "Sharded ingest (workers > 1): cannot be held steady on 2 vCPUs; the "
    "last throughput record has it at 0.8x serial.",
    "The flat NetworkCoordinator and the TCP RemoteCoordinator.",
    "Fault injection (drops, kills, re-parenting).",
    "Detection actions (zoom, recover): they made seal times bimodal.",
]

KEEP = ("core.update.pkts_per_distinct", "core.heap.deepest_fill",
        "core.memo.hit_ratio", "core.merge.calls", "core.snapshot.builds",
        "core.snapshot.heap_entries", "sketches.topk.reject_ratio",
        "network.frames_full_ratio", "network.compress_ratio",
        "service.ingest.busy_share", "service.seal_overlap_ratio",
        "bench.trace_overhead", "bench.ref_ms", "bench.settle_ms")


def measure(workload: str, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", "1"], stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    shares = {k: round(v, 4) for k, v in sorted(values.items())
              if k.endswith(".share") and v > 0}
    diagnostics = detail["diagnostics"]
    return {
        "offered": diagnostics["offered"],
        "count_sketch_path": diagnostics["cs_path"],
        "measured": {k: round(values[k], 4) for k in KEEP},
        "self_shares": shares,
        "correct": result["correct"],
    }


def main() -> int:
    import numpy
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    record = {
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__},
        "seed": SEED,
        "seconds": seconds,
        "workloads": {w["name"]: measure(w["name"], seconds)
                      for w in spec["workloads"]},
        "not_measured": NOT_MEASURED,
    }
    with open(os.path.join(HERE, "provenance.json"), "w",
              encoding="utf-8") as out:
        json.dump(record, out, indent=2, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
