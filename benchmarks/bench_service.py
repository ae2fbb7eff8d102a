"""SERVICE — concurrent query serving over the always-on service.

The service's design center is *serving latency under concurrency
while ingest never stalls*.  This bench holds it to the ISSUE floors
with a client swarm against a live service (real HTTP over loopback,
ingest running the whole time):

- **latency**: p50/p99 of ``POST /query`` across a client-count sweep
  (up to 200 concurrent clients in full mode); p99 at the maximum
  client count must stay under the calibrated ceiling.
- **ingest isolation**: ingest throughput with the swarm hammering
  ``/query`` must be within 10% of the serving-idle rate.
- **memoisation**: identical concurrent queries collapse to one
  evaluation, and snapshot builds equal sealed epochs exactly.

Results merge into ``benchmarks/results/BENCH_service.json`` and are
spliced into EXPERIMENTS.md by ``collect_results.py``.
"""

import json
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.obs import MetricsRegistry, use_registry
from repro.core.universal import UniversalSketch
from repro.service import MonitoringService, ServiceConfig

from conftest import QUICK, write_results_json

_RESULTS = {}

#: Acceptance-grade geometry (matches the detect bench).
LEVELS = 12
ROWS = 5
WIDTH = 1024
HEAP_SIZE = 64

#: Concurrent clients per sweep point; the ISSUE floor is >= 200
#: concurrent clients during live ingest (full mode).
CLIENT_SWEEP = (8, 32) if QUICK else (8, 32, 200)
REQUESTS_PER_CLIENT = 3 if QUICK else 5

#: Calibrated p99 ceiling at the maximum client count.  A memo-hit
#: query is sub-millisecond of loop time; the ceiling budgets for 200
#: connections' queueing on one event loop plus scheduler noise on a
#: loaded CI box.
P99_CEILING_SECONDS = 2.0

#: Ingest throughput with the swarm live vs serving-idle.
MAX_INGEST_DEGRADATION = 0.10

QUERY_PAYLOAD = json.dumps(
    {"statistics": ["cardinality", "entropy", "l1", "f2"]}).encode()


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json():
    yield
    if _RESULTS:
        write_results_json("BENCH_service.json", _RESULTS)


def sketch_factory():
    return UniversalSketch(levels=LEVELS, rows=ROWS, width=WIDTH,
                           heap_size=HEAP_SIZE, seed=1)


def start_service(trace, **overrides):
    settings = dict(port=0, epoch_seconds=0.25, ring_depth=8,
                    chunk_size=8192)
    settings.update(overrides)
    service = MonitoringService.from_trace(
        trace, ServiceConfig(**settings), sketch_factory=sketch_factory)
    return service.start()


def wait_first_epoch(service, timeout=30.0):
    deadline = time.monotonic() + timeout
    while service.ring.latest() is None:
        assert time.monotonic() < deadline, "no epoch published"
        time.sleep(0.01)


def post_query(port, timeout=30.0, payload=QUERY_PAYLOAD):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/query", data=payload,
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        resp.read()
        return resp.status


def swarm(port, clients, requests_per_client, stop=None, interval=0.0,
          payload=QUERY_PAYLOAD):
    """``clients`` threads, each issuing sequential queries (paced by
    ``interval`` seconds between them when set); returns (sorted
    latencies in seconds, error count)."""
    latencies = []
    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients)

    def client(index):
        mine = []
        barrier.wait()
        if interval:
            # Stagger paced clients so the poll load spreads evenly
            # instead of arriving in phase-locked bursts.
            time.sleep(interval * index / clients)
        for _ in range(requests_per_client):
            if stop is not None and stop.is_set():
                break
            t0 = time.perf_counter()
            try:
                status = post_query(port, payload=payload)
                if status != 200:
                    raise RuntimeError(f"status {status}")
            except Exception as exc:  # noqa: BLE001 - tallied below
                with lock:
                    errors.append(exc)
                continue
            mine.append(time.perf_counter() - t0)
            if interval:
                time.sleep(interval)
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sorted(latencies), len(errors)


def percentile(sorted_values, q):
    assert sorted_values
    index = min(len(sorted_values) - 1,
                int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def test_query_latency_under_client_swarm(bench_trace):
    """The headline numbers: p50/p99 vs concurrent client count, all
    during live max-rate ingest."""
    with use_registry(MetricsRegistry()):
        service = start_service(bench_trace)
        try:
            wait_first_epoch(service)
            sweep = {}
            for clients in CLIENT_SWEEP:
                lats, errs = swarm(service.port, clients,
                                   REQUESTS_PER_CLIENT)
                assert errs == 0, f"{errs} failed requests at {clients}"
                sweep[clients] = {
                    "requests": len(lats),
                    "p50_ms": round(1e3 * percentile(lats, 0.50), 3),
                    "p99_ms": round(1e3 * percentile(lats, 0.99), 3),
                }
                assert service.ingest.is_alive(), \
                    "ingest died under serving load"
        finally:
            service.stop()
    _RESULTS["query_latency"] = {
        "requests_per_client": REQUESTS_PER_CLIENT,
        "p99_ceiling_ms": 1e3 * P99_CEILING_SECONDS,
        "clients": {str(n): stats for n, stats in sweep.items()},
    }
    print("\nquery latency under swarm (live ingest):")
    for n, stats in sweep.items():
        print(f"  {n:4d} clients: p50 {stats['p50_ms']:8.2f} ms   "
              f"p99 {stats['p99_ms']:8.2f} ms")
    top = max(sweep)
    assert sweep[top]["p99_ms"] <= 1e3 * P99_CEILING_SECONDS, (
        f"p99 at {top} clients is {sweep[top]['p99_ms']:.1f} ms "
        f"(ceiling {1e3 * P99_CEILING_SECONDS:.0f} ms)")


#: Out-of-process poll swarm for the ingest-isolation measurement:
#: in-process client threads would charge their own urllib/JSON work
#: to the service's GIL, so the load generator runs as a subprocess
#: — exactly how real clients arrive.
POLLER_SCRIPT = r"""
import json, sys, threading, time, urllib.request
port, clients, interval = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])
payload = json.dumps(
    {"statistics": ["cardinality", "entropy", "l1", "f2"]}).encode()

def post():
    req = urllib.request.Request(
        "http://127.0.0.1:%d/query" % port, data=payload,
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req, timeout=30) as resp:
        resp.read()

def client(index):
    time.sleep(interval * index / clients)   # spread the poll phase
    while True:
        try:
            post()
        except Exception:
            pass
        time.sleep(interval)

for i in range(clients):
    threading.Thread(target=client, args=(i,), daemon=True).start()
time.sleep(3600)
"""


def _epoch_aligned_rate(service, epochs):
    """Ingest rate over exactly ``epochs`` sealed epochs.

    Aligning the window to seal boundaries removes the dominant noise
    source in wall-clock windows: how many (expensive) epoch seals a
    window happens to straddle.
    """
    ingest = service.ingest
    target = ingest.epochs_sealed + 1
    while ingest.epochs_sealed < target:
        time.sleep(0.005)
    start_packets = ingest.packets_ingested
    t0 = time.perf_counter()
    target += epochs
    while ingest.epochs_sealed < target:
        time.sleep(0.005)
    elapsed = time.perf_counter() - t0
    return (ingest.packets_ingested - start_packets) / elapsed


def test_ingest_throughput_degradation(bench_trace):
    """Serving load must not stall ingest: under a sustained ~25
    queries/sec external poll load the sealed-epoch pipeline keeps
    running within 10% of its serving-idle rate.

    Method notes, tuned for a small shared box (this CI host has one
    core, so the load generator's own CPU competes with ingest no
    matter what):

    - the poll swarm runs as a *subprocess* — in-process client
      threads would charge their urllib/JSON work to the service's
      GIL and measure the harness, not the service;
    - the load is paced (8 staggered clients polling every 300 ms),
      still orders of magnitude past a realistic scrape load (a 15 s
      Prometheus interval is 0.07 qps);
    - each sample covers exactly 4 sealed epochs and idle/loaded
      samples are interleaved per trial, with the median ratio taken
      across trials — wall-clock windows straddle a variable number
      of (expensive) epoch seals, which swamps a 10% floor in noise;
    - the poller boots once and is paused/resumed with
      SIGSTOP/SIGCONT between windows: interpreter startup costs
      ~0.5 s of CPU here and must not be charged to a loaded window.
    """
    window_epochs = 4
    trials = 5 if QUICK else 9
    load_clients = 8
    poll_interval = 0.3
    with use_registry(MetricsRegistry()):
        service = start_service(bench_trace)
        try:
            wait_first_epoch(service)
            poller = subprocess.Popen(
                [sys.executable, "-c", POLLER_SCRIPT,
                 str(service.port), str(load_clients),
                 str(poll_interval)])
            try:
                time.sleep(2.0)  # interpreter boot + swarm steady state
                ratios, idle_rates, loaded_rates = [], [], []
                for _trial in range(trials):
                    poller.send_signal(signal.SIGSTOP)
                    time.sleep(0.2)
                    idle = _epoch_aligned_rate(service, window_epochs)
                    poller.send_signal(signal.SIGCONT)
                    time.sleep(0.3)
                    loaded = _epoch_aligned_rate(service, window_epochs)
                    idle_rates.append(idle)
                    loaded_rates.append(loaded)
                    ratios.append(loaded / idle)
            finally:
                poller.kill()
                poller.wait(timeout=10)
        finally:
            service.stop()
    idle = statistics.median(idle_rates)
    loaded = statistics.median(loaded_rates)
    degradation = max(0.0, 1.0 - statistics.median(ratios))
    query_rate = load_clients / poll_interval
    _RESULTS["ingest_isolation"] = {
        "idle_pps": round(idle),
        "serving_pps": round(loaded),
        "degradation": round(degradation, 4),
        "budget": MAX_INGEST_DEGRADATION,
        "load_clients": load_clients,
        "target_query_rate": query_rate,
        "trials": trials,
    }
    print(f"\ningest: idle {idle / 1e3:.0f} kpps, "
          f"under ~{query_rate:.0f} qps load {loaded / 1e3:.0f} kpps "
          f"({100 * degradation:.1f}% median degradation, "
          f"budget {100 * MAX_INGEST_DEGRADATION:.0f}%)")
    assert degradation <= MAX_INGEST_DEGRADATION, (
        f"serving load degrades ingest by {100 * degradation:.1f}% "
        f"(budget {100 * MAX_INGEST_DEGRADATION:.0f}%)")


def test_memo_collapses_identical_queries(bench_trace):
    """N identical concurrent queries -> one evaluation, and snapshot
    builds == sealed epochs exactly (the acceptance invariant)."""
    clients = 16 if QUICK else 32
    with use_registry(MetricsRegistry()) as registry:
        service = start_service(bench_trace, epoch_seconds=0.15,
                                max_epochs=3)
        try:
            assert service.wait(timeout=60)
            misses_before = registry.counter(
                "univmon_query_memo_misses_total").value
            # A statistic set the epoch pipeline itself never
            # evaluates, so its memo entry is provably ours.
            payload = json.dumps(
                {"statistics": ["entropy:e", "moment:1.5"]}).encode()
            lats, errs = swarm(service.port, clients, 1,
                               payload=payload)
            assert errs == 0
            misses = registry.counter(
                "univmon_query_memo_misses_total").value - misses_before
            hits = registry.counter(
                "univmon_query_memo_hits_total").value
            builds = registry.counter(
                "univmon_query_snapshot_builds_total").value
            epochs = service.ingest.epochs_sealed
        finally:
            service.stop()
    _RESULTS["memoisation"] = {
        "concurrent_identical_queries": clients,
        "evaluations": int(misses),
        "memo_hits": int(hits),
        "snapshot_builds": int(builds),
        "epochs_sealed": int(epochs),
    }
    print(f"\nmemo: {clients} identical concurrent queries -> "
          f"{int(misses)} evaluation(s); "
          f"{int(builds)} snapshot builds over {epochs} epochs")
    assert misses == 1, f"{misses} evaluations for identical queries"
    assert builds == epochs, (
        f"{builds} snapshot builds != {epochs} sealed epochs")
