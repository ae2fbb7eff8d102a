# Convenience targets for the UnivMon reproduction.

PYTHON ?= python

.PHONY: install test test-network test-network-scale test-acceptance \
        test-scenarios test-detect test-service coverage \
        bench bench-quick bench-query bench-network \
        bench-service bench-smoke results examples lint clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/ -q

test-out:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# Remote-collection suites: RPC framing/retries, health tracking, the
# HierarchicalCoordinator epoch loop (flat and tree, over simulated and
# TCP links), and the chaos harness. Every test in the
# repo runs under the SIGALRM watchdog in tests/conftest.py; this target
# tightens it so a wedged socket fails fast instead of hanging the run.
test-network:
	REPRO_TEST_TIMEOUT=30 PYTHONPATH=src:$(PYTHONPATH) \
	$(PYTHON) -m pytest tests/controlplane/test_rpc.py tests/network -q

# Seeded 200-switch chaos suite for the aggregation tree: 30% connection
# drops, a whole rack killed, and one intermediate aggregator killed
# mid-epoch, every epoch asserting published coverage reports, exact
# packet conservation over survivors, and 2-epoch recovery. Marked
# `scale` (excluded from the default run); the tightened SIGALRM
# watchdog fails a wedged epoch loop fast.
test-network-scale:
	REPRO_TEST_TIMEOUT=120 PYTHONPATH=src:$(PYTHONPATH) \
	$(PYTHON) -m pytest tests/network/test_chaos_scale.py -q \
	    -m scale -o addopts=''

# Statistical acceptance suite (seeded error ceilings per paper task)
# plus the instrumentation-overhead guard; excluded from `make test` by
# the default marker filter in pyproject.toml.
test-acceptance:
	PYTHONPATH=src:$(PYTHONPATH) \
	$(PYTHON) -m pytest tests/acceptance -q -m "acceptance or slow"

# Workload scenario suites: the property tests for the scenario
# library (seeded determinism, Counter self-consistency of the exact
# ground truth, CDF moment checks), the scenario x statistic acceptance
# matrix with its calibrated ceilings, and the DDoS-ramp fleet smoke
# through the 200-switch chaos tree.
test-scenarios:
	PYTHONPATH=src:$(PYTHONPATH) \
	$(PYTHON) -m pytest tests/dataplane/test_scenarios.py -q
	PYTHONPATH=src:$(PYTHONPATH) \
	$(PYTHON) -m pytest tests/acceptance/test_scenarios.py -q \
	    -m acceptance -o addopts=''
	REPRO_TEST_TIMEOUT=120 PYTHONPATH=src:$(PYTHONPATH) \
	$(PYTHON) -m pytest tests/network/test_chaos_scale.py -q \
	    -m scale -o addopts='' -k DDoSRampFleet

# Detection-pipeline suites: the rule grammar, state machine, and
# pipeline unit tests, the zoom hold-down regressions the pipeline
# flushed out, and the detection acceptance cell over the scenario
# matrix (attack scenarios CONFIRMED on every hot epoch with
# ground-truth key recovery; clean scenarios stay IDLE on both panel
# seeds).
test-detect:
	PYTHONPATH=src:$(PYTHONPATH) \
	$(PYTHON) -m pytest tests/detect tests/network/test_zoom.py -q
	PYTHONPATH=src:$(PYTHONPATH) \
	$(PYTHON) -m pytest tests/acceptance/test_detect.py -q \
	    -m acceptance -o addopts=''

# Always-on service suites: publication-ring atomicity under
# concurrent readers, SSE backpressure, ingest-loop sealing/drain,
# end-to-end HTTP over a live service, memo collapse, graceful
# shutdown, and the concurrency regression tests for the metric
# primitives and the snapshot cache. The tightened SIGALRM watchdog
# turns a wedged event loop or a hung socket into a fast failure.
test-service:
	REPRO_TEST_TIMEOUT=60 PYTHONPATH=src:$(PYTHONPATH) \
	$(PYTHON) -m pytest tests/service -q

# Line coverage of the observability layer (src/repro/obs), failing
# under 85%. Skips cleanly when coverage.py is not installed.
coverage:
	@$(PYTHON) -c "import coverage" 2>/dev/null \
	    || { echo "coverage.py not installed; skipping coverage gate"; \
	         exit 0; } \
	    && PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) -m coverage run \
	        --source=src/repro/obs -m pytest tests/obs -q \
	    && $(PYTHON) -m coverage report -m --fail-under=85

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt
	$(PYTHON) benchmarks/collect_results.py

bench-quick:
	REPRO_BENCH_QUICK=1 REPRO_BENCH_RUNS=4 \
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q -s

# Control-plane query smoke: asserts the >= 5x batched-vs-scalar floor
# of the vectorised query engine (scalar/batched parity included) and
# refreshes benchmarks/results/BENCH_query.json.
bench-query:
	PYTHONPATH=src:$(PYTHONPATH) \
	$(PYTHON) -m pytest benchmarks/bench_query_latency.py -q -s

# Aggregation-tree scale bench: bytes-on-wire (uncompressed frames vs
# wire bytes, with the >= 3x codec floor) and root merge time (flat vs
# tree) swept across switch counts, recorded into BENCH_network.json
# plus the bytes-vs-switch-count figure, then spliced into EXPERIMENTS.md.
bench-network:
	PYTHONPATH=src:$(PYTHONPATH) \
	$(PYTHON) -m pytest benchmarks/bench_network_scale.py -q -s
	$(PYTHON) benchmarks/collect_results.py

# Ingest-path smoke: asserts the bulk-update speedup floors over the
# np.add.at baseline and refreshes
# benchmarks/results/BENCH_throughput.json. Runs the remote-collection
# suites, the statistical acceptance suite and the obs coverage gate
# first, so a broken poll path or a degraded estimator fails the smoke
# check before any benchmark numbers are published. The query-engine
# floor rides along (quick workload) so a control-plane regression
# blocks the smoke too, and the 200-switch chaos suite plus the
# aggregation-tree codec floor (quick sweep) gate the network
# collection path.  The scenario suites ride along too
# (test-scenarios prerequisite + the per-scenario ingest/error bench),
# so a degraded scenario ceiling or a broken scenario generator blocks
# the smoke as well.  The detection suites (test-detect prerequisite +
# the rule-eval overhead floor in bench_detect.py) gate the detection
# pipeline the same way, and the always-on service gates through
# test-service plus the quick-mode service load bench (latency sweep,
# ingest-isolation floor, memo collapse).
bench-smoke: test-network test-network-scale test-acceptance \
             test-scenarios test-detect test-service coverage
	REPRO_BENCH_QUICK=1 PYTHONPATH=src:$(PYTHONPATH) \
	$(PYTHON) -m pytest benchmarks/bench_throughput.py \
	    benchmarks/bench_query_latency.py \
	    benchmarks/bench_network_scale.py \
	    benchmarks/bench_scenarios.py \
	    benchmarks/bench_detect.py -q -s \
	    -k "speedup or matches or snapshot or bytes_on_wire or merge_time \
	        or scenario_ingest or rule_eval"
	REPRO_BENCH_QUICK=1 PYTHONPATH=src:$(PYTHONPATH) \
	$(PYTHON) -m pytest benchmarks/bench_service.py -q -s

# Service load bench: p50/p99 query latency under a concurrent client
# swarm during live ingest (200 clients in full mode), the <= 10%
# ingest-degradation floor under a sustained external poll load, and
# the memo-collapse / builds-equals-epochs invariants, recorded into
# BENCH_service.json and spliced into EXPERIMENTS.md.
bench-service:
	PYTHONPATH=src:$(PYTHONPATH) \
	$(PYTHON) -m pytest benchmarks/bench_service.py -q -s
	$(PYTHON) benchmarks/collect_results.py

results:
	$(PYTHON) benchmarks/collect_results.py

examples:
	for ex in examples/*.py; do echo "== $$ex"; \
	    PYTHONPATH=src:$(PYTHONPATH) $(PYTHON) $$ex || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
	       .hypothesis .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
