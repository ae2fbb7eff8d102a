"""Self-tests of the benchmark (run: python -m pytest perfbench/tests -q)."""

import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import common
import inputs
from tracer import Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
EXACT = ("wire_bytes_per_epoch", "f0_rel_err", "entropy_rel_err", "hh_f1")


@pytest.fixture
def small_switch(monkeypatch):
    import w_switch
    monkeypatch.setattr(w_switch, "WARMUP", 1)
    monkeypatch.setattr(w_switch, "MIN_EPOCHS", 6)
    monkeypatch.setattr(w_switch, "ACC_EPOCHS", 6)
    monkeypatch.setattr(w_switch, "WIRE_EVERY", 3)
    return w_switch


@pytest.fixture
def small_fleet(monkeypatch):
    import w_fleet
    monkeypatch.setattr(w_fleet, "WARMUP", 1)
    monkeypatch.setattr(w_fleet, "MIN_EPOCHS", 3)
    monkeypatch.setattr(w_fleet, "ACC_EPOCHS", 3)
    return w_fleet


def _inputs(seed):
    source = inputs.ZipfSource(seed, tag=1, keys=1400, skew=1.1,
                               packets=4096)
    mix = inputs.FixedMixSource(seed, tag=3, keys=6000, skew=0.6,
                                packets=4096)
    arrays = [source.epoch(i) for i in (-1, 0, 7)] + [mix.epoch(i)
                                                      for i in (0, 1)]
    plan = inputs.query_schedule(seed, 50, 0.5, (0.01, 0.02), (1.5, 2.0), 5)
    return arrays, plan


def test_same_seed_gives_bit_identical_inputs():
    (arrays_a, plan_a), (arrays_b, plan_b) = _inputs(11), _inputs(11)
    for a, b in zip(arrays_a, arrays_b):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert plan_a == plan_b


def test_other_seed_gives_other_inputs():
    (arrays_a, plan_a), (arrays_b, plan_b) = _inputs(11), _inputs(12)
    for a, b in zip(arrays_a, arrays_b):
        assert not np.array_equal(a, b)
    assert plan_a != plan_b


@pytest.mark.parametrize("workload", ["small_switch", "small_fleet"])
def test_same_seed_repeats_counts_and_accuracy(workload, request):
    module = request.getfixturevalue(workload)
    first = module.run(3, 0.0)
    second = module.run(3, 0.0)
    assert first.failed == second.failed == 0
    for name in EXACT:
        assert first.metrics[name] == second.metrics[name], name
    other = module.run(4, 0.0)
    assert any(other.metrics[n] != first.metrics[n] for n in EXACT)


def test_reference_kernel_imports_nothing_from_the_program():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import refkernel;"
            "refkernel.ReferenceKernel().run();"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'repro'))")
    out = subprocess.run([sys.executable, "-c", code, BENCH],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"


def _patched_attributes():
    from repro.controlplane import Controller
    from repro.core.query import QueryEngine, QueryMemo, QuerySnapshot
    from repro.core.universal import UniversalSketch
    from repro.service.http import ServiceHttp
    from repro.sketches.topk import TopK
    return {(cls.__name__, name): cls.__dict__[name]
            for cls in (Controller, QueryEngine, QueryMemo, QuerySnapshot,
                        UniversalSketch, ServiceHttp, TopK)
            for name in cls.__dict__}


def test_traced_run_leaves_no_wrappers_behind(small_switch):
    before = _patched_attributes()
    fresh = small_switch.run(5, 0.0)
    tracer = Tracer()
    traced = small_switch.run(5, 0.0, tracer=tracer)
    assert traced.failed == 0 and not tracer.installed
    assert tracer.self_times()["sketches.cs_update"] > 0
    assert _patched_attributes() == before
    again = small_switch.run(5, 0.0)
    for name in EXACT:
        assert again.metrics[name] == fresh.metrics[name], name


def test_self_time_excludes_children_and_shares_add_up():
    class Toy:
        def outer(self):
            time.sleep(0.02)
            self.inner()

        def inner(self):
            time.sleep(0.03)

    tracer = Tracer()
    tracer.wrap(Toy, "outer", "outer")
    tracer.wrap(Toy, "inner", "inner")
    tracer.start()
    Toy().outer()
    tracer.stop()
    time.sleep(0.02)   # benchmark work between recorded regions
    Toy().inner()
    tracer.start()
    time.sleep(0.01)
    Toy().inner()
    tracer.stop()
    tracer.uninstall()
    assert "__wrapped__" not in Toy.__dict__["outer"].__dict__
    assert tracer.wall == pytest.approx(0.09, abs=0.02)
    self_times = tracer.self_times()
    assert self_times["outer"] == pytest.approx(0.02, abs=0.01)
    assert self_times["inner"] == pytest.approx(0.06, abs=0.015)
    unattributed = tracer.wall - tracer.root_time()
    assert unattributed == pytest.approx(0.01, abs=0.01)
    assert sum(self_times.values()) + unattributed == \
        pytest.approx(tracer.wall, rel=1e-9)
    outer, = tracer.durations("outer")
    assert outer == pytest.approx(0.05, abs=0.015)


def test_percentile_guard_needs_ten_samples_beyond():
    out = common.Outcome()
    out.percentile_guard("p90_at_100", 100, 90)
    assert out.valid
    out.percentile_guard("p95_at_199", 199, 95)
    assert not out.valid


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench_json):
        shutil.copy(bench_json, tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "switch_zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=120)
    assert out.returncode == 2
    assert out.stdout == b""
