"""Tests for the controller's epoch-driven poll loop."""

import pytest

from repro.errors import ConfigurationError
from repro.controlplane import (
    CardinalityApp,
    ChangeDetectionApp,
    Controller,
    EntropyApp,
    HeavyHitterApp,
)
from repro.core.universal import UniversalSketch
from repro.dataplane.trace import SyntheticTraceConfig, generate_trace


def make_controller(epoch_seconds=1.0):
    factory = lambda: UniversalSketch(levels=6, rows=3, width=512,  # noqa
                                      heap_size=32, seed=5)
    return Controller(sketch_factory=factory, epoch_seconds=epoch_seconds)


class TestConfiguration:
    def test_epoch_validated(self):
        with pytest.raises(ConfigurationError):
            Controller(epoch_seconds=0)

    def test_duplicate_app_rejected(self):
        c = make_controller()
        c.register(EntropyApp())
        with pytest.raises(ConfigurationError):
            c.register(EntropyApp())

    def test_register_chainable(self):
        c = make_controller().register(EntropyApp()).register(
            CardinalityApp())
        assert len(c.apps) == 2

    def test_default_sketch_factory_works(self):
        c = Controller()
        assert c.program.sketch.num_levels == 12


class TestPollLoop:
    def test_epoch_reports_cover_trace(self, small_trace):
        c = make_controller(epoch_seconds=1.0)
        c.register(CardinalityApp())
        reports = c.run_trace(small_trace)
        assert len(reports) == len(small_trace.epochs(1.0))
        assert sum(r.packets for r in reports) == len(small_trace)

    def test_every_app_gets_every_epoch(self, small_trace):
        c = make_controller(epoch_seconds=2.0)
        c.register(CardinalityApp()).register(EntropyApp())
        for report in c.run_trace(small_trace):
            assert set(report.results) == {"cardinality", "entropy"}

    def test_report_indexing(self, small_trace):
        c = make_controller(epoch_seconds=2.0)
        c.register(EntropyApp())
        report = c.run_trace(small_trace)[0]
        assert report["entropy"]["entropy"] >= 0.0

    def test_sketch_reset_between_epochs(self, small_trace):
        """Each epoch report must reflect only its own packets."""
        c = make_controller(epoch_seconds=1.0)
        c.register(CardinalityApp())
        reports = c.run_trace(small_trace)
        per_epoch_distinct = [r["cardinality"]["distinct"] for r in reports]
        whole_distinct = small_trace.distinct(c.program.key_function)
        assert all(d < whole_distinct for d in per_epoch_distinct if d > 0)

    def test_change_app_runs_across_epochs(self, small_trace):
        c = make_controller(epoch_seconds=1.0)
        c.register(ChangeDetectionApp(phi=0.05))
        reports = c.run_trace(small_trace)
        assert reports[0]["change"]["ready"] is False
        assert all(r["change"]["ready"] for r in reports[1:])

    def test_reset_propagates_to_apps(self, small_trace):
        c = make_controller(epoch_seconds=2.0)
        app = ChangeDetectionApp(phi=0.05)
        c.register(app)
        c.run_trace(small_trace)
        c.reset()
        assert app._previous is None

    def test_one_snapshot_build_per_epoch_regardless_of_apps(
            self, small_trace):
        """The controller warms one query snapshot per sealed sketch;
        every registered app shares it via the version-guarded cache, so
        the build count equals the epoch count whether one app polls or
        three do."""
        from repro.obs import MetricsRegistry, use_registry
        build_counts = {}
        for label, apps in (
                ("one", [CardinalityApp()]),
                ("three", [CardinalityApp(), EntropyApp(),
                           HeavyHitterApp(alpha=0.01)])):
            c = make_controller(epoch_seconds=1.0)
            for app in apps:
                c.register(app)
            reg = MetricsRegistry()
            with use_registry(reg):
                reports = c.run_trace(small_trace)
            builds = reg.get("univmon_query_snapshot_builds_total")
            assert builds is not None
            build_counts[label] = (builds.value, len(reports))
        for value, epochs in build_counts.values():
            assert value == epochs
        assert build_counts["one"] == build_counts["three"]

    def test_no_apps_no_snapshot_builds(self, small_trace):
        from repro.obs import MetricsRegistry, use_registry
        c = make_controller(epoch_seconds=2.0)
        reg = MetricsRegistry()
        with use_registry(reg):
            c.run_trace(small_trace)
        assert reg.get("univmon_query_snapshot_builds_total") is None

    def test_report_times_are_min_max_for_unsorted_traces(self):
        """Regression: start/end must be min/max of the timestamps.

        Reading ``timestamps[0]``/``timestamps[-1]`` is only correct for
        time-sorted traces; epoch slices assembled from multiple taps
        (or concatenated captures) arrive unsorted.
        """
        import numpy as np

        from repro.dataplane.trace import Trace

        n = 50
        timestamps = np.linspace(0.0, 4.0, n)
        rng = np.random.default_rng(3)
        rng.shuffle(timestamps)
        # Guarantee the endpoints are interior after the shuffle.
        assert timestamps[0] != timestamps.min()
        assert timestamps[-1] != timestamps.max()
        trace = Trace(timestamps,
                      rng.integers(1, 1000, n).astype(np.uint32),
                      np.full(n, 1, dtype=np.uint32),
                      np.full(n, 1000, dtype=np.uint16),
                      np.full(n, 80, dtype=np.uint16),
                      np.full(n, 6, dtype=np.uint8))
        report = make_controller().run_epoch(trace, 0)
        assert report.start_time == pytest.approx(0.0)
        assert report.end_time == pytest.approx(4.0)

    def test_chunked_seal_reports_like_run_epoch(self, small_trace):
        """An epoch ingested as chunks out of time order and sealed with
        ``seal_epoch`` reports what ``run_epoch`` reports for the whole
        epoch: the packet count and the min/max timestamps."""
        import numpy as np

        epoch = small_trace.epochs(2.0)[0]
        whole = make_controller().run_epoch(epoch, 0)
        rng = np.random.default_rng(4)
        order = rng.permutation(len(epoch))
        c = make_controller()
        for index in np.array_split(order, 5)[::-1]:
            c.ingest(epoch._take(index))
        _sealed, chunked = c.seal_epoch(0)
        assert (chunked.packets, chunked.start_time, chunked.end_time) == \
            (whole.packets, whole.start_time, whole.end_time)
        assert chunked.packets == len(epoch)
        assert chunked.start_time < chunked.end_time
        # The bounds reset at the seal: an empty epoch reports 0.0, 0.0.
        _sealed, empty = c.seal_epoch(1)
        assert (empty.packets, empty.start_time, empty.end_time) == \
            (0, 0.0, 0.0)

    def test_trace_hook_reaches_trace_aware_apps(self, small_trace):
        """Apps exposing ``observe_trace`` get each epoch's raw trace
        before estimation (the detection pipeline relies on this)."""
        seen = []

        class TraceAware(CardinalityApp):
            name = "trace_aware"

            def observe_trace(self, trace):
                seen.append(len(trace))

        c = make_controller(epoch_seconds=1.0)
        c.register(TraceAware())
        reports = c.run_trace(small_trace)
        assert len(seen) == len(reports)
        assert sum(seen) == len(small_trace)

    def test_heavy_hitter_app_integration(self, small_trace):
        from repro.eval.groundtruth import GroundTruth
        c = make_controller(epoch_seconds=10.0)  # one epoch = whole trace
        c.register(HeavyHitterApp(alpha=0.01))
        report = c.run_trace(small_trace)[0]
        truth = GroundTruth(small_trace, c.program.key_function)
        true_keys = truth.heavy_hitter_keys(0.01)
        reported = set(report["heavy_hitters"]["keys"])
        # At this generous width the sets should mostly agree.
        assert len(true_keys - reported) <= max(1, len(true_keys) // 4)
