"""The UnivMon controller: epoch-driven poll loop over a monitored switch.

Mirrors Figure 2: the data plane (a :class:`MonitoredSwitch` running a
universal-sketch program) is polled every ``epoch_seconds``; the sealed
sketch is handed to every registered estimation app, and the per-epoch
results are collected into :class:`EpochReport`s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs import observe_sketch
from repro.obs.metrics import get_registry
from repro.controlplane.apps.base import MonitoringApp
from repro.dataplane.keys import KeyFunction, src_ip_key
from repro.dataplane.switch import MonitoredSwitch
from repro.dataplane.trace import Trace
from repro.core.query import QueryEngine
from repro.core.universal import UniversalSketch


@dataclass
class EpochReport:
    """Everything the control plane learned from one polling interval."""

    epoch_index: int
    start_time: float
    end_time: float
    packets: int
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def __getitem__(self, app_name: str) -> Dict[str, Any]:
        return self.results[app_name]


class AppHost:
    """Registered estimation apps and their per-epoch fan-out.

    Shared by :class:`Controller` and
    :class:`~repro.network.hierarchy.HierarchicalCoordinator`, so both
    reject duplicate app names, build one query snapshot per published
    epoch, and time each app under ``univmon_app_seconds{app=}``.
    """

    def __init__(self) -> None:
        self._apps: List[MonitoringApp] = []

    def register(self, app: MonitoringApp):
        """Add an estimation app (chainable)."""
        if any(existing.name == app.name for existing in self._apps):
            raise ConfigurationError(f"duplicate app name {app.name!r}")
        self._apps.append(app)
        return self

    @property
    def apps(self) -> List[MonitoringApp]:
        return list(self._apps)

    def run_apps(self, sketch, epoch_index: int, report: EpochReport,
                 trace: Optional[Trace] = None) -> None:
        """Hand one epoch's sketch to every app, results into ``report``.

        The epoch's query snapshot is materialised once, up front: every
        app reads the (immutable-from-here) sketch, so they all share
        that build via the version-guarded cache.  Trace-aware apps
        (e.g. the detection pipeline, which feeds zoom and reversible
        sketches from raw packets) get ``trace`` before estimation;
        sketch-only apps don't implement the hook.
        """
        if not self._apps:
            return
        QueryEngine(sketch).warm()
        if trace is not None:
            for app in self._apps:
                observe = getattr(app, "observe_trace", None)
                if observe is not None:
                    observe(trace)
        reg = get_registry()
        for app in self._apps:
            with reg.span("univmon_app_seconds",
                          help="per-app estimation latency",
                          app=app.name):
                report.results[app.name] = app.on_sketch(sketch,
                                                         epoch_index)

    def reset(self) -> None:
        """Drop cross-epoch app state (trace boundary)."""
        for app in self._apps:
            app.reset()


class Controller(AppHost):
    """Drives the poll loop and fans sealed sketches out to the apps.

    Parameters
    ----------
    sketch_factory:
        Produces the per-epoch universal sketch; defaults to a moderate
        :class:`UniversalSketch` geometry.
    key_function:
        The feature to monitor (the paper's evaluation uses source IP).
    epoch_seconds:
        Polling interval (the paper uses 5 seconds).
    """

    def __init__(self,
                 sketch_factory: Optional[Callable[[], UniversalSketch]] = None,
                 key_function: KeyFunction = src_ip_key,
                 epoch_seconds: float = 5.0,
                 switch: Optional[MonitoredSwitch] = None) -> None:
        if epoch_seconds <= 0:
            raise ConfigurationError(
                f"epoch_seconds must be > 0, got {epoch_seconds}")
        super().__init__()
        if sketch_factory is None:
            sketch_factory = lambda: UniversalSketch(  # noqa: E731
                levels=12, rows=5, width=2048, heap_size=64, seed=1)
        self.epoch_seconds = epoch_seconds
        self.switch = switch or MonitoredSwitch("s1")
        self.program = self.switch.attach("univmon", sketch_factory,
                                          key_function)

    # ------------------------------------------------------------------ #
    # the poll loop
    # ------------------------------------------------------------------ #

    def run_trace(self, trace: Trace) -> List[EpochReport]:
        """Process a whole trace epoch by epoch; returns all reports."""
        reports = []
        for index, epoch in enumerate(trace.epochs(self.epoch_seconds)):
            reports.append(self.run_epoch(epoch, index))
        return reports

    def run_epoch(self, epoch_trace: Trace, epoch_index: int) -> EpochReport:
        """Feed one epoch through the switch, poll, and estimate."""
        self.ingest(epoch_trace)
        _sealed, report = self.seal_epoch(epoch_index, trace=epoch_trace)
        return report

    # ------------------------------------------------------------------ #
    # the epoch loop, decomposed (reused by repro.service)
    # ------------------------------------------------------------------ #

    def ingest(self, trace: Trace) -> None:
        """Feed packets into the live sketch (no epoch boundary).

        The batch loop calls this once per epoch; the always-on service
        calls it per arriving chunk and seals on a wall-clock timer via
        :meth:`seal_epoch` — same data path, different pacing.
        """
        with get_registry().span(
                "univmon_epoch_ingest_seconds",
                help="wall time feeding one epoch into the switch"):
            self.switch.process_trace(trace)

    def seal_epoch(self, epoch_index: int,
                   trace: Optional[Trace] = None) -> tuple:
        """Poll the live sketch (sealing the epoch) and run every app.

        Returns ``(sealed_sketch, EpochReport)`` — callers that need the
        sealed sketch itself (the service publishes its query snapshot)
        get it without a second poll.  ``trace`` is optional: it powers
        the per-epoch timestamps and trace-aware apps (detection zoom /
        recovery); timer-driven callers that do not retain packets pass
        None and those apps degrade as documented.
        """
        sealed = self.switch.poll("univmon")
        report = self.evaluate_sealed(sealed, epoch_index, trace=trace)
        return sealed, report

    def evaluate_sealed(self, sealed, epoch_index: int,
                        trace: Optional[Trace] = None) -> EpochReport:
        """Account one sealed sketch and fan it out to the apps."""
        reg = get_registry()
        observe_sketch(sealed, reg)
        packets = len(trace) if trace is not None \
            else int(getattr(sealed, "packets", 0))
        reg.counter("univmon_epochs_total",
                    help="epochs sealed by the controller").inc()
        reg.counter("univmon_epoch_packets_total",
                    help="packets covered across all sealed epochs").inc(
                        packets)
        reg.gauge("univmon_epoch_packets",
                  help="packets in the last sealed epoch").set(packets)
        # min/max, not [0]/[-1]: traces are not guaranteed time-sorted.
        t0 = float(trace.timestamps.min()) \
            if trace is not None and len(trace) else 0.0
        t1 = float(trace.timestamps.max()) \
            if trace is not None and len(trace) else 0.0
        report = EpochReport(epoch_index=epoch_index, start_time=t0,
                             end_time=t1, packets=packets)
        self.run_apps(sealed, epoch_index, report, trace=trace)
        return report
