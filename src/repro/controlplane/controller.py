"""The UnivMon controller: epoch-driven poll loop over a monitored switch.

Mirrors Figure 2: the data plane (a :class:`MonitoredSwitch` running a
universal-sketch program) is polled every ``epoch_seconds``; the sealed
sketch is handed to every registered estimation app, and the per-epoch
results are collected into :class:`EpochReport`s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs import observe_sketch
from repro.obs.metrics import get_registry
from repro.controlplane.apps.base import MonitoringApp
from repro.dataplane.keys import KeyFunction, src_ip_key
from repro.dataplane.switch import MonitoredSwitch
from repro.dataplane.trace import Trace
from repro.core.query import QueryEngine
from repro.core.universal import UniversalSketch


def seal_stage(reg, stage: str):
    """Span one stage of an epoch seal in
    ``univmon_epoch_seal_seconds{stage=}``: ``poll``, ``observe``,
    ``snapshot``, ``apps`` and, in the service, ``publish``."""
    return reg.span("univmon_epoch_seal_seconds",
                    help="epoch seal latency by stage", stage=stage)


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
    """Registered estimation apps and the one place epoch reports are built.

    Shared by :class:`Controller` and
    :class:`~repro.network.hierarchy.HierarchicalCoordinator`, so both
    reject duplicate app names, account every evaluated epoch in the
    ``univmon_epoch*`` series, build one query snapshot per epoch, and
    time each app under ``univmon_app_seconds{app=}``.
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

    def evaluate_sealed(self, sealed, epoch_index: int,
                        start_time: float = 0.0,
                        end_time: float = 0.0) -> EpochReport:
        """Account one sealed sketch and hand it to every app.

        The report's packet count is the sealed sketch's own.  The
        epoch's query snapshot is materialised once, before the apps
        run: every app reads the (immutable-from-here) sketch, so they
        all share that build via the version-guarded cache.
        """
        reg = get_registry()
        with seal_stage(reg, "observe"):
            observe_sketch(sealed, reg)
        packets = int(getattr(sealed, "packets", 0))
        reg.counter("univmon_epochs_total",
                    help="sealed epochs evaluated").inc()
        reg.counter("univmon_epoch_packets_total",
                    help="packets covered across all sealed epochs").inc(
                        packets)
        reg.gauge("univmon_epoch_packets",
                  help="packets in the last sealed epoch").set(packets)
        report = EpochReport(epoch_index=epoch_index, start_time=start_time,
                             end_time=end_time, packets=packets)
        if not self._apps:
            return report
        with seal_stage(reg, "snapshot"):
            QueryEngine(sealed).warm()
        with seal_stage(reg, "apps"):
            for app in self._apps:
                with reg.span("univmon_app_seconds",
                              help="per-app estimation latency",
                              app=app.name):
                    report.results[app.name] = app.on_sketch(sealed,
                                                             epoch_index)
        return report

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
        #: (min, max) timestamp ingested since the last seal, or None.
        self._bounds: Optional[Tuple[float, float]] = None

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
        _sealed, report = self.seal_epoch(epoch_index)
        return report

    # ------------------------------------------------------------------ #
    # the epoch loop, decomposed (reused by repro.service)
    # ------------------------------------------------------------------ #

    def ingest(self, trace: Trace) -> None:
        """Feed packets into the live sketch (no epoch boundary).

        The batch loop calls this once per epoch; the always-on service
        calls it per arriving chunk and seals on a wall-clock timer via
        :meth:`seal_epoch` — same data path, different pacing.  The
        chunk's min/max timestamps widen the open epoch's bounds (min/max,
        not first/last: traces are not guaranteed time-sorted), and apps
        with an ``observe_trace`` hook (the detection pipeline) see the
        chunk, in registration order.  Nothing keeps the chunk.
        """
        with get_registry().span(
                "univmon_epoch_ingest_seconds",
                help="wall time feeding one epoch into the switch"):
            self.switch.process_trace(trace)
            if len(trace):
                start = float(trace.timestamps.min())
                end = float(trace.timestamps.max())
                if self._bounds is not None:
                    start = min(start, self._bounds[0])
                    end = max(end, self._bounds[1])
                self._bounds = (start, end)
            for app in self._apps:
                observe = getattr(app, "observe_trace", None)
                if observe is not None:
                    observe(trace)

    def seal_epoch(self, epoch_index: int,
                   trace: Optional[Trace] = None) -> tuple:
        """Poll the live sketch (sealing the epoch) and run every app.

        Returns ``(sealed_sketch, EpochReport)`` — callers that need the
        sealed sketch itself (the service publishes its query snapshot)
        get it without a second poll.  The report spans the timestamps
        :meth:`ingest` saw since the last seal (0.0 and 0.0 for an epoch
        without packets).  ``trace`` is ignored; it is still accepted
        because ``perfbench/w_switch.py`` passes it.
        """
        with seal_stage(get_registry(), "poll"):
            sealed = self.switch.poll("univmon")
        start, end = self._bounds or (0.0, 0.0)
        self._bounds = None
        return sealed, self.evaluate_sealed(sealed, epoch_index, start, end)
