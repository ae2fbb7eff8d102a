"""The detection pipeline: rules x state machines x actions, per epoch.

:class:`DetectionPipeline` is a :class:`~repro.controlplane.apps.base.MonitoringApp`,
so it registers on a :class:`~repro.controlplane.controller.Controller`
(or :class:`~repro.network.hierarchy.HierarchicalCoordinator`) like any
estimation app and consumes each sealed epoch sketch.  Per epoch it:

1. resolves the union of metrics every rule reads into one
   :meth:`~repro.core.query.QueryEngine.evaluate_many` batch over the
   epoch's cached :class:`~repro.core.query.QuerySnapshot` — rule count
   does not multiply snapshot builds;
2. evaluates each rule's condition against those values and its own
   EWMA baselines, and steps the rule's
   :class:`~repro.detect.state.RuleStateMachine`;
3. on CONFIRMED epochs, runs the rule's actions (zoom refinement, key
   recovery — see :mod:`repro.detect.actions`) and emits structured
   :class:`DetectionEvent`\\ s, mirrored into the obs layer as
   ``univmon_detect_*`` counters and spans.

The controller hands the pipeline the epoch's raw trace through the
optional ``observe_trace`` hook before ``on_sketch``; without it (the
remote coordinator only ships merged sketches) the pipeline still
detects — actions degrade to snapshot-based recovery and no zoom.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, \
    Tuple

from repro.errors import ConfigurationError
from repro.obs.metrics import get_registry
from repro.controlplane.apps.base import MonitoringApp
from repro.core.gsum import heavy_changes
from repro.core.query import QueryEngine, Statistic
from repro.detect.actions import RecoveryAction, ZoomAction
from repro.detect.rules import Rule
from repro.detect.state import RuleState, RuleStateMachine


@dataclass
class DetectionEvent:
    """One state transition or confirmed-epoch report for one rule."""

    epoch_index: int
    rule: str
    state_from: str
    state_to: str
    triggering: bool
    condition: str
    values: Dict[str, Optional[float]] = field(default_factory=dict)
    baselines: Dict[str, Optional[float]] = field(default_factory=dict)
    recovered_keys: List[Dict[str, object]] = field(default_factory=list)
    zoom_regions: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def is_transition(self) -> bool:
        return self.state_from != self.state_to

    def to_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch_index,
            "rule": self.rule,
            "from": self.state_from,
            "to": self.state_to,
            "triggering": self.triggering,
            "condition": self.condition,
            "values": dict(self.values),
            "baselines": dict(self.baselines),
            "recovered_keys": list(self.recovered_keys),
            "zoom_regions": [list(r) for r in self.zoom_regions],
        }


# --------------------------------------------------------------------- #
# metric resolution: rule metric specs -> per-epoch values
# --------------------------------------------------------------------- #

@functools.lru_cache(maxsize=256)
def _statistic_for(spec: str) -> Optional[Statistic]:
    """The batch-engine statistic behind a rule metric, if one maps.

    Memoised: a pipeline resolves the same specs every epoch, and a
    shared Statistic (hence shared GFunction) keeps the engine's
    identity-keyed validation caches warm."""
    family, _, param = spec.partition(":")
    if family in ("packets", "hh_count", "max_share", "total_change"):
        return None     # handled outside evaluate_many
    if family == "f0":
        family = "cardinality"
    return Statistic.parse(f"{family}:{param}" if param else family)


def _resolve_metrics(sketch, specs: FrozenSet[str],
                     prev_sketch) -> Dict[str, Optional[float]]:
    """Evaluate every needed metric from one snapshot, one batch pass."""
    engine = QueryEngine(sketch)
    stats: Dict[str, Statistic] = {}
    for spec in specs:
        stat = _statistic_for(spec)
        if stat is not None:
            stats[spec] = stat
    values: Dict[str, Optional[float]] = {}
    if stats:
        batch = engine.evaluate_many(set(stats.values()))
        for spec, stat in stats.items():
            values[spec] = float(batch[stat.name])
    snapshot = engine.snapshot()
    for spec in specs:
        if spec in values:
            continue
        family, _, param = spec.partition(":")
        if family == "packets":
            values[spec] = float(snapshot.total_weight)
        elif family == "hh_count":
            fraction = float(param) if param else 0.005
            values[spec] = float(len(snapshot.gcore(fraction)))
        elif family == "max_share":
            total = snapshot.total_weight
            mags = snapshot.mags[0]
            values[spec] = (float(mags[0]) / total
                            if total > 0 and len(mags) else 0.0)
        elif family == "total_change":
            if prev_sketch is None:
                values[spec] = None     # warms up after the first epoch
            else:
                phi = float(param) if param else 0.05
                _, total = heavy_changes(sketch, prev_sketch, phi)
                values[spec] = float(total)
        else:   # unreachable: the rule parser rejects unknown families
            raise ConfigurationError(f"unresolvable metric {spec!r}")
    return values


# --------------------------------------------------------------------- #
# the pipeline app
# --------------------------------------------------------------------- #

class DetectionPipeline(MonitoringApp):
    """Declarative detection over sealed epoch sketches.

    Parameters
    ----------
    rules:
        The rule set (parsed :class:`~repro.detect.rules.Rule` objects;
        see :func:`rules_from_spec` for TOML/JSON loading).
    recover_fraction:
        Key-recovery threshold as a share of the epoch's packets.
    zoom:
        A pre-configured :class:`~repro.network.zoom.ZoomMonitor` to
        drive (one is created on demand otherwise).
    keep_events:
        Retain the full event log on the instance (``.events``); per-epoch
        events are always returned in the ``on_sketch`` result.
    """

    name = "detect"

    def __init__(self, rules: Iterable[Rule],
                 recover_fraction: float = 0.08,
                 zoom=None,
                 keep_events: bool = True) -> None:
        self.rules: List[Rule] = list(rules)
        if not self.rules:
            raise ConfigurationError("detection pipeline needs >= 1 rule")
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate rule names in {names}")
        self.machines: Dict[str, RuleStateMachine] = {
            rule.name: RuleStateMachine(confirm_epochs=rule.confirm_epochs,
                                        cooldown_epochs=rule.cooldown_epochs)
            for rule in self.rules
        }
        self._needs_recover = any("recover" in rule.actions
                                  for rule in self.rules)
        self._needs_zoom = any("zoom" in rule.actions for rule in self.rules)
        self._needs_change = any(
            any(m.startswith("total_change") for m in rule.metrics())
            for rule in self.rules)
        self.recovery = RecoveryAction(fraction=recover_fraction) \
            if self._needs_recover else None
        self.zoom_action = ZoomAction(zoom) if self._needs_zoom else None
        self.keep_events = keep_events
        self.events: List[DetectionEvent] = []
        self._trace = None           # set by observe_trace, per epoch
        self._prev_sketch = None     # defensive copy, only when needed
        self.recover_fraction = recover_fraction

    # -- controller hooks ------------------------------------------------ #

    def observe_trace(self, trace) -> None:
        """Receive the raw epoch trace (optional controller hook).

        Runs *before* ``on_sketch`` for the same epoch; the trace powers
        zoom refinement and reversible-sketch maintenance.  Sketch-only
        hosts (the remote coordinator) simply never call this.
        """
        self._trace = trace

    def on_sketch(self, sketch, epoch_index: int) -> Dict[str, Any]:
        reg = get_registry()
        trace = self._trace
        self._trace = None
        # Maintain recovery sketches every epoch (the difference stream
        # needs the previous epoch ready *before* anything confirms).
        if self.recovery is not None and trace is not None:
            with reg.span("univmon_detect_action_seconds",
                          help="detection action latency", action="maintain"):
                self.recovery.observe(trace)

        needed: FrozenSet[str] = frozenset().union(
            *(rule.metrics() for rule in self.rules))
        with reg.span("univmon_detect_eval_seconds",
                      help="rule metric resolution + condition evaluation"):
            values = _resolve_metrics(sketch, needed, self._prev_sketch)
            outcomes = {rule.name: rule.evaluate(values)
                        for rule in self.rules}
        if self._needs_change:
            copy = getattr(sketch, "copy", None)
            self._prev_sketch = copy() if copy is not None else None

        reg.counter("univmon_detect_epochs_total",
                    help="epochs evaluated by the detection pipeline").inc()
        reg.gauge("univmon_detect_rules",
                  help="rules registered on the pipeline").set(
                      len(self.rules))

        epoch_events: List[DetectionEvent] = []
        recovered_cache: Optional[List[Dict[str, object]]] = None
        for rule in self.rules:
            triggering = outcomes[rule.name]
            machine = self.machines[rule.name]
            previous, current = machine.step(triggering)
            if previous == current and not machine.active:
                continue    # steady non-alerting state: no event
            event = DetectionEvent(
                epoch_index=epoch_index, rule=rule.name,
                state_from=previous.value, state_to=current.value,
                triggering=triggering, condition=rule.condition.describe(),
                values={m: values.get(m) for m in rule.metrics()},
                baselines=rule.baselines())
            if previous != current:
                reg.counter("univmon_detect_transitions_total",
                            help="rule state transitions",
                            rule=rule.name, to=current.value).inc()
            if machine.active:
                reg.counter("univmon_detect_confirmed_epochs_total",
                            help="epochs spent CONFIRMED per rule",
                            rule=rule.name).inc()
                with reg.span("univmon_detect_action_seconds",
                              help="detection action latency",
                              action="respond"):
                    self._run_actions(rule, event, sketch, trace,
                                      epoch_index, recovered_cache)
                if event.recovered_keys and recovered_cache is None:
                    recovered_cache = event.recovered_keys
            epoch_events.append(event)
        if self.keep_events:
            self.events.extend(epoch_events)
        return {
            "states": {rule.name: self.machines[rule.name].state.value
                       for rule in self.rules},
            "triggering": outcomes,
            "values": values,
            "events": [event.to_dict() for event in epoch_events],
            "alerting": [rule.name for rule in self.rules
                         if self.machines[rule.name].active],
        }

    def _run_actions(self, rule: Rule, event: DetectionEvent, sketch,
                     trace, epoch_index: int,
                     recovered_cache) -> None:
        reg = get_registry()
        if "recover" in rule.actions:
            if recovered_cache is not None:
                # Another rule already reversed this epoch's streams.
                event.recovered_keys = list(recovered_cache)
            elif self.recovery is not None and trace is not None:
                event.recovered_keys = self.recovery.recover()
            else:
                event.recovered_keys = RecoveryAction.recover_from_snapshot(
                    sketch, self.recover_fraction)
            if recovered_cache is None:
                reg.counter("univmon_detect_keys_recovered_total",
                            help="keys recovered by detection actions").inc(
                                len(event.recovered_keys))
        if "zoom" in rule.actions and self.zoom_action is not None:
            event.zoom_regions = self.zoom_action.refine(trace, epoch_index)

    # -- introspection --------------------------------------------------- #

    def states(self) -> Dict[str, RuleState]:
        return {name: machine.state
                for name, machine in self.machines.items()}

    def reset(self) -> None:
        for rule in self.rules:
            rule.reset()
        for machine in self.machines.values():
            machine.reset()
        if self.recovery is not None:
            self.recovery.reset()
        if self.zoom_action is not None:
            self.zoom_action.reset()
        self.events.clear()
        self._trace = None
        self._prev_sketch = None


# --------------------------------------------------------------------- #
# rule specs (TOML / JSON)
# --------------------------------------------------------------------- #

_RULE_KEYS = frozenset({"name", "when", "confirm_epochs", "cooldown_epochs",
                        "min_baseline_epochs", "baseline_alpha", "actions"})


def rules_from_spec(spec: Mapping[str, Any]) -> List[Rule]:
    """Build rules from a parsed spec mapping: ``{"rules": [{...}]}``."""
    entries = spec.get("rules")
    if not isinstance(entries, list) or not entries:
        raise ConfigurationError(
            "rule spec needs a non-empty 'rules' list")
    rules = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            raise ConfigurationError(f"rules[{i}] is not a table/object")
        unknown = set(entry) - _RULE_KEYS
        if unknown:
            raise ConfigurationError(
                f"rules[{i}] has unknown keys {sorted(unknown)} "
                f"(know: {sorted(_RULE_KEYS)})")
        if "name" not in entry or "when" not in entry:
            raise ConfigurationError(
                f"rules[{i}] needs 'name' and 'when'")
        kwargs = dict(entry)
        if "actions" in kwargs:
            kwargs["actions"] = tuple(kwargs["actions"])
        rules.append(Rule(**kwargs))
    return rules


def load_rules(path: str) -> List[Rule]:
    """Load rules from a ``.toml`` or ``.json`` spec file."""
    if path.endswith(".toml"):
        import tomllib
        with open(path, "rb") as fh:
            spec = tomllib.load(fh)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    return rules_from_spec(spec)


#: A conservative stock rule set for ``univmon detect`` without a spec:
#: volumetric DDoS (cardinality + volume), scan (cardinality explosion
#: with flat volume), and entropy collapse (one key dominating).
DEFAULT_RULES: Tuple[Dict[str, Any], ...] = (
    {"name": "cardinality-surge",
     "when": "cardinality spikes > 1.5x baseline",
     "confirm_epochs": 2, "cooldown_epochs": 2},
    {"name": "volume-surge",
     "when": "packets rises > 100% and l2 spikes > 1.5x baseline",
     "confirm_epochs": 2, "cooldown_epochs": 2},
    {"name": "entropy-collapse",
     "when": "entropy drops > 40%",
     "confirm_epochs": 2, "cooldown_epochs": 2},
)


def default_rules() -> List[Rule]:
    return rules_from_spec({"rules": [dict(r) for r in DEFAULT_RULES]})


__all__ = [
    "DetectionEvent",
    "DetectionPipeline",
    "default_rules",
    "DEFAULT_RULES",
    "load_rules",
    "rules_from_spec",
]
