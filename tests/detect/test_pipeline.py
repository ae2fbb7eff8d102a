"""Tests for the detection pipeline app (wiring, actions, specs, obs)."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.controlplane.controller import Controller
from repro.dataplane.trace import Trace
from repro.detect import (DetectionPipeline, Rule, RuleState, default_rules,
                          load_rules, rules_from_spec)
from repro.obs import MetricsRegistry, use_registry
from repro.core.universal import UniversalSketch


def sketch_of(keys, seed=3):
    u = UniversalSketch(levels=6, rows=5, width=512, heap_size=32, seed=seed)
    u.update_array(np.asarray(keys, dtype=np.uint64))
    return u


def trace_of(sources, dst=0x0A000001, t0=0.0):
    n = len(sources)
    return Trace(
        np.linspace(t0, t0 + 0.9, n) if n else np.empty(0),
        np.asarray(sources, dtype=np.uint32),
        np.full(n, dst, dtype=np.uint32),
        np.full(n, 1000, dtype=np.uint16),
        np.full(n, 80, dtype=np.uint16),
        np.full(n, 6, dtype=np.uint8),
    )


def quiet_keys(rng, n=800):
    return rng.integers(1, 2_000, size=n)


def surge_keys(rng, n=800, fresh=4000):
    return np.concatenate([quiet_keys(rng, n),
                           rng.integers(1 << 20, (1 << 20) + 10 ** 6,
                                        size=fresh)])


def spike_rule(**overrides):
    kwargs = dict(name="surge", when="cardinality spikes > 2x baseline",
                  confirm_epochs=1, cooldown_epochs=1)
    kwargs.update(overrides)
    return Rule(**kwargs)


def feed(pipeline, epochs, seed=3):
    """Run key arrays through the pipeline as sketch-only epochs."""
    results = []
    for i, keys in enumerate(epochs):
        results.append(pipeline.on_sketch(sketch_of(keys, seed=seed), i))
    return results


class TestConfiguration:
    def test_needs_rules(self):
        with pytest.raises(ConfigurationError):
            DetectionPipeline([])

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ConfigurationError):
            DetectionPipeline([spike_rule(), spike_rule()])

    def test_app_protocol_name(self):
        assert DetectionPipeline([spike_rule()]).name == "detect"


class TestDetection:
    def test_quiet_epochs_stay_idle(self):
        rng = np.random.default_rng(0)
        pipe = DetectionPipeline([spike_rule()])
        results = feed(pipe, [quiet_keys(rng) for _ in range(4)])
        for result in results:
            assert result["states"] == {"surge": "idle"}
            assert result["alerting"] == []
        assert pipe.events == []

    def test_surge_confirms_and_recovers(self):
        rng = np.random.default_rng(1)
        pipe = DetectionPipeline([spike_rule(cooldown_epochs=2)])
        results = feed(pipe, [quiet_keys(rng), quiet_keys(rng),
                              surge_keys(rng), quiet_keys(rng),
                              quiet_keys(rng)])
        states = [r["states"]["surge"] for r in results]
        assert states == ["idle", "idle", "confirmed", "recovering", "idle"]
        assert results[2]["alerting"] == ["surge"]

    def test_confirm_epochs_debounce(self):
        rng = np.random.default_rng(2)
        pipe = DetectionPipeline([spike_rule(confirm_epochs=2)])
        results = feed(pipe, [quiet_keys(rng), surge_keys(rng),
                              surge_keys(rng)])
        states = [r["states"]["surge"] for r in results]
        assert states == ["idle", "triggered", "confirmed"]

    def test_rules_evaluated_independently(self):
        rng = np.random.default_rng(3)
        never = Rule(name="never", when="packets > 1e12",
                     confirm_epochs=1, cooldown_epochs=1)
        pipe = DetectionPipeline([spike_rule(), never])
        results = feed(pipe, [quiet_keys(rng), surge_keys(rng)])
        assert results[1]["states"] == {"surge": "confirmed",
                                        "never": "idle"}

    def test_events_have_values_and_baselines(self):
        rng = np.random.default_rng(4)
        pipe = DetectionPipeline([spike_rule()])
        feed(pipe, [quiet_keys(rng), surge_keys(rng)])
        [event] = [e for e in pipe.events if e.state_to == "confirmed"]
        assert event.rule == "surge"
        assert event.values["cardinality"] > 0
        assert event.baselines["cardinality"] > 0
        payload = event.to_dict()
        assert payload["epoch"] == 1 and payload["to"] == "confirmed"

    def test_reset_clears_everything(self):
        rng = np.random.default_rng(5)
        pipe = DetectionPipeline([spike_rule()])
        feed(pipe, [quiet_keys(rng), surge_keys(rng)])
        pipe.reset()
        assert pipe.states()["surge"] is RuleState.IDLE
        assert pipe.events == []
        # baselines forgot too: the next epoch warms, not triggers
        result = pipe.on_sketch(sketch_of(surge_keys(rng)), 0)
        assert result["states"]["surge"] == "idle"


class TestMetricResolution:
    def test_derived_metrics_resolve(self):
        rule = Rule(name="derived",
                    when="packets > 1 and hh_count:0.2 >= 1 "
                         "and max_share > 0.1",
                    confirm_epochs=1, cooldown_epochs=1)
        pipe = DetectionPipeline([rule])
        keys = np.concatenate([np.full(500, 7, dtype=np.uint64),
                               np.arange(100, dtype=np.uint64)])
        result = pipe.on_sketch(sketch_of(keys), 0)
        values = result["values"]
        assert values["packets"] == pytest.approx(600)
        assert values["hh_count:0.2"] >= 1
        assert 0.1 < values["max_share"] <= 1.0
        assert result["states"]["derived"] == "confirmed"

    def test_total_change_warms_up_then_resolves(self):
        rule = Rule(name="churn", when="total_change > 500",
                    confirm_epochs=1, cooldown_epochs=1)
        pipe = DetectionPipeline([rule])
        base = np.arange(300, dtype=np.uint64)
        first = pipe.on_sketch(sketch_of(base, seed=9), 0)
        assert first["values"]["total_change"] is None
        assert first["states"]["churn"] == "idle"
        surged = np.concatenate([base, np.full(2000, 777, dtype=np.uint64)])
        second = pipe.on_sketch(sketch_of(surged, seed=9), 1)
        assert second["values"]["total_change"] > 500
        assert second["states"]["churn"] == "confirmed"


class TestActions:
    def test_snapshot_recovery_without_trace(self):
        """Sketch-only hosts (remote coordinator) still get keys."""
        rng = np.random.default_rng(6)
        pipe = DetectionPipeline([spike_rule()], recover_fraction=0.2)
        heavy = np.concatenate([surge_keys(rng),
                                np.full(3000, 42, dtype=np.uint64)])
        feed(pipe, [quiet_keys(rng), heavy])
        [event] = [e for e in pipe.events if e.state_to == "confirmed"]
        streams = {r["stream"] for r in event.recovered_keys}
        assert streams == {"snapshot"}
        assert 42 in {r["key"] for r in event.recovered_keys}

    def test_trace_recovery_names_the_heavy_source_and_destination(self):
        rng = np.random.default_rng(7)
        pipe = DetectionPipeline([spike_rule()], recover_fraction=0.1)
        attacker, victim = 0x0B0B0B0B, 0xC0A80001
        quiet = trace_of(rng.integers(1, 2_000, size=800))
        pipe.observe_trace(quiet)
        pipe.on_sketch(sketch_of(quiet.src), 0)
        surge_srcs = np.concatenate([
            rng.integers(1, 2_000, size=800),
            rng.integers(1 << 20, (1 << 20) + 10 ** 6, size=3000),
            np.full(4000, attacker, dtype=np.uint64)])
        surge = trace_of(surge_srcs, dst=victim)
        pipe.observe_trace(surge)
        pipe.on_sketch(sketch_of(surge.src), 1)
        [event] = [e for e in pipe.events if e.state_to == "confirmed"]
        raw = {(r["feature"], r["key"]) for r in event.recovered_keys
               if r["stream"] == "raw"}
        diff = {(r["feature"], r["key"]) for r in event.recovered_keys
                if r["stream"] == "difference"}
        assert ("src", attacker) in raw
        assert ("dst", victim) in raw
        assert ("src", attacker) in diff  # fresh this epoch

    def test_zoom_refines_on_confirmed_epochs(self):
        rng = np.random.default_rng(8)
        pipe = DetectionPipeline([spike_rule()])
        quiet = trace_of(rng.integers(1, 2_000, size=800))
        pipe.observe_trace(quiet)
        pipe.on_sketch(sketch_of(quiet.src), 0)
        hot = 0x0B000000 | rng.integers(0, 1 << 24, size=4000)
        surge = trace_of(np.concatenate([rng.integers(1, 2_000, size=800),
                                         hot]))
        pipe.observe_trace(surge)
        pipe.on_sketch(sketch_of(surge.src), 1)
        [event] = [e for e in pipe.events if e.state_to == "confirmed"]
        assert (0x0B000000, 8) in event.zoom_regions

    def test_chunked_epochs_act_like_whole_epochs(self):
        """Recovery and zoom see every chunk: a pipeline fed each epoch
        in chunks emits the events of one fed each epoch whole, given
        the same sealed sketches."""
        rng = np.random.default_rng(13)
        attacker, victim = 0x0B0B0B0B, 0xC0A80001
        epochs = []
        for i, surge in enumerate((False, False, True, True)):
            sources = rng.integers(1, 2_000, size=800)
            dst = 0x0A000001
            if surge:
                sources = np.concatenate([
                    sources, 0x0B000000 | rng.integers(0, 1 << 24, 3000),
                    np.full(3000 + 1000 * i, attacker)])
                dst = victim
            epochs.append(trace_of(rng.permutation(sources), dst=dst,
                                   t0=float(i)))
        rule = spike_rule(actions=("recover", "zoom"))
        chunked = DetectionPipeline([rule], recover_fraction=0.1)
        whole = DetectionPipeline([rule], recover_fraction=0.1)
        for i, trace in enumerate(epochs):
            for index in np.array_split(np.arange(len(trace)), 4):
                chunked.observe_trace(trace._take(index))
            whole.observe_trace(trace)
            sketch = sketch_of(trace.src)
            chunked.on_sketch(sketch, i)
            whole.on_sketch(sketch, i)
        events = [event.to_dict() for event in whole.events]
        assert [event.to_dict() for event in chunked.events] == events
        confirmed = [e for e in events if e["to"] == "confirmed"]
        assert len(confirmed) == 2
        streams = {(r["feature"], r["stream"])
                   for e in confirmed for r in e["recovered_keys"]}
        assert {("src", "raw"), ("dst", "raw"),
                ("src", "difference")} <= streams
        assert all(e["zoom_regions"] for e in confirmed)

    def test_actions_opt_out(self):
        rng = np.random.default_rng(9)
        rule = spike_rule(actions=())
        pipe = DetectionPipeline([rule])
        assert pipe.recovery is None and pipe.zoom_action is None
        feed(pipe, [quiet_keys(rng), surge_keys(rng)])
        [event] = [e for e in pipe.events if e.state_to == "confirmed"]
        assert event.recovered_keys == [] and event.zoom_regions == []


class TestControllerIntegration:
    def test_controller_feeds_trace_and_collects_results(self):
        rng = np.random.default_rng(10)
        quiet = rng.integers(1, 2_000, size=800)
        surge = np.concatenate([quiet,
                                rng.integers(1 << 20, (1 << 20) + 10 ** 6,
                                             size=4000)])
        chunks = []
        for i, sources in enumerate([quiet, quiet, surge]):
            chunks.append(trace_of(sources, t0=float(i)))
        trace = Trace.concat(chunks)
        factory = lambda: UniversalSketch(levels=6, rows=3, width=512,  # noqa
                                          heap_size=32, seed=5)
        controller = Controller(sketch_factory=factory, epoch_seconds=1.0)
        controller.register(DetectionPipeline([spike_rule()]))
        reports = controller.run_trace(trace)
        assert [r["detect"]["states"]["surge"] for r in reports] == \
            ["idle", "idle", "confirmed"]
        # the controller handed the pipeline the raw trace: trace-backed
        # recovery streams, not the snapshot fallback
        confirmed = [e for r in reports for e in r["detect"]["events"]
                     if e["to"] == "confirmed"]
        assert confirmed and confirmed[0]["recovered_keys"]
        assert {r["stream"] for r in confirmed[0]["recovered_keys"]} \
            <= {"raw", "difference"}

    def test_controller_reset_propagates(self):
        pipe = DetectionPipeline([spike_rule()])
        factory = lambda: UniversalSketch(levels=6, rows=3, width=512,  # noqa
                                          heap_size=32, seed=5)
        controller = Controller(sketch_factory=factory, epoch_seconds=1.0)
        controller.register(pipe)
        rng = np.random.default_rng(11)
        feed(pipe, [quiet_keys(rng), surge_keys(rng)])
        controller.reset()
        assert pipe.states()["surge"] is RuleState.IDLE


class TestObservability:
    def test_detect_metric_families_emitted(self):
        rng = np.random.default_rng(12)
        with use_registry(MetricsRegistry()) as registry:
            pipe = DetectionPipeline([spike_rule()])
            feed(pipe, [quiet_keys(rng), surge_keys(rng), quiet_keys(rng)])
            names = set(registry.families())
        assert "univmon_detect_epochs_total" in names
        assert "univmon_detect_rules" in names
        assert "univmon_detect_transitions_total" in names
        assert "univmon_detect_confirmed_epochs_total" in names
        assert "univmon_detect_eval_seconds" in names
        assert "univmon_detect_keys_recovered_total" in names
        assert "univmon_detect_action_seconds" in names


class TestRuleSpecs:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            rules_from_spec({})
        with pytest.raises(ConfigurationError):
            rules_from_spec({"rules": []})
        with pytest.raises(ConfigurationError):
            rules_from_spec({"rules": [{"name": "x"}]})     # missing when
        with pytest.raises(ConfigurationError):
            rules_from_spec({"rules": [{"name": "x", "when": "l1 > 1",
                                        "bogus": 1}]})

    def test_spec_round_trip(self):
        rules = rules_from_spec({"rules": [
            {"name": "a", "when": "cardinality spikes > 4x baseline",
             "confirm_epochs": 3, "actions": ["recover"]},
            {"name": "b", "when": "entropy drops > 30%"},
        ]})
        assert [r.name for r in rules] == ["a", "b"]
        assert rules[0].confirm_epochs == 3
        assert rules[0].actions == ("recover",)

    def test_load_json(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [
            {"name": "j", "when": "l2 > 10"}]}))
        [rule] = load_rules(str(path))
        assert rule.name == "j"

    def test_load_toml(self, tmp_path):
        path = tmp_path / "rules.toml"
        path.write_text(
            '[[rules]]\n'
            'name = "t"\n'
            'when = "entropy(src) drops > 30% and '
            'cardinality spikes > 4x baseline"\n'
            'confirm_epochs = 2\n'
            'actions = ["zoom", "recover"]\n')
        [rule] = load_rules(str(path))
        assert rule.name == "t"
        assert rule.metrics() == {"entropy", "cardinality"}

    def test_default_rules_parse(self):
        rules = default_rules()
        assert rules
        DetectionPipeline(rules)    # constructible with actions wired
