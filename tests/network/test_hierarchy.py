"""Tests for the resilient aggregation tree (in-process simulation)."""

import struct
import zlib

import numpy as np
import pytest

from repro.errors import ConfigurationError, IncompatibleSketchError
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.network.faults import SimLink, SimulatedSwitch, zipf_keys
from repro.network.hierarchy import (
    ROOT,
    HierarchicalCoordinator,
    ResiliencePolicy,
    TreePlan,
)
from repro.core import serialization
from repro.core.universal import UniversalSketch
from tests.core.wire_layout import LEVEL0_AT, UNIVERSAL_LEVELS_AT


def factory():
    return UniversalSketch(levels=4, rows=2, width=64, heap_size=8, seed=7)


class Net:
    """A small simulated deployment the tests drive epoch by epoch."""

    def __init__(self, n=20, fanout=4, drop_rate=0.0, policy=None,
                 transfer="delta"):
        self.names = [f"sw{i:03d}" for i in range(n)]
        self.switches = {n_: SimulatedSwitch(n_, factory)
                         for n_ in self.names}
        self.links = {
            n_: SimLink(self.switches[n_], drop_rate=drop_rate,
                        max_attempts=6, seed=i)
            for i, n_ in enumerate(self.names)}
        self.coord = HierarchicalCoordinator(
            self.links, factory, fanout=fanout, policy=policy,
            transfer=transfer)
        self.rng = np.random.default_rng(42)
        self.fed = 0
        self.lost_in_flight = 0

    def feed(self, per_switch=50):
        for name in self.names:
            self.fed += self.switches[name].feed(
                zipf_keys(self.rng, per_switch, flows=128))

    def epoch(self, on_tier=None):
        report = self.coord.run_epoch(on_tier=on_tier)
        self.lost_in_flight += \
            report.results["coverage"]["lost_in_flight_packets"]
        return report

    def conservation_holds(self, packets_at_root):
        lost_kill = sum(s.lost_total for s in self.switches.values())
        pending = sum(s.pending for s in self.switches.values())
        return packets_at_root + lost_kill + pending \
            + self.lost_in_flight == self.fed


class TestTreePlan:
    def test_shape_and_naming(self):
        plan = TreePlan.build([f"s{i}" for i in range(20)], fanout=4)
        assert len(plan.tiers) == 3
        assert [a for a, _ in plan.tiers[0]] == [
            "rack00", "rack01", "rack02", "rack03", "rack04"]
        assert [a for a, _ in plan.tiers[1]] == ["pod00", "pod01"]
        assert plan.tiers[-1][0][0] == ROOT
        assert plan.parent["rack00"] == "pod00"
        assert plan.parent["pod01"] == ROOT
        assert len(plan.leaves_under[ROOT]) == 20
        assert len(plan.leaves_under["rack00"]) == 4

    def test_every_leaf_has_exactly_one_parent(self):
        plan = TreePlan.build([f"s{i}" for i in range(100)], fanout=8)
        for leaf in plan.leaves:
            assert leaf in plan.parent
        covered = [leaf for agg, kids in plan.tiers[0] for leaf in kids]
        assert sorted(covered) == sorted(plan.leaves)

    def test_fanout_wider_than_leaves_is_flat(self):
        plan = TreePlan.build(["a", "b", "c"], fanout=8)
        assert plan.depth == 1
        assert plan.children[ROOT] == ("a", "b", "c")

    def test_deep_tree_tier_names(self):
        plan = TreePlan.build([f"s{i:03d}" for i in range(32)], fanout=2)
        prefixes = [tier[0][0] for tier in plan.tiers[:-1]]
        assert prefixes[0].startswith("rack")
        assert prefixes[1].startswith("pod")
        assert prefixes[2].startswith("zone")
        assert prefixes[3].startswith("t3")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TreePlan.build([], fanout=4)
        with pytest.raises(ConfigurationError):
            TreePlan.build(["a", "a"], fanout=4)
        with pytest.raises(ConfigurationError):
            TreePlan.build(["a", "b"], fanout=1)
        with pytest.raises(ConfigurationError):
            TreePlan.build(["a", ROOT], fanout=2)


class TestResiliencePolicy:
    def test_full_coverage_publishes(self):
        policy = ResiliencePolicy(min_coverage=0.9, quorum=1.0,
                                  fail_open=False)
        assert policy.decide(1.0, 1.0) == ("published", False)

    def test_degraded_above_thresholds(self):
        policy = ResiliencePolicy(min_coverage=0.5, quorum=0.5)
        assert policy.decide(0.8, 0.6) == ("published_degraded", False)

    def test_fail_open_publishes_violations(self):
        policy = ResiliencePolicy(min_coverage=0.9, fail_open=True)
        assert policy.decide(0.2, 1.0) == ("published_degraded", True)

    def test_fail_closed_withholds_violations(self):
        policy = ResiliencePolicy(min_coverage=0.9, fail_open=False)
        assert policy.decide(0.2, 1.0) == ("withheld", True)
        policy = ResiliencePolicy(quorum=0.9, fail_open=False)
        assert policy.decide(0.95, 0.5) == ("withheld", True)

    def test_thresholds_validated(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(min_coverage=1.5)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(quorum=-0.1)


class TestHealthyTree:
    def test_full_coverage_and_packet_exactness(self):
        net = Net()
        net.feed()
        report = net.epoch()
        cov = report.results["coverage"]
        assert cov["coverage"] == 1.0
        assert cov["status"] == "published"
        assert not cov["degraded"]
        assert cov["missing_switches"] == []
        assert report.packets == net.fed
        assert net.conservation_holds(report.packets)

    def test_tree_merge_equals_flat_merge(self):
        # Linearity: aggregating rack-then-pod-then-root must equal the
        # flat all-at-once merge, counter for counter.
        net = Net(n=12, fanout=3)
        flat = Net(n=12, fanout=100)
        keys = [zipf_keys(np.random.default_rng(5), 80, flows=64)
                for _ in range(12)]
        for i, name in enumerate(net.names):
            net.switches[name].feed(keys[i])
            flat.switches[name].feed(keys[i])
        merged_tree = net.epoch()
        merged_flat = flat.epoch()
        assert merged_tree.packets == merged_flat.packets

    def test_apps_run_on_published_epochs(self):
        from repro.controlplane.apps.cardinality import CardinalityApp
        net = Net(n=8, fanout=3)
        net.coord.register(CardinalityApp())
        net.feed()
        report = net.epoch()
        assert report.results["cardinality"]["distinct"] > 0

    def test_recovery_falls_back_to_the_merged_snapshot(self):
        """The tree sees no packets, so a confirmed ``recover`` rule
        names keys from the merged sketch's own heap."""
        from repro.detect import DetectionPipeline, Rule
        net = Net(n=6, fanout=3)
        net.coord.register(DetectionPipeline(
            [Rule(name="volume", when="packets > 100", confirm_epochs=1,
                  actions=("recover",))], recover_fraction=0.05))
        net.feed()
        [event] = net.epoch()["detect"]["events"]
        assert event["to"] == "confirmed"
        assert event["recovered_keys"]
        assert {r["stream"] for r in event["recovered_keys"]} == \
            {"snapshot"}

    @pytest.mark.parametrize("transfer", ["delta", "raw"])
    def test_every_frame_is_full(self, transfer):
        """Either transfer mode ships full frames only: 6 leaf frames
        and 2 rack uplinks per epoch, each decoded as a full frame."""
        with use_registry(MetricsRegistry()) as registry:
            net = Net(n=6, fanout=3, transfer=transfer)
            for _ in range(3):
                net.feed()
                cov = net.epoch().results["coverage"]
                assert cov["frames_full"] == 8
                assert "frames_delta" not in cov
            decoded = registry.get("univmon_codec_frames_decoded_total",
                                   kind="full")
            assert decoded.value == 24


class TestLevelGauges:
    """Published tree epochs export the merged sketch's per-level
    gauges, as a single controller's epochs do."""

    def _gauges(self, registry, levels):
        return [(registry.get("univmon_level_heap_occupancy",
                              level=str(j)),
                 registry.get("univmon_level_packets", level=str(j)))
                for j in range(levels)]

    def test_published_epoch_sets_level_gauges(self):
        from repro.controlplane.apps.cardinality import CardinalityApp
        with use_registry(MetricsRegistry()) as registry:
            net = Net(n=3, fanout=4)
            capture = _Capture()
            net.coord.register(CardinalityApp()).register(capture)
            net.feed()
            report = net.epoch()
            merged = capture.sketch
            assert report.results["coverage"]["status"] == "published"
            gauges = self._gauges(registry, len(merged.levels))
            for j, (occupancy, packets) in enumerate(gauges):
                assert occupancy.value == len(merged.levels[j].topk)
                assert packets.value == merged.levels[j].packets
            assert gauges[0][1].value == report.packets == net.fed

    def test_withheld_epoch_leaves_level_gauges(self):
        with use_registry(MetricsRegistry()) as registry:
            net = Net(n=3, fanout=4, policy=ResiliencePolicy(
                min_coverage=0.99, fail_open=False))
            net.feed()
            net.epoch()
            before = [(occupancy.value, packets.value) for occupancy,
                      packets in self._gauges(registry, 5)]
            assert before[0][1] == net.fed
            net.switches[net.names[0]].kill()
            net.feed()
            report = net.epoch()
            assert report.results["coverage"]["status"] == "withheld"
            after = [(occupancy.value, packets.value) for occupancy,
                     packets in self._gauges(registry, 5)]
            assert after == before


class _Capture:
    """A registered app that keeps the published epoch sketch."""

    name = "capture"

    def __init__(self):
        self.sketch = None

    def on_sketch(self, sketch, epoch_index):
        self.sketch = sketch
        return {}

    def reset(self):
        self.sketch = None


class TestDegradation:
    def test_dead_rack_reported_as_missing_subtree(self):
        net = Net()
        rack0 = net.coord.plan.children["rack00"]
        for name in rack0:
            net.switches[name].kill()
        net.feed()
        net.epoch()  # consecutive-failure threshold
        net.feed()
        cov = net.epoch().results["coverage"]
        assert "rack00" in cov["missing_subtrees"]
        assert set(cov["missing_switches"]) == set(rack0)
        assert cov["coverage"] == pytest.approx(16 / 20)
        assert cov["degraded"]

    def test_aggregator_death_reparents_to_sibling(self):
        net = Net()
        net.coord.kill_aggregator("rack01")
        net.feed()
        cov = net.epoch().results["coverage"]
        # rack01's leaves were adopted by the first live sibling.
        adopted = {cov["reparented"][leaf]
                   for leaf in net.coord.plan.children["rack01"]}
        assert adopted == {"rack00"}
        assert cov["coverage"] == 1.0  # re-parenting loses nothing

    def test_whole_tier_dead_escalates_to_parent(self):
        net = Net()
        for agg, _ in net.coord.plan.tiers[0]:
            net.coord.kill_aggregator(agg)
        net.feed()
        cov = net.epoch().results["coverage"]
        assert cov["coverage"] == 1.0
        assert set(cov["reparented"].values()) <= {"pod00", "pod01", ROOT}

    def test_mid_epoch_kill_loses_collected_data(self):
        net = Net()
        net.feed()

        def chaos(tier, coord):
            if tier == 0:
                coord.kill_aggregator("rack02")

        report = net.epoch(on_tier=chaos)
        cov = report.results["coverage"]
        assert cov["lost_in_flight_packets"] > 0
        assert set(cov["lost_in_flight_switches"]) == set(
            net.coord.plan.children["rack02"])
        assert cov["coverage"] == pytest.approx(16 / 20)
        assert net.conservation_holds(report.packets)

    def test_root_cannot_be_killed(self):
        net = Net()
        with pytest.raises(ConfigurationError):
            net.coord.kill_aggregator(ROOT)

    def test_withheld_epoch_skips_apps(self):
        from repro.controlplane.apps.cardinality import CardinalityApp
        net = Net(policy=ResiliencePolicy(min_coverage=0.99,
                                          fail_open=False))
        net.coord.register(CardinalityApp())
        for name in net.coord.plan.children["rack00"]:
            net.switches[name].kill()
        net.feed()
        net.epoch()
        net.feed()
        report = net.epoch()
        assert report.results["coverage"]["status"] == "withheld"
        assert "cardinality" not in report.results

    def test_frame_declaring_more_than_it_carries_fails_one_leaf(self):
        """A leaf whose frame declares the ceiling geometry in a few
        dozen compressed bytes is one failed poll, not an aborted (or
        memory-exhausting) epoch."""
        from repro.controlplane.apps.cardinality import CardinalityApp
        header = bytearray(serialization.dumps(factory())[:LEVEL0_AT])
        struct.pack_into("<III", header, UNIVERSAL_LEVELS_AT,
                         64, 512, 1 << 24)  # levels, rows, width
        body = zlib.compress(bytes(header))
        frame = struct.pack("<4sBBqqII", b"UMF1", 1, 1, 0, -1, len(body),
                            zlib.crc32(body)) + body
        assert len(frame) <= 64
        net = Net(n=8, fanout=4)
        net.coord.register(CardinalityApp())
        bad = net.names[5]
        net.links[bad].poll = lambda: frame
        net.feed()
        report = net.epoch()
        cov = report.results["coverage"]
        assert cov["status"] == "published_degraded"
        assert cov["missing_switches"] == [bad]
        assert cov["switches_covered"] == 7
        assert cov["health"][bad]["failures"] == 1
        assert cov["health"][bad]["successes"] == 0
        assert report.results["cardinality"]["distinct"] > 0

    def test_all_leaves_failed_yields_empty_epoch(self):
        from repro.controlplane.apps.cardinality import CardinalityApp
        net = Net(n=8, fanout=4)
        net.coord.register(CardinalityApp())
        net.feed()
        for switch in net.switches.values():
            switch.kill()
        report = net.epoch()
        coverage = report.results["coverage"]
        assert coverage["switches_covered"] == 0
        assert coverage["packets_covered"] == 0
        assert coverage["missing_subtrees"] == ["rack00", "rack01"]
        assert "cardinality" not in report.results


class TestRecovery:
    def test_coverage_recovers_within_two_epochs(self):
        net = Net(drop_rate=0.1)
        rack0 = net.coord.plan.children["rack00"]
        net.feed()
        net.epoch()
        for name in rack0:
            net.switches[name].kill()
        for _ in range(3):
            net.feed()
            net.epoch()
        for name in rack0:
            net.switches[name].restart()
        coverages = []
        for _ in range(2):
            net.feed()
            coverages.append(
                net.epoch().results["coverage"]["coverage"])
        assert coverages[-1] == 1.0

    def test_aggregator_restart_returns_children(self):
        net = Net()
        net.coord.kill_aggregator("rack01")
        net.feed()
        net.epoch()
        net.coord.restart_aggregator("rack01")
        net.feed()
        cov = net.epoch().results["coverage"]
        assert cov["reparented"] == {}
        assert cov["coverage"] == 1.0

    def test_reparenting_degrades_codec_to_full_then_recovers(self):
        # While adopted, a leaf reports to a stand-in collector; nothing
        # is lost either way.
        net = Net()
        net.feed()
        net.epoch()
        net.coord.kill_aggregator("rack00")
        total = 0
        for _ in range(3):
            net.feed()
            report = net.epoch()
            total += report.packets
            assert report.results["coverage"]["coverage"] == 1.0
        net.coord.restart_aggregator("rack00")
        net.feed()
        report = net.epoch()
        assert report.results["coverage"]["coverage"] == 1.0
        assert net.conservation_holds(
            net.fed - sum(s.pending for s in net.switches.values()))


class TestDeterminism:
    def test_identical_seeds_identical_reports(self):
        def run():
            net = Net(drop_rate=0.3)
            out = []
            for epoch in range(4):
                net.feed(per_switch=40)
                if epoch == 1:
                    net.coord.kill_aggregator("rack03")
                cov = net.epoch().results["coverage"]
                out.append((cov["coverage"], cov["bytes_wire"],
                            tuple(cov["missing_switches"]),
                            cov["frames_full"]))
            return out
        assert run() == run()


class TestConfigurationErrors:
    def test_needs_links(self):
        with pytest.raises(ConfigurationError):
            HierarchicalCoordinator({}, factory)

    def test_needs_seeded_factory(self):
        unseeded = lambda: UniversalSketch(  # noqa: E731
            levels=3, rows=2, width=32, seed=None)
        sw = SimulatedSwitch("a", factory)
        with pytest.raises(ConfigurationError):
            HierarchicalCoordinator({"a": SimLink(sw)}, unseeded)

    def test_bad_transfer_mode(self):
        sw = SimulatedSwitch("a", factory)
        with pytest.raises(ConfigurationError):
            HierarchicalCoordinator({"a": SimLink(sw)}, factory,
                                    transfer="gzip")

    def test_plan_must_match_links(self):
        plan = TreePlan.build(["a", "b"], fanout=2)
        sw = SimulatedSwitch("a", factory)
        with pytest.raises(ConfigurationError):
            HierarchicalCoordinator({"a": SimLink(sw)}, factory,
                                    plan=plan)

    @pytest.mark.parametrize("odd_factory", [
        lambda: UniversalSketch(levels=4, rows=2, width=64, heap_size=8,
                                seed=8),
        lambda: UniversalSketch(levels=5, rows=2, width=64, heap_size=8,
                                seed=7),
    ], ids=["seed", "geometry"])
    @pytest.mark.parametrize("odd_leaves", [range(8), [5]],
                             ids=["every_leaf", "one_leaf"])
    @pytest.mark.parametrize("fanout", [4, 8], ids=["tree", "flat"])
    def test_leaves_must_match_factory(self, odd_factory, odd_leaves,
                                       fanout):
        """A polled sketch the coordinator's factory cannot merge raises
        instead of publishing — including when every leaf agrees with
        every other leaf but not with the factory."""
        names = [f"sw{i:02d}" for i in range(8)]
        switches = {
            name: SimulatedSwitch(
                name, odd_factory if i in odd_leaves else factory)
            for i, name in enumerate(names)}
        coord = HierarchicalCoordinator(
            {name: SimLink(switch) for name, switch in switches.items()},
            factory, fanout=fanout)
        for switch in switches.values():
            switch.feed(np.arange(40, dtype=np.uint64))
        with pytest.raises(IncompatibleSketchError):
            coord.run_epoch()
