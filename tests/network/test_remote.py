"""Tests for remote collection: the tree over TCP agents (real sockets).

Flat collection is the one-tier :class:`HierarchicalCoordinator`, so
these drive it over :class:`AgentLink`s wrapping resilient
:class:`RemoteSwitchClient`s, the way ``univmon coordinate`` does.
"""

import dataclasses
import random

import pytest

from repro.errors import ConfigurationError, TransportError
from repro.controlplane.apps.cardinality import CardinalityApp
from repro.controlplane.rpc import RemoteSwitchClient, RetryPolicy, SwitchAgent
from repro.network.health import HealthState, HealthTracker
from repro.network.hierarchy import AgentLink, HierarchicalCoordinator
from repro.dataplane.keys import src_ip_key
from repro.dataplane.switch import MonitoredSwitch
from repro.core.universal import UniversalSketch


def factory():
    return UniversalSketch(levels=5, rows=3, width=256, heap_size=16, seed=3)


def make_agent(name="s0", port=0):
    switch = MonitoredSwitch(name)
    switch.attach("univmon", factory, src_ip_key)
    return SwitchAgent(switch, port=port).start()


NO_SLEEP = lambda seconds: None  # noqa: E731
FAST = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


class Remote:
    """A flat tree over one client per agent (closed on exit)."""

    def __init__(self, agents, retry=FAST, health=None,
                 sketch_factory=factory, **kwargs):
        self.clients = {
            name: RemoteSwitchClient(
                *agent.address, timeout=5.0,
                retry=dataclasses.replace(retry, seed=retry.seed + index),
                sleep=NO_SLEEP)
            for index, (name, agent) in enumerate(agents.items())}
        if health is None:
            health = HealthTracker(agents, suspect_after=1, fail_after=1)
        kwargs.setdefault("fanout", len(agents))
        self.coordinator = HierarchicalCoordinator(
            {name: AgentLink(client)
             for name, client in self.clients.items()},
            sketch_factory, health=health, **kwargs)

    def calls(self, key="calls"):
        return sum(client.counters[key] for client in self.clients.values())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for client in self.clients.values():
            client.close()


@pytest.fixture()
def two_agents():
    agents = {"s0": make_agent("s0"), "s1": make_agent("s1")}
    yield agents
    for agent in agents.values():
        agent.stop()


class TestConfiguration:
    def test_needs_agents(self):
        with pytest.raises(ConfigurationError):
            HierarchicalCoordinator({}, factory)

    def test_needs_seeded_factory(self, two_agents):
        with pytest.raises(ConfigurationError):
            Remote(two_agents,
                   sketch_factory=lambda: UniversalSketch(
                       levels=3, rows=3, width=64, seed=None))

    def test_duplicate_app_rejected(self, two_agents):
        with Remote(two_agents) as remote:
            remote.coordinator.register(CardinalityApp())
            with pytest.raises(ConfigurationError):
                remote.coordinator.register(CardinalityApp())


class TestHappyPath:
    def test_full_coverage_epoch(self, two_agents, tiny_trace):
        for agent in two_agents.values():
            agent.switch.process_trace(tiny_trace)
        with Remote(two_agents) as remote:
            remote.coordinator.register(CardinalityApp())
            report = remote.coordinator.run_epoch()
        coverage = report["coverage"]
        assert coverage["topology"] == "2 leaves, fanout 2, tiers 1"
        assert coverage["switches_covered"] == 2
        assert coverage["lost"] == [] and coverage["failed"] == []
        assert coverage["packets_covered"] == 2 * len(tiny_trace)
        assert report.packets == 2 * len(tiny_trace)
        assert coverage["retries"] == 0
        assert coverage["transport_failures"] == 0
        assert report["cardinality"]["distinct"] > 0

    def test_epoch_indices_autoincrement(self, two_agents):
        with Remote(two_agents) as remote:
            reports = remote.coordinator.run_epochs(3)
        assert [r.epoch_index for r in reports] == [0, 1, 2]

    def test_poll_resets_between_epochs(self, two_agents, tiny_trace):
        with Remote(two_agents) as remote:
            two_agents["s0"].switch.process_trace(tiny_trace)
            first = remote.coordinator.run_epoch()
            second = remote.coordinator.run_epoch()
        assert first["coverage"]["packets_covered"] == len(tiny_trace)
        assert second["coverage"]["packets_covered"] == 0


class TestDegradation:
    def test_dead_agent_auto_marked_failed(self, two_agents, tiny_trace):
        two_agents["s0"].switch.process_trace(tiny_trace)
        with Remote(two_agents) as remote:
            remote.coordinator.register(CardinalityApp())
            two_agents["s1"].stop()
            report = remote.coordinator.run_epoch()
        coverage = report["coverage"]
        assert coverage["lost"] == ["s1"]
        assert coverage["failed"] == ["s1"]
        assert coverage["missing_switches"] == ["s1"]
        assert coverage["switches_covered"] == 1
        assert coverage["packets_covered"] == len(tiny_trace)
        # Retries were burned on the dead switch and reported.
        assert coverage["retries"] == FAST.max_attempts - 1
        assert coverage["transport_failures"] == 1
        # Apps still run on the surviving coverage.
        assert report["cardinality"]["distinct"] > 0

    def test_failed_switch_skipped_not_retried(self, two_agents):
        with Remote(two_agents,
                    health=HealthTracker(two_agents, fail_after=1,
                                         probe_every=3)) as remote:
            two_agents["s1"].stop()
            remote.coordinator.run_epoch()  # marks s1 FAILED
            before = remote.calls()
            report = remote.coordinator.run_epoch()  # probe not due
            after = remote.calls()
        assert report["coverage"]["switches_covered"] == 1
        assert after - before == 1  # only s0 was contacted at all

    def test_all_agents_dead_yields_empty_epoch(self, two_agents):
        with Remote(two_agents) as remote:
            remote.coordinator.register(CardinalityApp())
            for agent in two_agents.values():
                agent.stop()
            report = remote.coordinator.run_epoch()
        assert report["coverage"]["switches_covered"] == 0
        assert report["coverage"]["packets_covered"] == 0
        assert "cardinality" not in report.results


class TestRecovery:
    def test_restarted_agent_is_probed_back(self, two_agents, tiny_trace):
        with Remote(two_agents) as remote:
            host, port = two_agents["s1"].address
            two_agents["s1"].stop()
            report = remote.coordinator.run_epoch()
            assert report["coverage"]["failed"] == ["s1"]

            two_agents["s1"] = make_agent("s1", port=port)
            two_agents["s1"].switch.process_trace(tiny_trace)
            report = remote.coordinator.run_epoch()
        coverage = report["coverage"]
        assert coverage["recovered"] == ["s1"]
        assert coverage["failed"] == []
        assert coverage["switches_covered"] == 2
        assert coverage["packets_covered"] == len(tiny_trace)
        assert coverage["health"]["s1"]["recoveries"] == 1

    def test_probe_is_single_shot(self, two_agents):
        """A still-dead FAILED switch costs one connect, not a retry storm."""
        with Remote(two_agents) as remote:
            two_agents["s1"].stop()
            remote.coordinator.run_epoch()
            retries_before = remote.calls("retries")
            report = remote.coordinator.run_epoch()  # ping probe fails fast
            retries_after = remote.calls("retries")
        assert retries_after == retries_before
        assert report["coverage"]["retries"] == 0
        assert report["coverage"]["transport_failures"] == 1


class TestDeterministicBackoff:
    def test_retry_delays_follow_seeded_policy(self):
        """The slept delays are exactly the policy's seeded schedule."""
        policy = RetryPolicy(max_attempts=4, base_delay=0.05, multiplier=2.0,
                             max_delay=10.0, jitter=0.25, seed=42)
        slept = []
        client = RemoteSwitchClient("127.0.0.1", 1, retry=policy,
                                    sleep=slept.append, timeout=0.2)
        with pytest.raises(TransportError):
            client._call("PING")

        rng = random.Random(42)
        expected = [policy.backoff(i, rng) for i in range(3)]
        assert slept == expected
        assert client.counters["retries"] == 3
        assert client.counters["failures"] == 1

    def test_two_clients_same_seed_same_schedule(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, seed=7)
        schedules = []
        for _ in range(2):
            slept = []
            client = RemoteSwitchClient("127.0.0.1", 1, retry=policy,
                                        sleep=slept.append, timeout=0.2)
            with pytest.raises(TransportError):
                client.ping()
            schedules.append(slept)
        assert schedules[0] == schedules[1]


class TestDeltaTransfer:
    def test_transfer_mode_validated(self, two_agents):
        with pytest.raises(ConfigurationError):
            Remote(two_agents, transfer="carrier-pigeon")


class TestHealthStates:
    def test_suspect_before_failed(self, two_agents):
        tracker = HealthTracker(two_agents, suspect_after=1, fail_after=2)
        with Remote(two_agents, health=tracker) as remote:
            two_agents["s1"].stop()
            remote.coordinator.run_epoch()
            assert tracker.state("s1") is HealthState.SUSPECT
            remote.coordinator.run_epoch()
            assert tracker.state("s1") is HealthState.FAILED
