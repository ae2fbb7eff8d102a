"""Network-wide monitoring: topology, distributed sketching, adaptive zoom.

Implements the §5 research directions that have concrete constructions:

- :mod:`~repro.network.topology` — switches, links, shortest-path routing
  (networkx under the hood), and ingress assignment of trace packets.
- :mod:`~repro.network.zoom` — dynamic granularity adjustment: monitor at
  prefix level and refine the heavy prefixes each epoch.
- :mod:`~repro.network.health` — failure detection: consecutive-failure
  thresholds, FAILED-switch recovery probes, epoch-driven (deterministic).
- :mod:`~repro.network.faults` — a seeded chaos TCP proxy for testing the
  poll protocol under drops, truncation, corruption, and delay, plus the
  in-process switch/link simulators the scale suites run on.
- :mod:`~repro.network.codec` — compressed full-sketch frames with
  CRC-protected framing and reject-never-corrupt decoding.
- :mod:`~repro.network.hierarchy` — the network-wide epoch loop: each
  switch's equal-seed sketch merged up an aggregation tree (exact, by
  linearity; flat collection is its one-tier case) over simulated or
  TCP switch links, with retries, re-parenting around dead
  aggregators, coverage accounting, and resilience policies.
"""

from repro.network.topology import NetworkTopology
from repro.network.health import HealthState, HealthTracker
from repro.network.faults import FaultPlan, FaultyProxy, SimLink, \
    SimulatedSwitch, zipf_keys
from repro.network.codec import DeltaDecoder, DeltaEncoder
from repro.network.hierarchy import AgentLink, HierarchicalCoordinator, \
    ResiliencePolicy, TreePlan
from repro.network.zoom import ZoomMonitor

__all__ = ["NetworkTopology", "HealthState",
           "HealthTracker", "FaultPlan", "FaultyProxy", "SimLink",
           "SimulatedSwitch", "zipf_keys", "DeltaDecoder", "DeltaEncoder",
           "AgentLink", "HierarchicalCoordinator", "ResiliencePolicy",
           "TreePlan", "ZoomMonitor"]
