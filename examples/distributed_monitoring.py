#!/usr/bin/env python3
"""Network-wide monitoring across a star of switches (§5 "Distributed
monitoring").

Every switch of a ``NetworkTopology.star(4)`` (one core, four edges)
sketches the traffic entering through it (source-prefix ingress
assignment), so each packet is sketched exactly once.  A flat
``HierarchicalCoordinator`` (fanout >= the switch count: every switch
reports straight to the root) polls the equal-seed sketches, merges them
— exact, by linearity — and runs the registered apps on the
network-wide sketch, answering queries no single switch could.

Run:  python examples/distributed_monitoring.py
"""

from repro import (
    CardinalityApp,
    EntropyApp,
    HeavyHitterApp,
    NetworkTopology,
    SyntheticTraceConfig,
    UniversalSketch,
    generate_trace,
)
from repro.dataplane.keys import src_ip_key
from repro.dataplane.packet import format_ipv4
from repro.eval.groundtruth import GroundTruth
from repro.network import HierarchicalCoordinator, SimLink, SimulatedSwitch


def main() -> None:
    trace = generate_trace(SyntheticTraceConfig(
        packets=60_000, flows=8_000, zipf_skew=1.1, duration=5.0, seed=17))

    def factory():
        return UniversalSketch(levels=9, rows=5, width=2048, heap_size=64,
                               seed=23)

    topology = NetworkTopology.star(leaves=4)
    switches = {name: SimulatedSwitch(name, factory)
                for name in topology.switches}
    coordinator = HierarchicalCoordinator(
        {name: SimLink(switch) for name, switch in switches.items()},
        factory, fanout=len(switches))
    coordinator.register(HeavyHitterApp(alpha=0.005)) \
               .register(CardinalityApp()).register(EntropyApp())

    for name, share in topology.ingress_assignment(trace, seed=7).items():
        switches[name].feed(share.key_array(src_ip_key))

    print("per-switch load (packets sketched at ingress):")
    for name, switch in sorted(switches.items()):
        print(f"  {name:6s} {switch.fed_total:7d}")

    report = coordinator.run_epoch()
    truth = GroundTruth(trace, src_ip_key)
    print("\nnetwork-wide view from merged sketches:")
    print(f"  total packets     : {report.packets} (true {truth.total})")
    print(f"  distinct sources  : {report['cardinality']['distinct']:.0f} "
          f"(true {truth.distinct})")
    print(f"  source entropy    : {report['entropy']['entropy']:.3f} "
          f"(true {truth.entropy():.3f}) bits")

    print("\nnetwork-wide heavy hitters (> 0.5%):")
    true_keys = truth.heavy_hitter_keys(0.005)
    for key, estimate in report["heavy_hitters"]["hitters"]:
        flag = "ok" if key in true_keys else "??"
        print(f"  {format_ipv4(key):15s} est {estimate:8.0f} [{flag}]")


if __name__ == "__main__":
    main()
