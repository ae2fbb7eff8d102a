"""The traffic substrate: packets, flow keys, traces, and switches.

This package is the stand-in for the paper's measurement environment —
the CAIDA backbone trace and the router the sketches run on:

- :mod:`~repro.dataplane.packet` — 5-tuples and packets.
- :mod:`~repro.dataplane.keys` — flow-key extraction (the "feature" a
  metric is computed over; the paper's evaluation uses source IP).
- :mod:`~repro.dataplane.trace` — column-oriented traces, epoch slicing,
  and the synthetic CAIDA-like workload generator (Zipf flow sizes,
  injectable DDoS and heavy-change events).
- :mod:`~repro.dataplane.csvtrace` / :mod:`~repro.dataplane.pcap` —
  on-disk formats (CSV and libpcap).
- :mod:`~repro.dataplane.switch` — the monitored switch: programs
  (sketch + key function) attached to a packet stream, with memory and
  op-cost accounting.
- :mod:`~repro.dataplane.scenarios` — workload scenario library:
  empirical flow-size CDF mixes (websearch / data-mining) and seeded
  adversarial scenarios (DDoS ramp, flash crowd, port scan, heavy-key
  churn, key-space shift) with exact per-epoch ground truth.
"""

from repro.dataplane.keys import (
    KEY_FUNCTIONS,
    KeyFunction,
    dst_ip_key,
    five_tuple_key,
    src_dst_key,
    src_ip_key,
    src_prefix_key,
)
from repro.dataplane.netflow import SampledFlowTable
from repro.dataplane.packet import FiveTuple, Packet, format_ipv4, parse_ipv4
from repro.dataplane.scenarios import (
    DATAMINING_CDF,
    WEBSEARCH_CDF,
    EpochTruth,
    FlowSizeCDF,
    SCENARIOS,
    Scenario,
    make_scenario,
    scenario_names,
)
from repro.dataplane.replay import LoopingChunkSource, TraceReplayer
from repro.dataplane.switch import MonitoredSwitch, SwitchProgram
from repro.dataplane.trace import (
    ChangeEvent,
    DDoSEvent,
    SyntheticTraceConfig,
    Trace,
    generate_trace,
)

__all__ = [
    "FiveTuple",
    "Packet",
    "parse_ipv4",
    "format_ipv4",
    "KeyFunction",
    "KEY_FUNCTIONS",
    "src_ip_key",
    "dst_ip_key",
    "src_dst_key",
    "five_tuple_key",
    "src_prefix_key",
    "SampledFlowTable",
    "TraceReplayer",
    "LoopingChunkSource",
    "Trace",
    "SyntheticTraceConfig",
    "DDoSEvent",
    "ChangeEvent",
    "generate_trace",
    "FlowSizeCDF",
    "WEBSEARCH_CDF",
    "DATAMINING_CDF",
    "EpochTruth",
    "Scenario",
    "SCENARIOS",
    "make_scenario",
    "scenario_names",
    "MonitoredSwitch",
    "SwitchProgram",
]
