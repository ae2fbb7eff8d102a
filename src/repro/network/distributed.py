"""Distributed universal sketching (§5 "Distributed monitoring").

Each switch runs the *same-seed* universal sketch over the traffic it
ingests; the controller merges the per-switch sketches — exact, thanks to
linearity — into one network-wide sketch and runs the usual estimation
apps on it.  Because every packet is sketched only at its ingress switch,
nothing is double counted.

Load balancing: with ``partition_responsibility=True`` the flow key
space is hash-partitioned so each switch only sketches its share even for
traffic it carries for others — the "some switches may get overloaded"
remedy the paper sketches (cf. cSamp).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.dataplane.keys import KeyFunction, src_ip_key
from repro.dataplane.trace import Trace
from repro.hashing.tabulation import TabulationHash
from repro.network.topology import NetworkTopology
from repro.core.universal import UniversalSketch


class DistributedMonitor:
    """Universal sketches on every switch + controller-side merging."""

    def __init__(self, topology: NetworkTopology,
                 sketch_factory: Optional[Callable[[], UniversalSketch]] = None,
                 key_function: KeyFunction = src_ip_key,
                 partition_responsibility: bool = False,
                 seed: int = 7) -> None:
        if sketch_factory is None:
            sketch_factory = lambda: UniversalSketch(  # noqa: E731
                levels=12, rows=5, width=2048, heap_size=64, seed=1)
        self.topology = topology
        self.key_function = key_function
        self.partition_responsibility = partition_responsibility
        self.seed = seed
        self.sketches: Dict[str, UniversalSketch] = {
            name: sketch_factory() for name in topology.switches
        }
        if not self.sketches:
            raise ConfigurationError("topology has no switches to monitor")
        self._partition_hash = TabulationHash(seed=seed)
        probe = sketch_factory()
        if probe.seed is None:
            raise ConfigurationError(
                "distributed monitoring needs a seeded sketch factory "
                "(per-switch sketches must be mergeable)")

    # ------------------------------------------------------------------ #
    # data plane
    # ------------------------------------------------------------------ #

    def process_trace(self, trace: Trace) -> None:
        """Ingress-assign the trace and sketch each share at its switch."""
        shares = self.topology.ingress_assignment(trace, seed=self.seed)
        for switch, share in shares.items():
            self.process_at(switch, share)

    def process_at(self, switch: str, trace: Trace) -> None:
        """Sketch a trace slice at one switch."""
        if switch not in self.sketches:
            raise ConfigurationError(f"unknown switch {switch!r}")
        keys = trace.key_array(self.key_function)
        if self.partition_responsibility and len(keys):
            names = self.topology.switches
            owner = (self._partition_hash.hash_array(keys)
                     % np.uint64(len(names))).astype(np.int64)
            keys = keys[owner == names.index(switch)]
        if len(keys):
            self.sketches[switch].update_array(keys)

    # ------------------------------------------------------------------ #
    # control plane
    # ------------------------------------------------------------------ #

    def network_sketch(self) -> UniversalSketch:
        """The merged, network-wide universal sketch: one n-ary merge,
        so always an independent snapshot (a one-switch topology gets a
        copy, not an alias of the live per-switch sketch)."""
        first, *rest = (self.sketches[name]
                        for name in self.topology.switches)
        return first.merge(*rest)

    def heavy_hitters(self, fraction: float):
        return self.network_sketch().heavy_hitters(fraction)

    def cardinality(self) -> float:
        return self.network_sketch().cardinality()

    def entropy(self, base: float = 2.0) -> float:
        return self.network_sketch().entropy(base=base)

    def load_per_switch(self) -> Dict[str, int]:
        """Packets sketched at each switch (load-balance diagnostics)."""
        return {name: sketch.packets
                for name, sketch in self.sketches.items()}

    def memory_bytes(self) -> int:
        return sum(s.memory_bytes() for s in self.sketches.values())
