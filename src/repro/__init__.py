"""UnivMon: a "RISC" approach to software-defined monitoring.

Reproduction of Liu, Vorsanger, Braverman & Sekar, *Enabling a "RISC"
Approach for Software-Defined Monitoring using Universal Streaming*
(HotNets 2015).

One generic data-plane primitive — the **universal sketch** — supports a
broad spectrum of monitoring tasks through offline estimation functions:

>>> from repro import UniversalSketch
>>> sketch = UniversalSketch(levels=8, rows=5, width=1024, seed=1)
>>> for key in [1, 1, 1, 2, 3]:
...     sketch.update(key)
>>> sketch.heavy_hitters(0.5)       # G-core, g(x) = x
[(1, 3.0)]
>>> round(sketch.cardinality())     # G-sum, g(x) = x**0
3

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro._version import __version__
from repro.errors import (
    ConfigurationError,
    IncompatibleSketchError,
    NotSketchableError,
    ReproError,
    TopologyError,
    TraceFormatError,
)
from repro.core import (
    GFunction,
    SlidingWindowUniversalSketch,
    UniversalSketch,
    estimate_cardinality,
    estimate_entropy,
    estimate_gsum,
    g_core,
    is_stream_polylog,
)
from repro.controlplane import (
    CardinalityApp,
    ChangeDetectionApp,
    Controller,
    DDoSApp,
    EntropyApp,
    HeavyHitterApp,
    MomentsApp,
    MultidimensionalMonitor,
)
from repro.dataplane import (
    FiveTuple,
    MonitoredSwitch,
    Packet,
    SyntheticTraceConfig,
    Trace,
    generate_trace,
)
from repro.network import NetworkTopology, ZoomMonitor

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "IncompatibleSketchError",
    "NotSketchableError",
    "TraceFormatError",
    "TopologyError",
    # core
    "UniversalSketch",
    "SlidingWindowUniversalSketch",
    "GFunction",
    "is_stream_polylog",
    "estimate_gsum",
    "estimate_cardinality",
    "estimate_entropy",
    "g_core",
    # control plane
    "Controller",
    "HeavyHitterApp",
    "DDoSApp",
    "ChangeDetectionApp",
    "EntropyApp",
    "CardinalityApp",
    "MomentsApp",
    "MultidimensionalMonitor",
    # data plane
    "Trace",
    "SyntheticTraceConfig",
    "generate_trace",
    "Packet",
    "FiveTuple",
    "MonitoredSwitch",
    # network
    "NetworkTopology",
    "ZoomMonitor",
]
