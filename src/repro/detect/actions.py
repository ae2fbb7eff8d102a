"""Detection actions: what a CONFIRMED rule drives.

Detection without actionability is half the loop (Tang et al.'s
invertible-sketch line of work makes this point for key recovery;
StreaMon for mitigation hooks).  Two actions are wired here, both thin
drivers over primitives that already exist in the repo:

``zoom``
    Feed the epoch's packets through a shared
    :class:`~repro.network.zoom.ZoomMonitor`, refining the monitored
    source subspace one ladder step around whatever is hot.  The zoom
    monitor persists across epochs, so consecutive CONFIRMED epochs walk
    the ladder /8 → /16 → /24 → /32 toward the implicated region.

``recover``
    Maintain per-feature :class:`~repro.sketches.reversible.ReversibleSketch`
    pairs (current and previous epoch, same geometry and seed so they
    subtract exactly) over the raw 32-bit src/dst address streams, and on
    CONFIRMED epochs reverse both the *raw* stream (sustained heavies —
    the victim of a DDoS shows up here on the dst feature) and the
    *difference* stream (what changed since the previous epoch — the
    attack delta, robust to heavy-but-benign baseline flows).  Each chunk
    is folded into the open epoch's sketches as it arrives; they are
    linear, so an epoch fed in chunks has the counters of one update over
    the whole epoch.  The reversal threshold auto-raises when the
    preimage enumeration would blow up (``ConfigurationError`` from
    ``recover_heavy_keys``).

When an epoch arrives without packets (the hierarchical coordinator only
has merged sketches), recovery degrades to the sealed universal sketch's
own G-core: for reversible key functions (src/dst) those level-0 keys
*are* addresses, so the event still names concrete keys, labeled
``stream="snapshot"``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.core.universal import UniversalSketch
from repro.dataplane.trace import Trace
from repro.network.zoom import ZoomMonitor
from repro.sketches.reversible import ReversibleSketch


#: How many times recovery doubles its threshold before giving up.
_RAISE_LIMIT = 8


def _recover_with_backoff(sketch: ReversibleSketch, threshold: float,
                          max_keys: int) -> List[Tuple[int, float]]:
    """``recover_heavy_keys`` with auto-raising threshold.

    A busy difference stream can light up more row-0 buckets than the
    preimage enumeration tolerates; doubling the threshold keeps the
    reversal sound (we only lose the *smaller* heavies) instead of
    failing the epoch.
    """
    for _ in range(_RAISE_LIMIT):
        try:
            return sketch.recover_heavy_keys(threshold)[:max_keys]
        except ConfigurationError:
            threshold *= 2.0
    return []


class RecoveryAction:
    """Reversible-sketch maintenance plus raw/difference key recovery.

    Parameters
    ----------
    fraction:
        Recovery threshold as a fraction of the epoch's packet count —
        a key must account for at least this share of the stream (raw)
        or of the churn (difference) to be reported.
    features:
        Which address columns to maintain sketches over.
    max_keys:
        Cap on recovered keys per (feature, stream) pair.
    """

    _COLUMNS = {"src": lambda trace: trace.src,
                "dst": lambda trace: trace.dst}

    def __init__(self, fraction: float = 0.08,
                 features: Tuple[str, ...] = ("src", "dst"),
                 max_keys: int = 16,
                 sketch_factory: Optional[
                     Callable[[], ReversibleSketch]] = None,
                 seed: int = 7) -> None:
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError(
                f"recover fraction must be in (0,1), got {fraction}")
        for feature in features:
            if feature not in self._COLUMNS:
                raise ConfigurationError(
                    f"unknown recovery feature {feature!r} "
                    f"(know: {', '.join(self._COLUMNS)})")
        self.fraction = fraction
        self.features = tuple(features)
        self.max_keys = max_keys
        if sketch_factory is None:
            sketch_factory = lambda: ReversibleSketch(  # noqa: E731
                rows=4, chunk_bits=8, bucket_bits_per_chunk=3, seed=seed)
        self._factory = sketch_factory
        #: The open epoch's sketches; None until a chunk arrives.
        self._open: Optional[Dict[str, ReversibleSketch]] = None
        self._open_packets = 0
        self._current: Dict[str, ReversibleSketch] = {}
        self._previous: Dict[str, ReversibleSketch] = {}
        self._packets = 0
        self._prev_packets = 0

    # -- per-epoch maintenance ------------------------------------------ #

    def observe(self, chunk) -> None:
        """Fold one chunk into the open epoch's sketches (every chunk,
        alert or not)."""
        if self._open is None:
            self._open = {feature: self._factory()
                          for feature in self.features}
        for feature, sketch in self._open.items():
            column = self._COLUMNS[feature](chunk)
            sketch.update_array(column.astype(np.uint64))
        self._open_packets += len(chunk)

    def seal(self) -> bool:
        """Close the open epoch: open becomes current, current becomes
        previous.  False, with nothing rotated, when no chunk arrived."""
        if self._open is None:
            return False
        self._previous, self._prev_packets = self._current, self._packets
        self._current, self._packets = self._open, self._open_packets
        self._open, self._open_packets = None, 0
        return True

    # -- the action ----------------------------------------------------- #

    def recover(self) -> List[Dict[str, object]]:
        """Reverse raw and difference streams for every feature.

        Returns a flat list of ``{"key", "estimate", "feature",
        "stream"}`` dicts, raw stream first, strongest key first.
        """
        found: List[Dict[str, object]] = []
        for feature in self.features:
            current = self._current.get(feature)
            if current is None:
                continue
            threshold = max(2.0, self.fraction * self._packets)
            for key, estimate in _recover_with_backoff(
                    current, threshold, self.max_keys):
                found.append({"key": int(key), "estimate": float(estimate),
                              "feature": feature, "stream": "raw"})
            previous = self._previous.get(feature)
            if previous is None:
                continue
            churn = max(self._packets - self._prev_packets,
                        self._packets // 2, 1)
            diff_threshold = max(2.0, self.fraction * churn)
            for key, estimate in _recover_with_backoff(
                    current.subtract(previous), diff_threshold,
                    self.max_keys):
                found.append({"key": int(key), "estimate": float(estimate),
                              "feature": feature, "stream": "difference"})
        return found

    @staticmethod
    def recover_from_snapshot(sketch, fraction: float,
                              max_keys: int = 16) -> List[Dict[str, object]]:
        """Trace-free fallback: the sealed sketch's own heavy hitters."""
        try:
            heavy = sketch.heavy_hitters(fraction)
        except (AttributeError, TypeError):
            return []
        return [{"key": int(key), "estimate": float(weight),
                 "feature": "monitored", "stream": "snapshot"}
                for key, weight in heavy[:max_keys]]

    def reset(self) -> None:
        self._open = None
        self._open_packets = 0
        self._current = {}
        self._previous = {}
        self._packets = 0
        self._prev_packets = 0


class ZoomAction:
    """Shared :class:`ZoomMonitor` fed on CONFIRMED epochs only.

    The zoom monitor keeps its own refinement state and hold-down
    counters; this wrapper holds the open epoch's chunks until the seal
    (concatenating them only on a CONFIRMED epoch) and rations feeds to
    at most one per epoch regardless of how many rules request zooming.
    The monitor sees each confirmed epoch whole: fed chunk by chunk, its
    heaps would be built from per-chunk offers and could rank, and so
    refine, other keys.
    """

    def __init__(self, zoom: Optional[ZoomMonitor] = None) -> None:
        self.zoom = zoom or ZoomMonitor(
            sketch_factory=lambda: UniversalSketch(
                levels=10, rows=4, width=512, heap_size=32, seed=11))
        self._chunks: List[Trace] = []
        self._fed_epoch: Optional[int] = None

    def observe(self, chunk) -> None:
        """Hold one chunk of the open epoch."""
        self._chunks.append(chunk)

    def seal(self) -> List[Trace]:
        """Hand over the open epoch's chunks and hold none."""
        chunks, self._chunks = self._chunks, []
        return chunks

    def refine(self, chunks: List[Trace],
               epoch_index: int) -> List[Tuple[int, int]]:
        """Feed the epoch's chunks once for this epoch; returns refined
        regions."""
        if chunks and self._fed_epoch != epoch_index:
            trace = chunks[0] if len(chunks) == 1 else Trace.concat(chunks)
            self.zoom.process_epoch(trace)
            self._fed_epoch = epoch_index
        return self.zoom.monitored_regions()

    def reset(self) -> None:
        self.zoom.refined.clear()
        getattr(self.zoom, "_cold", {}).clear()
        self._chunks = []
        self._fed_epoch = None


__all__ = ["RecoveryAction", "ZoomAction"]
