"""Sliding-window universal sketching (§5 / Braverman-Ostrovsky-Roytman).

The paper's discussion section points at zero-one laws for sliding
windows.  This module implements the practical epoch-ring construction:
the window of the last ``window_epochs`` epochs is covered by one
universal sketch per epoch (all sharing a seed), and a query-time merge —
which sketch linearity makes exact — yields a universal sketch for the
whole window.  Advancing the window drops the oldest epoch, giving strict
expiry at epoch granularity (the smooth-histogram constructions refine
this to sub-epoch accuracy at higher complexity; epoch granularity is
what the controller's 5-second polling loop needs).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import ConfigurationError
from repro.core.universal import UniversalSketch


class SlidingWindowUniversalSketch:
    """Universal sketch over the most recent ``window_epochs`` epochs.

    Parameters
    ----------
    window_epochs:
        Number of epochs the window spans.
    levels, rows, width, heap_size, seed:
        Geometry of each per-epoch :class:`UniversalSketch`; the seed is
        shared so the epoch sketches are mergeable.
    """

    def __init__(self, window_epochs: int, levels: int = 16, rows: int = 5,
                 width: int = 1024, heap_size: int = 64,
                 seed: Optional[int] = None) -> None:
        if window_epochs < 1:
            raise ConfigurationError(
                f"window_epochs must be >= 1, got {window_epochs}")
        if seed is None:
            raise ConfigurationError(
                "sliding windows need an explicit seed (epoch sketches "
                "must be mergeable)")
        self.window_epochs = window_epochs
        self._params = dict(levels=levels, rows=rows, width=width,
                            heap_size=heap_size, seed=seed)
        self._epochs: Deque[UniversalSketch] = deque()
        self._current = UniversalSketch(**self._params)

    # ------------------------------------------------------------------ #
    # stream interface
    # ------------------------------------------------------------------ #

    def update(self, key: int, weight: int = 1) -> None:
        self._current.update(key, weight)

    def update_array(self, keys, weights=None) -> None:
        self._current.update_array(keys, weights)

    def advance_epoch(self) -> None:
        """Seal the current epoch and slide the window forward."""
        self._epochs.append(self._current)
        while len(self._epochs) > self.window_epochs:
            self._epochs.popleft()
        self._current = UniversalSketch(**self._params)

    # ------------------------------------------------------------------ #
    # query interface
    # ------------------------------------------------------------------ #

    def window_sketch(self) -> UniversalSketch:
        """Merged universal sketch covering the window + current epoch.

        One n-ary merge, so always an independent snapshot (even with
        an empty epoch ring): callers may keep querying or mutating the
        result while the window keeps ingesting, without either side
        seeing the other.
        """
        return self._current.merge(*self._epochs)

    def epochs_in_window(self) -> int:
        return len(self._epochs)

    def heavy_hitters(self, fraction: float):
        return self.window_sketch().heavy_hitters(fraction)

    def cardinality(self) -> float:
        return self.window_sketch().cardinality()

    def entropy(self, base: float = 2.0) -> float:
        return self.window_sketch().entropy(base=base)

    def g_sum(self, g) -> float:
        return self.window_sketch().g_sum(g)

    def memory_bytes(self) -> int:
        per_epoch = self._current.memory_bytes()
        return per_epoch * (len(self._epochs) + 1)
