"""Common sketch interface and per-update cost accounting.

``UpdateCost`` is the unit of the repo's Intel-PCM substitute (see
``repro.eval.cost``): each sketch reports how many hash evaluations and
counter touches one update costs, and the cost model converts those to
relative "cycles".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class UpdateCost:
    """Operation counts charged by one sketch update.

    Attributes
    ----------
    hashes:
        Number of hash-function evaluations.
    counter_updates:
        Number of counters read-modified-written.
    memory_words:
        Number of distinct memory words touched (reads + writes); the
        proxy for cache traffic.
    """

    hashes: int = 0
    counter_updates: int = 0
    memory_words: int = 0

    def __add__(self, other: "UpdateCost") -> "UpdateCost":
        return UpdateCost(
            hashes=self.hashes + other.hashes,
            counter_updates=self.counter_updates + other.counter_updates,
            memory_words=self.memory_words + other.memory_words,
        )

    def scaled(self, n: int) -> "UpdateCost":
        """The cost of ``n`` identical updates."""
        return UpdateCost(
            hashes=self.hashes * n,
            counter_updates=self.counter_updates * n,
            memory_words=self.memory_words * n,
        )


def check_batch(keys, weights=None) -> np.ndarray:
    """``keys`` as a 1-D ``uint64`` array, after checking the batch is
    well formed: raises :class:`~repro.errors.ConfigurationError` when
    the keys are not 1-D, ``weights`` is not one weight per key, or a
    float weight is NaN or infinite (no ``int64`` count can hold it; the
    scalar path's ``int(w)`` raises too).  Unweighted and integer
    batches skip the finiteness scan."""
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.ndim != 1:
        raise ConfigurationError(
            f"keys must be a 1-D array, got shape {keys.shape}")
    if weights is None:
        return keys
    weights = np.asarray(weights)
    if weights.shape != keys.shape:
        raise ConfigurationError(
            f"weights must be one per key: got shape {weights.shape} "
            f"for {len(keys)} keys")
    if weights.dtype.kind == "f" and not np.isfinite(weights).all():
        bad = int(np.count_nonzero(~np.isfinite(weights)))
        raise ConfigurationError(
            f"weights must be finite: {bad} NaN/inf value(s) cannot be "
            f"counted as int64 packet weights")
    return keys


class Sketch(abc.ABC):
    """Abstract base for all streaming summaries in this library.

    A sketch consumes ``(key, weight)`` updates where ``key`` is an integer
    (see ``repro.dataplane.keys`` for how flow identifiers are encoded) and
    answers queries from its compact state.
    """

    @abc.abstractmethod
    def update(self, key: int, weight: int = 1) -> None:
        """Fold one stream element into the sketch."""

    @abc.abstractmethod
    def memory_bytes(self) -> int:
        """Size of the data-plane state, in bytes.

        This is the x-axis of every accuracy-vs-memory figure, so it must
        count the counters the algorithm keeps (geometry), not Python
        object overhead.
        """

    @abc.abstractmethod
    def update_cost(self) -> UpdateCost:
        """Operation counts charged by a single :meth:`update` call."""

    def process(self, keys, weights=None) -> None:
        """Convenience: fold an iterable of keys (optionally weighted)."""
        if weights is None:
            for k in keys:
                self.update(k)
        else:
            for k, w in zip(keys, weights):
                self.update(k, w)
