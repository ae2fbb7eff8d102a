"""Seeded inputs and their exact truth.

Every input is a pure function of ``(seed, workload, index)``: the same
seed gives bit-identical inputs, another seed gives other ones.

Key *identities* come from a fixed universe per workload, not from the
seed; the seed decides which keys each packet carries, in what order and
how often.  Accuracy then compares like with like across seeds (the same
keys meet the same sampling hashes), so its spread measures the traffic,
not which random addresses happened to be drawn.

Nothing here imports ``repro``: the program only sees what the
workloads wrap these arrays in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

_UNIVERSE_SEED = 0x554D  # fixed: key identities do not depend on --seed


def _zipf_cdf(n: int, skew: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -skew
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def universe(size: int, tag: int) -> np.ndarray:
    """``size`` distinct source addresses (uint32), fixed per ``tag``."""
    rng = np.random.default_rng([_UNIVERSE_SEED, tag])
    out = np.unique(rng.integers(0x0A000000, 0xDF000000, size=2 * size,
                                 dtype=np.uint32))
    rng.shuffle(out)
    return out[:size]


def _draw(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    ranks = np.searchsorted(cdf, rng.random(n), side="right")
    return np.minimum(ranks, len(cdf) - 1)


@dataclass(frozen=True)
class EpochTruth:
    """Exact per-epoch facts the sketch estimates are scored against."""

    distinct: int
    entropy_bits: float
    heavy: frozenset            # keys with count >= alpha * packets
    keys: np.ndarray            # sorted distinct keys (uint64)

    @classmethod
    def of(cls, src: np.ndarray, alpha: float) -> "EpochTruth":
        keys, counts = np.unique(src.astype(np.uint64), return_counts=True)
        n = int(counts.sum())
        p = counts / n
        heavy = frozenset(keys[counts >= alpha * n].tolist())
        return cls(distinct=len(keys),
                   entropy_bits=float(-(p * np.log2(p)).sum()),
                   heavy=heavy, keys=keys)

    def f0_rel_err(self, estimate: float) -> float:
        return abs(estimate - self.distinct) / self.distinct

    def entropy_rel_err(self, estimate: float) -> float:
        return abs(estimate - self.entropy_bits) / self.entropy_bits

    def hh_f1(self, reported) -> float:
        reported = set(int(k) for k in reported)
        if not reported and not self.heavy:
            return 1.0
        hits = len(reported & self.heavy)
        return 2.0 * hits / (len(reported) + len(self.heavy))

    def fed(self, key: int) -> bool:
        i = int(np.searchsorted(self.keys, np.uint64(key)))
        return i < len(self.keys) and int(self.keys[i]) == int(key)


class ZipfSource:
    """Packets over a fixed key universe with Zipf popularity.

    ``epoch(i)`` returns the source-address column of epoch ``i``; epochs
    are cut by packet count, so every epoch of every run holds exactly
    ``packets`` packets.  Negative indices are warm-up epochs.
    """

    def __init__(self, seed: int, tag: int, keys: int, skew: float,
                 packets: int) -> None:
        self.seed = seed
        self.tag = tag
        self.packets = packets
        self.keys = universe(keys, tag)
        self.cdf = _zipf_cdf(keys, skew)

    def epoch(self, index: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, self.tag, index + (1 << 20)])
        return self.keys[_draw(rng, self.cdf, self.packets)]


class FixedMixSource:
    """The same traffic mix every epoch, in a seeded order.

    Each epoch carries one multiset, the Zipf expectation over the
    universe rounded by largest remainder; the seed decides the packet
    order (and so which leaf or chunk each packet lands in).  Every epoch
    then has the same truth, so accuracy cannot move with which packets a
    draw happened to produce, or with where a wall-clock epoch boundary
    fell.
    """

    def __init__(self, seed: int, tag: int, keys: int, skew: float,
                 packets: int) -> None:
        self.seed = seed
        self.tag = tag
        weights = np.arange(1, keys + 1, dtype=np.float64) ** -skew
        share = packets * weights / weights.sum()
        counts = np.floor(share).astype(np.int64)
        short = packets - int(counts.sum())
        counts[np.argsort(counts - share, kind="stable")[:short]] += 1
        self.multiset = np.repeat(universe(keys, tag), counts)

    def epoch(self, index: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, self.tag, index + (1 << 20)])
        return rng.permutation(self.multiset)


def query_schedule(seed: int, count: int, dashboard_share: float,
                   fractions: Tuple[float, ...], moments: Tuple[float, ...],
                   max_back: int) -> List[dict]:
    """The client's request mix: dashboard queries (latest epoch, one
    fixed statistic set) and ad-hoc ones (an older ring epoch, a varied
    ``hh:`` fraction and ``moment:`` order)."""
    rng = np.random.default_rng([seed, 99])
    plan = []
    for _ in range(count):
        if rng.random() < dashboard_share:
            plan.append({"kind": "dashboard"})
        else:
            plan.append({
                "kind": "adhoc",
                "back": int(rng.integers(1, max_back + 1)),
                "hh": float(fractions[int(rng.integers(len(fractions)))]),
                "moment": float(moments[int(rng.integers(len(moments)))]),
            })
    return plan
