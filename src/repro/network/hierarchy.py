"""Resilient hierarchical collection: an aggregation tree over switches.

The paper's controller collects one universal sketch per switch and
composes them by linearity; a flat fan-in works for a handful of agents
but not for the "hundreds of switches" the RISC vision assumes — the
root would decode and merge every leaf itself, and one slow or dead
rack stalls the epoch.  :class:`HierarchicalCoordinator` arranges the
switches into configurable fan-in tiers (rack → pod → … → root), each
tier merging its children's sketches *before* shipping one combined
frame upward, so the root merges ``fanout`` subtree sketches instead of
``n`` leaf sketches.  A fanout of at least ``n`` is the flat fan-in:
one tier, every leaf under the root.  Linearity (§5) is what makes
this sound: merging per-rack then per-pod is exactly the network-wide
sum.

Resilience is the point, not an afterthought:

- **per-leaf health** — the :class:`~repro.network.health` state
  machine, with probe backoff;
- **re-parenting** — when an intermediate aggregator is down, its
  children are adopted by the first live sibling (or, with the whole
  tier down, escalate toward the root, which is the coordinator process
  itself and never "fails" separately);
- **explicit coverage accounting** — every epoch reports the fraction
  of switches its merge represents, which subtrees are missing, and
  whether data died *in flight* (collected by an aggregator that was
  then killed before shipping);
- **a resilience policy** — ``min_coverage`` / ``quorum`` /
  ``fail_open`` decide whether a degraded epoch is published,
  published-degraded, or withheld, instead of exact-or-nothing.

Transfers use :mod:`repro.network.codec` end to end: every leaf ships
its sealed epoch sketch as one compressed full frame, and each
aggregator's uplink does the same one tier up.  No hop keeps codec
state, so re-parenting needs no codec handling: a stand-in collector
decodes an adopted child's frame like any other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import CodecError, ConfigurationError, TransportError
from repro.obs import observe_sketch
from repro.obs.metrics import get_registry
from repro.controlplane.controller import AppHost, EpochReport
from repro.network.codec import DeltaDecoder, DeltaEncoder
from repro.network.health import HealthTracker
from repro.core.universal import UniversalSketch

#: The root aggregator: the coordinator process itself.  It has no
#: uplink and cannot be killed independently of the epoch loop.
ROOT = "root"

#: Most decoded sketches a collector's pending run holds before it is
#: merged.  Without a cap a flat fan-in would hold one decoded sketch
#: per leaf until the end of the tier.
MAX_RUN = 32

#: Tier naming, bottom-up; deeper trees fall back to ``t<k>``.
_TIER_NAMES = ("rack", "pod", "zone")


def _tier_prefix(index: int) -> str:
    if index < len(_TIER_NAMES):
        return _TIER_NAMES[index]
    return f"t{index}"


@dataclass(frozen=True)
class TreePlan:
    """The static shape of an aggregation tree (who reports to whom).

    Built bottom-up from the sorted leaf names: leaves are grouped
    ``fanout`` at a time under rack aggregators, racks under pods, and
    so on until one tier fits under the root.  The plan is geometry
    only — liveness and re-parenting are the coordinator's job.
    """

    leaves: Tuple[str, ...]
    fanout: int
    #: Bottom-up tiers; each entry is ``(aggregator, children)`` where
    #: tier 0's children are leaves and the last tier is ``[(ROOT, …)]``.
    tiers: Tuple[Tuple[Tuple[str, Tuple[str, ...]], ...], ...]
    parent: Mapping[str, str]
    children: Mapping[str, Tuple[str, ...]]
    leaves_under: Mapping[str, Tuple[str, ...]]

    @classmethod
    def build(cls, leaves: Sequence[str], fanout: int) -> "TreePlan":
        names = sorted(leaves)
        if not names:
            raise ConfigurationError("a tree needs at least one leaf")
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate leaf names")
        if fanout < 2:
            raise ConfigurationError(f"fanout must be >= 2, got {fanout}")
        if ROOT in names:
            raise ConfigurationError(f"{ROOT!r} is reserved")

        tiers: List[Tuple[Tuple[str, Tuple[str, ...]], ...]] = []
        current: List[str] = list(names)
        tier_index = 0
        while len(current) > fanout:
            prefix = _tier_prefix(tier_index)
            groups = tuple(
                (f"{prefix}{i:02d}",
                 tuple(current[i * fanout:(i + 1) * fanout]))
                for i in range((len(current) + fanout - 1) // fanout))
            tiers.append(groups)
            current = [name for name, _ in groups]
            tier_index += 1
        tiers.append(((ROOT, tuple(current)),))

        parent: Dict[str, str] = {}
        children: Dict[str, Tuple[str, ...]] = {}
        for tier in tiers:
            for agg, kids in tier:
                children[agg] = kids
                for kid in kids:
                    parent[kid] = agg

        leaves_under: Dict[str, Tuple[str, ...]] = {}

        def _collect(node: str) -> Tuple[str, ...]:
            if node not in children:
                return (node,)
            found: List[str] = []
            for kid in children[node]:
                found.extend(_collect(kid))
            leaves_under[node] = tuple(found)
            return leaves_under[node]

        _collect(ROOT)
        return cls(leaves=tuple(names), fanout=fanout, tiers=tuple(tiers),
                   parent=parent, children=children,
                   leaves_under=leaves_under)

    @property
    def depth(self) -> int:
        """Number of aggregation tiers, root included."""
        return len(self.tiers)

    def describe(self) -> str:
        sizes = " -> ".join(str(len(tier)) for tier in self.tiers)
        return (f"{len(self.leaves)} leaves, fanout {self.fanout}, "
                f"tiers {sizes}")


@dataclass(frozen=True)
class ResiliencePolicy:
    """When is a degraded epoch still worth publishing?

    ``min_coverage`` is the fraction of switches that must be
    represented; ``quorum`` is the fraction of the root's direct child
    subtrees that must contribute at least one switch (a whole missing
    pod is worse than the same switches missing uniformly — locality of
    loss biases network-wide views).  An epoch below either threshold is
    *policy-violating*: with ``fail_open`` it is still published (marked
    degraded), with ``fail_closed`` it is withheld — apps see no data
    rather than silently biased data.
    """

    min_coverage: float = 0.0
    quorum: float = 0.0
    fail_open: bool = True

    def __post_init__(self) -> None:
        for name in ("min_coverage", "quorum"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}")

    def decide(self, coverage: float,
               subtree_quorum: float) -> Tuple[str, bool]:
        """Return ``(status, policy_violated)`` for one epoch."""
        if coverage >= 1.0:
            return "published", False
        if coverage >= self.min_coverage and subtree_quorum >= self.quorum:
            return "published_degraded", False
        if self.fail_open:
            return "published_degraded", True
        return "withheld", True


class HierarchicalCoordinator(AppHost):
    """Epoch loop over an aggregation tree of switch links.

    The one network-wide epoch loop: flat collection is the one-tier
    tree (``fanout`` >= the leaf count), so every leaf reports straight
    to the root.

    Parameters
    ----------
    links:
        ``{leaf_name: link}`` where a link has ``poll() -> frame
        bytes`` and ``ping()``, both raising
        :class:`~repro.errors.TransportError` on failure, and a
        ``counters`` mapping with cumulative ``retries`` and
        ``failures`` —
        :class:`~repro.network.faults.SimLink` in the chaos suites,
        :class:`AgentLink` over real TCP agents.
    sketch_factory:
        Produces the empty sketch each collector's merge starts from;
        every polled sketch must match its geometry and seed, or the
        epoch raises :class:`~repro.errors.IncompatibleSketchError`.
    fanout:
        Fan-in per aggregator; a fanout >= the leaf count degenerates to
        the flat topology (one root, no intermediate tiers).
    plan:
        Explicit :class:`TreePlan` overriding ``fanout``.
    policy:
        :class:`ResiliencePolicy`; default publishes everything.
    health:
        Leaf failure detection; defaults to ``suspect_after=1,
        fail_after=2``.
    transfer:
        ``"delta"`` (default) or ``"raw"``.  Validated but ignored:
        every hop ships compressed full frames either way.
    """

    def __init__(self, links: Mapping[str, object],
                 sketch_factory: Callable[[], UniversalSketch],
                 fanout: int = 8,
                 plan: Optional[TreePlan] = None,
                 policy: Optional[ResiliencePolicy] = None,
                 health: Optional[HealthTracker] = None,
                 transfer: str = "delta") -> None:
        super().__init__()
        if not links:
            raise ConfigurationError("no links to coordinate")
        if transfer not in ("delta", "raw"):
            raise ConfigurationError(
                f"transfer must be 'delta' or 'raw', got {transfer!r}")
        self._empty = sketch_factory()
        if self._empty.seed is None:
            raise ConfigurationError(
                "hierarchical coordination needs a seeded sketch factory "
                "(polled sketches must be mergeable)")
        self.links = dict(links)
        if plan is None:
            plan = TreePlan.build(sorted(self.links),
                                  min(fanout, max(2, len(self.links))))
        missing = set(plan.leaves) - set(self.links)
        if missing or set(self.links) - set(plan.leaves):
            raise ConfigurationError(
                "plan leaves and links disagree "
                f"(missing links: {sorted(missing)})")
        self.plan = plan
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.health = health if health is not None else HealthTracker(
            plan.leaves, suspect_after=1, fail_after=2)
        self._epoch = 0
        #: collector -> (accumulated sketch, leaves it represents); only
        #: set while an epoch runs.
        self._acc: Optional[Dict[str, Tuple[UniversalSketch, set]]] = None
        #: Aggregators killed and not yet restarted.
        self._dead: set = set()
        self._encoder = DeltaEncoder()
        self._decoder = DeltaDecoder()

    # ------------------------------------------------------------------ #
    # fault injection
    # ------------------------------------------------------------------ #

    def kill_aggregator(self, name: str) -> None:
        """Crash an intermediate aggregator (mid-epoch capable: any
        sketch it has collected but not shipped this epoch is lost)."""
        if name == ROOT:
            raise ConfigurationError(
                "the root is the coordinator process itself; stop the "
                "epoch loop instead of killing it")
        self._check_aggregator(name)
        if name in self._dead:
            return
        self._dead.add(name)
        if self._acc is not None and name in self._acc:
            sketch, leaves = self._acc.pop(name)
            self._lost_in_flight += sketch.packets
            self._lost_leaves.update(leaves)

    def restart_aggregator(self, name: str) -> None:
        """Bring an aggregator back empty."""
        self._check_aggregator(name)
        self._dead.discard(name)

    def _check_aggregator(self, name: str) -> None:
        if name not in self.plan.children:
            raise ConfigurationError(f"unknown aggregator {name!r}")

    # ------------------------------------------------------------------ #
    # re-parenting
    # ------------------------------------------------------------------ #

    def collector_for(self, node: str) -> str:
        """The live aggregator that collects ``node`` this epoch.

        The primary is ``parent(node)``; when it is down the first live
        sibling (sorted order) adopts the orphans; with the whole tier
        down the search escalates toward the root, which is always
        alive.
        """
        primary = self.plan.parent[node]
        return self._resolve(primary)

    def _resolve(self, agg: str) -> str:
        if agg not in self._dead:
            return agg
        parent = self.plan.parent[agg]
        for sibling in self.plan.children[parent]:
            if sibling != agg and sibling not in self._dead:
                return sibling
        return self._resolve(parent)

    # ------------------------------------------------------------------ #
    # epoch loop
    # ------------------------------------------------------------------ #

    def run_epochs(self, count: int,
                   on_tier: Optional[Callable[[int,
                                               "HierarchicalCoordinator"],
                                              None]] = None) \
            -> List[EpochReport]:
        return [self.run_epoch(on_tier=on_tier) for _ in range(count)]

    def _ship(self, frame: bytes, hop: str) -> UniversalSketch:
        """Account one frame on the wire and decode it."""
        self._bytes_wire += len(frame)
        self._frames_full += 1
        get_registry().counter(
            "univmon_tree_bytes_total",
            help="framed sketch bytes shipped through the tree",
            hop=hop).inc(len(frame))
        return self._decoder.decode(frame)

    def run_epoch(self, on_tier: Optional[
            Callable[[int, "HierarchicalCoordinator"], None]] = None) \
            -> EpochReport:
        """Collect the tree bottom-up once.

        ``on_tier(tier_index, self)`` is the chaos hook: it fires after
        leaf collection (``tier_index=0``) and after each aggregator
        tier ships (``1..depth-1``), which is exactly the window where a
        killed aggregator takes collected-but-unshipped data with it.
        """
        epoch_index = self._epoch
        self._epoch += 1
        reg = get_registry()
        retries_before, failures_before = self._transport_totals()

        # Per-epoch accounting, visible to kill_aggregator mid-epoch.
        self._bytes_wire = 0
        self._frames_full = 0
        self._lost_in_flight = 0
        self._lost_leaves: set = set()
        self._root_merge_s = 0.0
        self._acc = {}
        self._run_to: Optional[str] = None
        self._run: List[UniversalSketch] = []
        self._run_leaves: set = set()

        lost: List[str] = []
        recovered: List[str] = []
        reparented: Dict[str, str] = {}

        # ---- tier 0: poll the leaves into their collectors ---------- #
        for name in self.plan.leaves:
            was_failed = not self.health.is_live(name)
            if was_failed:
                if not self.health.should_probe(name):
                    continue
                try:
                    self.links[name].ping()
                except TransportError:
                    self.health.record_failure(name)
                    continue
            collector = self.collector_for(name)
            if collector != self.plan.parent[name]:
                reparented[name] = collector
            try:
                sketch = self._ship(self.links[name].poll(), "leaf")
            except (TransportError, CodecError):
                self.health.record_failure(name)
                if not was_failed and not self.health.is_live(name):
                    lost.append(name)
                continue
            self.health.record_success(name)
            if was_failed:
                recovered.append(name)
            self._collect(collector, sketch, {name})
        self._flush()
        if on_tier is not None:
            on_tier(0, self)

        # ---- aggregator tiers ship bottom-up ------------------------ #
        for tier_index, tier in enumerate(self.plan.tiers[:-1], start=1):
            for agg, _ in tier:
                if agg in self._dead or agg not in self._acc:
                    continue
                sketch, leaves = self._acc.pop(agg)
                target = self._resolve(self.plan.parent[agg])
                if target != self.plan.parent[agg]:
                    reparented[agg] = target
                shipped = self._ship(self._encoder.encode(sketch), "uplink")
                self._collect(target, shipped, leaves)
            self._flush()
            if on_tier is not None:
                on_tier(tier_index, self)

        # ---- root merge + policy ------------------------------------ #
        if ROOT in self._acc:
            merged, covered_leaves = self._acc.pop(ROOT)
        else:
            merged, covered_leaves = self._empty.copy(), set()
        # The root's share of this epoch's merging work (accumulated in
        # _flush: every merge whose collector is the root).
        reg.histogram(
            "univmon_tree_merge_seconds",
            help="root-of-tree epoch merge latency").observe(
                self._root_merge_s)
        covered_packets = merged.packets
        retries_after, failures_after = self._transport_totals()
        retries = retries_after - retries_before
        transport_failures = failures_after - failures_before

        total = len(self.plan.leaves)
        coverage = len(covered_leaves) / total
        root_children = self.plan.children[ROOT]
        represented = sum(
            1 for child in root_children
            if any(leaf in covered_leaves
                   for leaf in self.plan.leaves_under.get(child, (child,))))
        subtree_quorum = represented / len(root_children)
        status, violated = self.policy.decide(coverage, subtree_quorum)

        missing = sorted(set(self.plan.leaves) - covered_leaves)
        missing_subtrees = [
            agg for tier in self.plan.tiers[:-1] for agg, _ in tier
            if not any(leaf in covered_leaves
                       for leaf in self.plan.leaves_under[agg])]

        reg.counter("univmon_tree_epochs_total",
                    help="tree epochs by publication status",
                    status=status).inc()
        reg.gauge("univmon_tree_coverage",
                  help="fraction of switches the last epoch represents"
                  ).set(coverage)
        reg.gauge("univmon_tree_packets_covered",
                  help="packets the last epoch's merge covers").set(
                      covered_packets)
        reg.counter("univmon_tree_reparented_total",
                    help="children collected by a stand-in aggregator"
                    ).inc(len(reparented))
        reg.counter("univmon_tree_lost_in_flight_total",
                    help="packets lost with a mid-epoch aggregator kill"
                    ).inc(self._lost_in_flight)
        reg.counter("univmon_tree_retries_total",
                    help="transport retries burned polling leaves"
                    ).inc(retries)
        reg.counter("univmon_tree_transport_failures_total",
                    help="leaf polls and probes that exhausted their "
                         "retries").inc(transport_failures)

        report = EpochReport(epoch_index=epoch_index, start_time=0.0,
                             end_time=0.0, packets=covered_packets)
        report.results["coverage"] = {
            "topology": self.plan.describe(),
            "switches_total": total,
            "switches_covered": len(covered_leaves),
            "coverage": coverage,
            "subtree_quorum": subtree_quorum,
            "status": status,
            "policy_violated": violated,
            "degraded": status != "published",
            "missing_switches": missing,
            "missing_subtrees": missing_subtrees,
            "reparented": dict(sorted(reparented.items())),
            "lost_in_flight_packets": self._lost_in_flight,
            "lost_in_flight_switches": sorted(self._lost_leaves),
            "bytes_wire": self._bytes_wire,
            "frames_full": self._frames_full,
            "packets_covered": covered_packets,
            "retries": retries,
            "transport_failures": transport_failures,
            "failed": self.health.failed(),
            "lost": sorted(lost),
            "recovered": sorted(recovered),
            "dead_aggregators": sorted(self._dead),
            "health": self.health.snapshot(),
        }
        if status != "withheld" and covered_leaves:
            observe_sketch(merged, reg)
            self.run_apps(merged, epoch_index, report)
        self.health.tick()
        self._acc = None
        return report

    def _transport_totals(self) -> Tuple[int, int]:
        """Cumulative ``(retries, failures)`` over every leaf link."""
        retries = failures = 0
        for link in self.links.values():
            retries += link.counters["retries"]
            failures += link.counters["failures"]
        return retries, failures

    def _collect(self, collector: str, sketch: UniversalSketch,
                 leaves: set) -> None:
        """Queue ``sketch`` for ``collector``.

        Children polled one after another for the same collector (a
        rack's leaves, a pod's racks) form a run that :meth:`_flush`
        merges in one call.  A run holds at most :data:`MAX_RUN`
        decoded sketches, so a flat fan-in keeps at most that many
        alive at once.
        """
        if collector != self._run_to or len(self._run) >= MAX_RUN:
            self._flush()
            self._run_to = collector
        self._run.append(sketch)
        self._run_leaves.update(leaves)

    def _flush(self) -> None:
        """Merge the pending run into its collector's accumulator.

        A collector's first run merges onto the factory's empty sketch,
        which checks every polled sketch against the factory's geometry
        and seed.
        """
        if not self._run:
            return
        t0 = time.perf_counter()
        collector = self._run_to
        acc, leaves = self._acc.get(collector, (self._empty, set()))
        self._acc[collector] = (acc.merge(*self._run),
                                leaves | self._run_leaves)
        if collector == ROOT:
            self._root_merge_s += time.perf_counter() - t0
        self._run = []
        self._run_leaves = set()


class AgentLink:
    """Adapt a :class:`~repro.controlplane.rpc.RemoteSwitchClient` to
    the link surface :class:`HierarchicalCoordinator` expects."""

    def __init__(self, client, program: str = "univmon") -> None:
        self.client = client
        self.program = program

    @property
    def counters(self) -> Dict[str, int]:
        """The client's cumulative transport counters."""
        return self.client.counters

    def ping(self) -> bool:
        return self.client.ping(retry=self.client.retry.fail_fast())

    def poll(self) -> bytes:
        return self.client.poll_frame(self.program)
