"""The Intel-PCM substitute: a deterministic op-cost model.

The paper measures total CPU cycles with Intel PCM on its testbed
(UnivMon 1.407e9 vs OpenSketch-suite 2.941e9 over the trace).  Hardware
counters are unavailable here, so the harness counts the operations the
data plane performs — hash evaluations, counter read-modify-writes, and
memory words touched (tracked per sketch in
:class:`~repro.sketches.base.UpdateCost`) — and converts them to
"cycles" with per-op weights.

The weights are order-of-magnitude figures for a modern x86 core (a
short hash like tabulation ≈ 15-25 cycles; an L1/L2-resident
read-modify-write ≈ 4; a likely-L2/L3 memory touch ≈ 10).  The paper's
claim is *relative* ("UnivMon's suite cost is ~0.5x OpenSketch's; worst
case 10-15% more expensive per task"), and relative op counts are
preserved under any positive choice of weights of the right magnitude.

The counts model the paper's per-packet switch pipeline: every packet
hashes and updates each level it reaches.  They do not model this
repository's software bulk path, which folds a batch to its distinct
keys before hashing (DESIGN.md §6), so its wall-clock cost follows
distinct keys rather than packets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sketches.base import UpdateCost


@dataclass(frozen=True)
class CostModel:
    """Per-operation cycle weights."""

    cycles_per_hash: float = 20.0
    cycles_per_counter_update: float = 4.0
    cycles_per_memory_word: float = 10.0

    def cycles(self, cost: UpdateCost) -> float:
        """Total modelled cycles for an accumulated op count."""
        return (cost.hashes * self.cycles_per_hash
                + cost.counter_updates * self.cycles_per_counter_update
                + cost.memory_words * self.cycles_per_memory_word)

    def cycles_per_packet(self, cost: UpdateCost, packets: int) -> float:
        if packets <= 0:
            return 0.0
        return self.cycles(cost) / packets


#: The weights every benchmark uses unless overridden.
DEFAULT_COST_MODEL = CostModel()
