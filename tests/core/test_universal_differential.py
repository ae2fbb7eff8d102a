"""The counter-tensor ``UniversalSketch`` against the per-level sketch it
replaced (``reference_universal.ReferenceUniversal``), over random
interleavings of bulk batches, scalar updates, copies, n-ary merges and
subtracts.

Batches come unweighted and weighted (zero and negative weights
included), sparse (few distinct keys: the fused ``(key, level)``
kernel) and dense (many distinct keys: the per-level kernel).  Every
step runs on a pool of sketch pairs, so copies are mutated on either
side and merge/subtract inputs are arbitrary earlier states.  After
every step each pair must agree on every counter, every heap's arrays
in storage order, the churn counters, packets and weights.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.universal import UniversalSketch
from tests.core.reference_universal import ReferenceUniversal

#: (levels, rows, width): power-of-two and generic widths, odd and even
#: rows, levels 0, 1 and 12.  At each, a sparse batch (at most 20
#: distinct keys) takes the fused kernel and a dense one (600 distinct
#: keys) the per-level kernel.
GEOMETRIES = [(0, 3, 32), (1, 4, 24), (12, 5, 29), (12, 2, 64)]
HEAP = 6
SEED = 77

PICK = st.integers(0, 1 << 16)  # an index into the pool, modulo its size
BATCH = st.tuples(st.just("batch"), PICK,
                  st.sampled_from(["sparse", "dense"]),
                  st.booleans(), st.integers(0, 1 << 32))
SCALAR = st.tuples(st.just("scalar"), PICK,
                   st.integers(0, (1 << 64) - 1), st.integers(-20, 20))
COPY = st.tuples(st.just("copy"), PICK)
MERGE = st.tuples(st.just("merge"), PICK, st.lists(PICK, max_size=3))
SUBTRACT = st.tuples(st.just("subtract"), PICK, PICK)
OPS = st.lists(st.one_of(BATCH, BATCH, SCALAR, COPY, MERGE, SUBTRACT),
               min_size=1, max_size=10)


def batch(kind, weighted, seed):
    """A batch of ``kind`` and its weights (None when unweighted)."""
    gen = np.random.default_rng(seed)
    if kind == "sparse":
        universe = gen.integers(0, 1 << 64, int(gen.integers(1, 21)),
                                dtype=np.uint64)
        keys = gen.choice(universe, int(gen.integers(1, 300)))
    else:
        keys = gen.integers(0, 1 << 64, 600, dtype=np.uint64)
        keys = np.concatenate([keys, keys[:50]])
        gen.shuffle(keys)
    weights = gen.integers(-30, 31, len(keys)) if weighted else None
    return keys, weights


def state(sketch):
    """Everything a level holds, in comparable form."""
    return (sketch.packets, [
        (level.sketch.table.tolist(), level.topk.arrays()[0].tolist(),
         level.topk.arrays()[1].tobytes(), level.topk.offers,
         level.topk.evictions, level.topk.rejections, level.packets,
         level.weight)
        for level in sketch.levels])


def apply(op, pool):
    pick = lambda i: pool[i % len(pool)]  # noqa: E731
    if op[0] == "batch":
        _, i, kind, weighted, seed = op
        keys, weights = batch(kind, weighted, seed)
        for sketch in pick(i):
            sketch.update_array(keys, weights)
    elif op[0] == "scalar":
        _, i, key, weight = op
        for sketch in pick(i):
            sketch.update(key, weight)
    elif op[0] == "copy":
        new, ref = pick(op[1])
        pool.append((new.copy(), ref.copy()))
    elif op[0] == "merge":
        _, i, others = op
        new, ref = pick(i)
        parts = [pick(j) for j in others]
        pool.append((new.merge(*(p[0] for p in parts)),
                     ref.merge(*(p[1] for p in parts))))
    else:
        _, i, j = op
        (new, ref), (new_other, ref_other) = pick(i), pick(j)
        pool.append((new.subtract(new_other), ref.subtract(ref_other)))


@pytest.mark.parametrize("geometry", GEOMETRIES)
class TestAgainstReference:
    @given(OPS)
    @settings(max_examples=60, deadline=None)
    def test_random_interleavings(self, geometry, ops):
        levels, rows, width = geometry
        pool = [(UniversalSketch(levels=levels, rows=rows, width=width,
                                 heap_size=HEAP, seed=SEED),
                 ReferenceUniversal(levels, rows, width, HEAP, SEED))]
        for op in ops:
            apply(op, pool)
            for new, ref in pool:
                assert state(new) == state(ref)

    def test_sparse_and_dense_batches_take_both_kernels(self, geometry,
                                                        monkeypatch):
        calls = []
        for name in ("_update_pairs", "_update_levels"):
            kernel = getattr(UniversalSketch, name)

            def spy(self, *args, _kernel=kernel, _name=name):
                calls.append(_name)
                return _kernel(self, *args)
            monkeypatch.setattr(UniversalSketch, name, spy)
        levels, rows, width = geometry
        sketch = UniversalSketch(levels=levels, rows=rows, width=width,
                                 heap_size=HEAP, seed=SEED)
        for seed in range(20):
            for kind in ("sparse", "dense"):
                calls.clear()
                sketch.update_array(*batch(kind, seed % 2 == 0, seed))
                assert calls == (["_update_pairs"] if kind == "sparse"
                                 else ["_update_levels"])
