"""Cross-module property-based tests (hypothesis).

These pin down the *algebraic* invariants the system leans on — the
linearity that makes distributed merging and change detection exact,
threshold monotonicity of G-core, serialization round-trips, and trace
epoch partitioning — over randomly generated streams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import serialization
from repro.core.gsum import g_core, heavy_changes
from repro.core.universal import UniversalSketch

streams = st.lists(st.integers(0, 200), min_size=1, max_size=120)


def sketch_of(keys, seed=11):
    u = UniversalSketch(levels=4, rows=3, width=64, heap_size=16, seed=seed)
    u.update_array(np.array(keys, dtype=np.uint64))
    return u


class TestLinearity:
    @given(streams, streams)
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_concatenation(self, a, b):
        merged = sketch_of(a).merge(sketch_of(b))
        whole = sketch_of(a + b)
        for lm, lw in zip(merged.levels, whole.levels):
            assert np.array_equal(lm.sketch.table, lw.sketch.table)
        assert merged.total_weight == whole.total_weight

    @given(st.lists(streams, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_n_ary_merge_equals_concatenation_and_pairwise_fold(self,
                                                                parts):
        """Splitting a stream k = 1..8 ways and merging in one call gives
        the single-stream counters, the pairwise fold's counters, summed
        substream accounting, and heaps that are the top-k of the union
        of the inputs' heap keys under the summed counters."""
        sketches = [sketch_of(part) for part in parts]
        merged = sketches[0].merge(*sketches[1:])
        pairwise = sketches[0]
        for sketch in sketches[1:]:
            pairwise = pairwise.merge(sketch)
        whole = sketch_of([key for part in parts for key in part])
        assert merged.packets == whole.packets
        for j, (lm, lp, lw) in enumerate(zip(merged.levels, pairwise.levels,
                                             whole.levels)):
            assert np.array_equal(lm.sketch.table, lw.sketch.table)
            assert np.array_equal(lm.sketch.table, lp.sketch.table)
            assert (lm.packets, lm.weight) == (lw.packets, lw.weight)
            assert lm.topk.offers == sum(s.levels[j].topk.offers
                                         for s in sketches)
            union = sorted(set().union(*(s.levels[j].topk.keys()
                                         for s in sketches)))
            kept = dict(lm.topk.items())
            assert set(kept) <= set(union)
            assert len(kept) == min(len(union), lm.topk.capacity)
            if not kept:
                continue
            floor = min(abs(v) for v in kept.values())
            estimates = lm.sketch.query_many(np.array(union, dtype=np.uint64))
            for key, estimate in zip(union, estimates.tolist()):
                if key in kept:
                    assert kept[key] == estimate
                else:
                    assert abs(estimate) <= floor

    @given(streams, streams)
    @settings(max_examples=40, deadline=None)
    def test_subtract_then_add_back_is_identity(self, a, b):
        sa, sb = sketch_of(a), sketch_of(b)
        restored = sa.subtract(sb).merge(sb)
        for lr, la in zip(restored.levels, sa.levels):
            assert np.array_equal(lr.sketch.table, la.sketch.table)

    @given(streams)
    @settings(max_examples=30, deadline=None)
    def test_self_subtraction_is_empty(self, a):
        diff = sketch_of(a).subtract(sketch_of(a))
        assert diff.total_weight == 0
        for level in diff.levels:
            assert not level.sketch.table.any()


class TestGCore:
    @given(streams, st.floats(min_value=0.01, max_value=0.4),
           st.floats(min_value=1.5, max_value=4.0))
    @settings(max_examples=40, deadline=None)
    def test_threshold_monotone(self, keys, fraction, factor):
        """Raising the threshold can only shrink the reported set."""
        sketch = sketch_of(keys)
        low = {k for k, _ in g_core(sketch, fraction)}
        high = {k for k, _ in g_core(sketch, min(fraction * factor, 0.99))}
        assert high <= low

    @given(streams)
    @settings(max_examples=30, deadline=None)
    def test_reported_estimates_meet_threshold(self, keys):
        sketch = sketch_of(keys)
        threshold = 0.2 * sketch.total_weight
        for _key, est in g_core(sketch, 0.2):
            assert abs(est) >= threshold


class TestHeavyChanges:
    @given(streams, streams)
    @settings(max_examples=30, deadline=None)
    def test_direction_symmetry(self, a, b):
        """Swapping epochs flips delta signs but keeps keys and |D|."""
        sa, sb = sketch_of(a), sketch_of(b)
        fwd, d_fwd = heavy_changes(sb, sa, phi=0.2)
        rev, d_rev = heavy_changes(sa, sb, phi=0.2)
        assert d_fwd == pytest.approx(d_rev, rel=0.3, abs=2.0)
        fwd_map = dict(fwd)
        rev_map = dict(rev)
        shared = set(fwd_map) & set(rev_map)
        for key in shared:
            assert fwd_map[key] == pytest.approx(-rev_map[key], abs=1e-6)


#: Counters written straight into a table: anything an int64 holds,
#: weighted toward the edges of the 1-, 2- and 4-byte widths.
extreme_counters = st.lists(
    st.one_of(
        st.integers(-(1 << 63), (1 << 63) - 1),
        st.sampled_from([edge + d for bits in (7, 15, 31, 63)
                         for edge in (-(1 << bits), (1 << bits) - 1)
                         for d in (-1, 0, 1)
                         if -(1 << 63) <= edge + d < (1 << 63)])),
    max_size=12)


class TestSerializationRoundTrip:
    @given(streams, st.integers(0, 1 << 30), extreme_counters)
    @settings(max_examples=30, deadline=None)
    def test_universal_roundtrip_any_stream(self, keys, seed, extremes):
        original = sketch_of(keys, seed=seed)
        for i, value in enumerate(extremes):
            table = original.levels[i % len(original.levels)].sketch.table
            table.flat[(i * 37) % table.size] = value
        back = serialization.loads(serialization.dumps(original))
        assert back.total_weight == original.total_weight
        for lo, lb in zip(original.levels, back.levels):
            assert np.array_equal(lo.sketch.table, lb.sketch.table)


class TestTraceInvariants:
    @given(st.integers(50, 400), st.integers(5, 60),
           st.floats(min_value=0.3, max_value=2.0),
           st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_generation_invariants(self, packets, flows, skew, seed):
        from repro.dataplane.trace import SyntheticTraceConfig, generate_trace
        trace = generate_trace(SyntheticTraceConfig(
            packets=packets, flows=flows, zipf_skew=skew, duration=3.0,
            seed=seed))
        assert abs(len(trace) - packets) <= 2
        assert np.all(np.diff(trace.timestamps) >= 0)
        assert np.all(trace.timestamps >= 0)
        assert np.all(trace.timestamps <= 3.0)

    @given(st.floats(min_value=0.2, max_value=3.0), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_epochs_partition(self, epoch_seconds, seed):
        from repro.dataplane.trace import SyntheticTraceConfig, generate_trace
        trace = generate_trace(SyntheticTraceConfig(
            packets=300, flows=30, duration=4.0, seed=seed))
        epochs = trace.epochs(epoch_seconds)
        assert sum(len(e) for e in epochs) == len(trace)
        # Epochs are disjoint in time and ordered.
        for i, epoch in enumerate(epochs):
            if len(epoch) == 0:
                continue
            lo = trace.timestamps[0] + i * epoch_seconds
            assert np.all(epoch.timestamps >= lo - 1e-9)
            assert np.all(epoch.timestamps < lo + epoch_seconds + 1e-9)


class TestScalarVectorParity:
    """The vectorised ingest rewrite must be *bit-identical* to the
    per-packet scalar path: same Count Sketch tables, same substream
    counters, and (when the heaps are big enough to hold every distinct
    key) the same tracked key sets."""

    uint64_keys = st.lists(st.integers(0, (1 << 64) - 1),
                           min_size=1, max_size=150)
    #: Keys from a small universe (so a batch repeats keys and the bulk
    #: path's per-key aggregation does real work) or the full 64 bits.
    batch_keys = st.integers(0, 40) | st.integers(0, (1 << 64) - 1)
    #: Power-of-two widths take the packed path, others the generic one.
    widths = st.sampled_from([64, 61])

    @staticmethod
    def _assert_same_state(bulk, scalar):
        assert bulk.packets == scalar.packets
        for lb, ls in zip(bulk.levels, scalar.levels):
            assert np.array_equal(lb.sketch.table, ls.sketch.table)
            assert lb.packets == ls.packets
            assert lb.weight == ls.weight

    @given(st.lists(st.lists(batch_keys, min_size=1, max_size=150),
                    min_size=1, max_size=4), widths)
    @settings(max_examples=25, deadline=None)
    def test_universal_update_paths_agree(self, batches, width):
        bulk = UniversalSketch(levels=4, rows=3, width=width,
                               heap_size=1024, seed=11)
        scalar = UniversalSketch(levels=4, rows=3, width=width,
                                 heap_size=1024, seed=11)
        for keys in batches:
            bulk.update_array(np.array(keys, dtype=np.uint64))
            for k in keys:
                scalar.update(k)
            self._assert_same_state(bulk, scalar)
        for lb, ls in zip(bulk.levels, scalar.levels):
            # heap_size exceeds the distinct-key count, so both paths
            # must track exactly the substream's distinct keys.
            assert set(lb.topk.keys()) == set(ls.topk.keys())

    @given(st.lists(st.lists(st.tuples(batch_keys,
                                       st.integers(-1000, 1000)),
                             min_size=1, max_size=150),
                    min_size=1, max_size=4), widths)
    @settings(max_examples=25, deadline=None)
    def test_weighted_universal_update_paths_agree(self, batches, width):
        bulk = UniversalSketch(levels=3, rows=3, width=width, heap_size=256,
                               seed=23)
        scalar = UniversalSketch(levels=3, rows=3, width=width,
                                 heap_size=256, seed=23)
        for batch in batches:
            keys, weights = zip(*batch)
            bulk.update_array(np.array(keys, dtype=np.uint64),
                              np.array(weights, dtype=np.int64))
            for k, wt in batch:
                scalar.update(k, wt)
            self._assert_same_state(bulk, scalar)

    @given(uint64_keys, st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_deepest_level_paths_agree(self, keys, levels):
        from repro.hashing.sampling import LevelSampler
        sampler = LevelSampler(levels, seed=3)
        vec = sampler.deepest_level_array(np.array(keys, dtype=np.uint64))
        assert vec.tolist() == [sampler.deepest_level(k) for k in keys]
