"""Tests for simple tabulation hashing."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import tabulation
from repro.hashing.tabulation import (
    TabulationHash,
    derived_seeds,
    gather_packed,
    pack_tabulation_fields,
    tabulation_family,
)

KEYS64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestTabulationHash:
    def test_deterministic_given_seed(self):
        a, b = TabulationHash(seed=1), TabulationHash(seed=1)
        for x in (0, 1, 0xDEADBEEF, (1 << 64) - 1):
            assert a(x) == b(x)

    def test_seeds_differ(self):
        a, b = TabulationHash(seed=1), TabulationHash(seed=2)
        assert [a(x) for x in range(64)] != [b(x) for x in range(64)]

    def test_output_is_64_bit(self):
        h = TabulationHash(seed=3)
        for x in range(200):
            assert 0 <= h(x) < (1 << 64)

    def test_handles_keys_above_64_bits_by_masking(self):
        h = TabulationHash(seed=4)
        assert h(1 << 64) == h(0)
        assert h((1 << 64) + 5) == h(5)

    def test_array_matches_scalar(self):
        h = TabulationHash(seed=5)
        xs = np.array([0, 1, 255, 256, 0xFFFFFFFFFFFFFFFF, 12345678901234],
                      dtype=np.uint64)
        assert [h(int(x)) for x in xs] == h.hash_array(xs).tolist()

    @given(KEYS64)
    @settings(max_examples=150)
    def test_property_array_matches_scalar(self, x):
        h = TabulationHash(seed=6)
        arr = np.array([x], dtype=np.uint64)
        assert h.hash_array(arr)[0] == h(x)

    def test_bucket_in_range(self):
        h = TabulationHash(seed=7)
        assert all(0 <= h.bucket(x, 13) < 13 for x in range(300))

    def test_sign_in_pm_one(self):
        h = TabulationHash(seed=8)
        values = {h.sign(x) for x in range(300)}
        assert values == {-1, 1}

    def test_avalanche_single_byte_change(self):
        """Changing one input byte should flip about half the output bits."""
        h = TabulationHash(seed=9)
        flips = []
        for x in range(500):
            diff = h(x) ^ h(x ^ 0xFF)
            flips.append(bin(diff).count("1"))
        mean = sum(flips) / len(flips)
        assert 24 < mean < 40  # ideal: 32

    def test_uniform_buckets(self):
        h = TabulationHash(seed=10)
        width = 32
        counts = np.bincount([h.bucket(x, width) for x in range(width * 300)],
                             minlength=width)
        assert counts.min() > 180 and counts.max() < 440

    def test_shared_rng_yields_distinct_functions(self):
        rng = random.Random(0)
        h1, h2 = TabulationHash(rng=rng), TabulationHash(rng=rng)
        assert any(h1(x) != h2(x) for x in range(16))


# --------------------------------------------------------------------- #
# Multi-row kernels and the per-family memo
# --------------------------------------------------------------------- #

#: Edge-case keys: both extremes, every byte equal (the stacked gather
#: reads the same table row at all 8 positions), alternating bytes.
EDGE_KEYS = [0, (1 << 64) - 1, 0x0101010101010101, 0x5A5A5A5A5A5A5A5A,
             0xFF00FF00FF00FF00, 0x00000000000000FF, 1 << 63]


def _key_arrays():
    """``(name, keys)`` inputs for the bulk kernels: the edge keys, a
    random batch, one key, no keys, an ``int64`` array (negative values
    hash as their two's-complement ``uint64``) and a strided view."""
    rng = np.random.default_rng(11)
    random_keys = rng.integers(0, 1 << 64, 300, dtype=np.uint64)
    return [
        ("edge", np.array(EDGE_KEYS, dtype=np.uint64)),
        ("random", random_keys),
        ("single", np.array([0xDEADBEEF], dtype=np.uint64)),
        ("empty", np.array([], dtype=np.uint64)),
        ("int64", np.array([-1, -2, 0, 7, -(1 << 63)], dtype=np.int64)),
        ("strided", random_keys[::3]),
    ]


def _scalar(h, keys):
    return [h(int(x) & ((1 << 64) - 1)) for x in keys.tolist()]


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty family cache for the test, restored afterwards."""
    monkeypatch.setattr(tabulation, "_FAMILY_CACHE", {})
    return tabulation


class TestHashMatrix:
    @pytest.mark.parametrize("rows", range(1, 9))
    @pytest.mark.parametrize("name,keys", _key_arrays())
    def test_stacked_gather_matches_per_row(self, rows, name, keys):
        family = tabulation_family(100 + rows, rows)
        matrix = family.hash_matrix(keys)
        assert matrix.shape == (rows, len(keys))
        assert matrix.dtype == np.uint64
        for h, got in zip(family.hashes, matrix):
            assert got.tolist() == h.hash_array(keys).tolist()
            assert got.tolist() == _scalar(h, keys)

    def test_hash_tables_are_views_of_the_stacked_table(self):
        family = tabulation_family(21, 5)
        assert family.stacked.shape == (8, 256, 5)
        for r, h in enumerate(family.hashes):
            assert np.shares_memory(h._np_tables, family.stacked)
            assert np.array_equal(h._np_tables, family.stacked[:, :, r])
            h(0)  # the scalar lists exist from the first scalar call on
            assert np.array_equal(h._np_tables, np.array(h._tables,
                                                         dtype=np.uint64))
        assert not family.stacked.flags.writeable


#: Every byte value at every byte position: 2048 keys that together
#: read each entry of a hash's ``(8, 256)`` table once.
EVERY_BYTE = np.array([b << (8 * i) for i in range(8) for b in range(256)],
                      dtype=np.uint64)


class TestScalarTables:
    def test_tables_equal_the_row_by_row_draw(self):
        rng = random.Random(31)
        drawn = [[rng.getrandbits(64) for _ in range(256)]
                 for _ in range(8)]
        assert TabulationHash(seed=31)._np_tables.tolist() == drawn

    def test_bulk_only_family_holds_no_scalar_lists(self, fresh_cache):
        from repro.sketches.countsketch import CountSketch
        sketch = CountSketch(rows=5, width=1965, seed=41)
        keys = np.arange(5000, dtype=np.uint64)
        sketch.update_array(keys)
        sketch.query_many(keys)
        hashes = sketch._family.hashes
        assert all(h._tables is None for h in hashes)
        matrix = sketch._family.hash_matrix(EVERY_BYTE)
        for h, row in zip(hashes, matrix):
            assert [h(x) for x in EVERY_BYTE.tolist()] == row.tolist()
            assert h._tables is not None


class TestGatherPacked:
    #: 8-bit fields: up to 7 rows pack into one 63-bit word, 8 do not.
    FIELD_BITS = 8

    @pytest.mark.parametrize("rows", range(1, 9))
    @pytest.mark.parametrize("name,keys", _key_arrays())
    def test_fused_fields_match_per_row(self, rows, name, keys):
        family = tabulation_family(200 + rows, rows)

        def field_of(t):
            return t & np.uint64(0xFF)

        if rows * self.FIELD_BITS > 63:
            with pytest.raises(ValueError):
                pack_tabulation_fields(family.hashes, field_of,
                                       self.FIELD_BITS)
            return
        packed = pack_tabulation_fields(family.hashes, field_of,
                                        self.FIELD_BITS)
        words = gather_packed(packed, keys)
        assert words.dtype == np.int64 and len(words) == len(keys)
        for r, h in enumerate(family.hashes):
            got = (words >> np.int64(r * self.FIELD_BITS)) & np.int64(0xFF)
            want = [v & 0xFF for v in _scalar(h, keys)]
            assert got.tolist() == want


class TestFamilyMemo:
    def test_equal_seeds_share_one_family(self, fresh_cache):
        a, b = tabulation_family(5, 4), tabulation_family(5, 4)
        assert a is b
        assert tabulation_family(5, 3) is not a
        assert tabulation_family(6, 4) is not a

    def test_equal_seed_sketches_share_derived_tables(self, fresh_cache):
        from repro.hashing.sampling import LevelSampler
        from repro.sketches.countmin import CountMinSketch
        from repro.sketches.countsketch import CountSketch
        from repro.sketches.kary import KArySketch

        keys = np.arange(50, dtype=np.uint64)
        a, b = CountSketch(5, 256, seed=3), CountSketch(5, 256, seed=3)
        assert a._family is b._family
        assert a._packed_state()[0] is b._packed_state()[0]
        assert not a._packed_state()[0].flags.writeable
        assert CountSketch(5, 128, seed=3)._packed_state()[0] \
            is not a._packed_state()[0]
        # Count-Min and k-ary fuse the same bucket fields: one table.
        cm, ks = CountMinSketch(4, 256, seed=9), KArySketch(4, 256, seed=9)
        cm.update_array(keys)
        ks.update_array(keys)
        assert cm._family is ks._family
        assert list(cm._family._derived) == [("bucket", 256)]
        s1, s2 = LevelSampler(12, seed=8), LevelSampler(12, seed=8)
        assert s1._packed_parity() is s2._packed_parity()

    def test_decoded_frame_shares_the_memoised_tables(self, fresh_cache):
        from repro.core.universal import UniversalSketch
        from repro.network.codec import DeltaDecoder, DeltaEncoder

        sketch = UniversalSketch(levels=3, rows=3, width=64, heap_size=8,
                                 seed=17)
        sketch.update_array(np.arange(1000, dtype=np.uint64) % 97)
        decoded = DeltaDecoder().decode(DeltaEncoder().encode(sketch))
        assert decoded.sampler._family is sketch.sampler._family
        assert decoded.sampler._packed_parity() \
            is sketch.sampler._packed_parity()
        for mine, theirs in zip(sketch.levels, decoded.levels):
            assert theirs.sketch._family is mine.sketch._family
            assert theirs.sketch._packed_state()[0] \
                is mine.sketch._packed_state()[0]

    def test_unseeded_families_never_enter_the_memo(self, fresh_cache):
        a = tabulation_family(None, 3)
        b = tabulation_family(None, 3)
        assert fresh_cache._FAMILY_CACHE == {}
        assert a is not b
        assert a.hashes[0](12345) != b.hashes[0](12345)
        table = a.derived("t", lambda hashes: np.zeros(1))
        assert b.derived("t", lambda hashes: np.ones(1)) is not table

    def test_memo_clears_at_its_bound(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(fresh_cache, "_FAMILY_CACHE_MAX", 3)
        first = tabulation_family(0, 2)
        first.derived("t", lambda hashes: np.zeros(1))
        for seed in (1, 2):
            tabulation_family(seed, 2)
        assert len(fresh_cache._FAMILY_CACHE) == 3
        tabulation_family(3, 2)          # over the bound: cleared first
        assert len(fresh_cache._FAMILY_CACHE) == 1
        again = tabulation_family(0, 2)  # rebuilt, with a fresh memo
        assert again is not first
        assert again._derived == {}
        assert np.array_equal(again.stacked, first.stacked)


def _reference_seeds(seed, count):
    """The draws ``UniversalSketch`` made from a fresh master stream
    before they were memoised."""
    master = random.Random(seed)
    return tuple(master.randrange(1 << 62) for _ in range(count))


@pytest.fixture
def fresh_seeds(monkeypatch):
    """An empty sub-seed memo for the test, restored afterwards."""
    monkeypatch.setattr(tabulation, "_SEEDS_CACHE", {})
    return tabulation


class TestSeedMemo:
    def test_memoised_seeds_equal_a_fresh_derivation(self, fresh_seeds):
        for seed, count in ((0, 1), (9, 7), (1 << 40, 18), (-3, 4)):
            first = derived_seeds(seed, count)
            assert first == _reference_seeds(seed, count)
            assert derived_seeds(seed, count) is first
        # The memoised draws are what a sketch hands its sampler and
        # levels, so equal-seed sketches hash exactly as before.
        from repro.core.universal import UniversalSketch
        u = UniversalSketch(levels=5, rows=2, width=256, heap_size=16,
                            seed=9)
        sampler_seed, *level_seeds = _reference_seeds(9, 7)
        assert u.sampler.seed == sampler_seed
        assert [lv.sketch.seed for lv in u.levels] == level_seeds

    def test_unseeded_draws_differ_and_are_never_cached(self, fresh_seeds):
        a, b = derived_seeds(None, 4), derived_seeds(None, 4)
        assert a != b
        assert fresh_seeds._SEEDS_CACHE == {}
        from repro.core.universal import UniversalSketch
        u, v = (UniversalSketch(levels=2, rows=1, width=8, heap_size=2)
                for _ in range(2))
        assert u.sampler.seed != v.sampler.seed
        assert fresh_seeds._SEEDS_CACHE == {}

    def test_memo_clears_at_its_bound(self, fresh_seeds, monkeypatch):
        monkeypatch.setattr(fresh_seeds, "_FAMILY_CACHE_MAX", 3)
        first = derived_seeds(0, 2)
        for seed in (1, 2):
            derived_seeds(seed, 2)
        assert len(fresh_seeds._SEEDS_CACHE) == 3
        derived_seeds(3, 2)              # over the bound: cleared first
        assert len(fresh_seeds._SEEDS_CACHE) == 1
        again = derived_seeds(0, 2)      # drawn again, equal values
        assert again is not first and again == first
