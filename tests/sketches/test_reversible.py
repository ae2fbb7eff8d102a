"""Tests for the reversible sketch (§5 "Reversibility" extension)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, IncompatibleSketchError
from repro.sketches.reversible import ReversibleSketch


def make(seed=1, rows=4):
    return ReversibleSketch(rows=rows, chunk_bits=8,
                            bucket_bits_per_chunk=3, seed=seed)


class TestConstruction:
    def test_chunk_bits_must_divide_32(self):
        with pytest.raises(ConfigurationError):
            ReversibleSketch(chunk_bits=7)

    def test_bucket_bits_bounded(self):
        with pytest.raises(ConfigurationError):
            ReversibleSketch(chunk_bits=8, bucket_bits_per_chunk=9)

    def test_rows_validated(self):
        with pytest.raises(ConfigurationError):
            ReversibleSketch(rows=0)

    def test_width_is_product_of_chunk_hashes(self):
        rs = make()
        assert rs.width == 1 << (4 * 3)


class TestModularHashing:
    def test_bucket_deterministic(self):
        a, b = make(seed=3), make(seed=3)
        for key in (0, 1, 0xDEADBEEF, 0xFFFFFFFF):
            assert a.bucket(0, key) == b.bucket(0, key)

    def test_bucket_in_range(self):
        rs = make()
        for key in range(0, 1 << 16, 997):
            assert 0 <= rs.bucket(0, key) < rs.width

    def test_bulk_matches_scalar(self):
        a, b = make(seed=4), make(seed=4)
        keys = np.array([1, 0xAABBCCDD, 1, 99], dtype=np.uint64)
        a.update_array(keys)
        for k in keys.tolist():
            b.update(int(k))
        assert np.array_equal(a.table, b.table)

    def test_weighted_bulk_matches_scalar(self):
        a, b = make(seed=4), make(seed=4)
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 1 << 32, size=500, dtype=np.uint64)
        keys[::7] = 0xAABBCCDD              # repeated keys sum
        weights = rng.uniform(-50.0, 1500.0, size=len(keys))
        a.update_array(keys, weights)
        for k, w in zip(keys.tolist(), weights.tolist()):
            b.update(int(k), int(w))        # truncates, like the bulk path
        assert np.array_equal(a.table, b.table)

    def test_bulk_rejects_malformed_batch(self):
        rs = make()
        with pytest.raises(ConfigurationError):
            rs.update_array(np.arange(4, dtype=np.uint64), np.ones(3))
        with pytest.raises(ConfigurationError):
            rs.update_array(np.arange(2, dtype=np.uint64),
                            np.array([1.0, np.nan]))
        assert not rs.table.any()


def _loop_tables(rows, chunk_bits, bucket_bits, seed):
    """The tables as the sketch built them one entry at a time before
    they were memoised: the reference the cached build must equal."""
    import random
    rng = random.Random(seed)
    chunks = 32 // chunk_bits
    chunk_values = 1 << chunk_bits
    tables = np.empty((rows, chunks, chunk_values), dtype=np.int64)
    for r in range(rows):
        for c in range(chunks):
            for v in range(chunk_values):
                tables[r, c, v] = rng.getrandbits(bucket_bits)
    preimages = []
    for r in range(rows):
        row_pre = []
        for c in range(chunks):
            buckets = {}
            for v in range(chunk_values):
                buckets.setdefault(int(tables[r, c, v]), []).append(v)
            row_pre.append(buckets)
        preimages.append(row_pre)
    return tables, preimages


class TestTableCache:
    @pytest.mark.parametrize("rows,chunk_bits,bucket_bits,seed", [
        (4, 8, 3, 7), (4, 8, 3, 1000), (2, 4, 2, 5), (1, 16, 2, 9)])
    def test_cached_tables_equal_loop_build(self, rows, chunk_bits,
                                            bucket_bits, seed):
        tables, preimages = _loop_tables(rows, chunk_bits, bucket_bits,
                                         seed)
        for rs in (ReversibleSketch(rows, chunk_bits, bucket_bits, seed),
                   ReversibleSketch(rows, chunk_bits, bucket_bits, seed)):
            assert np.array_equal(rs._tables, tables)
            assert rs._preimages == preimages

    def test_equal_seeds_share_tables_not_counters(self):
        a, b = make(seed=12), make(seed=12)
        assert a._tables is b._tables and a._preimages is b._preimages
        assert not a._tables.flags.writeable
        a.update(0xC0A80001, 40)
        assert a.table.sum() == 4 * 40 and not b.table.any()
        diff = a.subtract(b)
        assert diff._tables is a._tables
        assert diff.table is not a.table
        assert np.array_equal(diff.table, a.table)

    def test_unseeded_sketches_are_not_cached(self, monkeypatch):
        from repro.sketches import reversible
        monkeypatch.setattr(reversible, "_TABLE_CACHE", {})
        a, b = ReversibleSketch(seed=None), ReversibleSketch(seed=None)
        assert reversible._TABLE_CACHE == {}
        assert not np.array_equal(a._tables, b._tables)

    def test_cache_clears_at_its_bound(self, monkeypatch):
        from repro.sketches import reversible
        monkeypatch.setattr(reversible, "_TABLE_CACHE", {})
        monkeypatch.setattr(reversible, "_TABLE_CACHE_MAX", 2)
        first = make(seed=1)
        make(seed=2)
        make(seed=3)                        # over the bound: cleared first
        assert len(reversible._TABLE_CACHE) == 1
        again = make(seed=1)
        assert again._tables is not first._tables
        assert np.array_equal(again._tables, first._tables)


class TestQueries:
    def test_point_query_sparse(self):
        rs = make(seed=5)
        rs.update(0x0A000001, 500)
        rs.update(0x0A000002, 100)
        assert abs(rs.query(0x0A000001) - 500) < 30
        assert abs(rs.query(0x0A000002) - 100) < 30


class TestRecovery:
    def test_recovers_heavy_key_exactly(self):
        rs = make(seed=6)
        heavy_key = 0xC0A80164  # 192.168.1.100
        rs.update(heavy_key, 5000)
        rng = np.random.default_rng(0)
        rs.update_array(rng.integers(0, 1 << 32, size=3000,
                                     dtype=np.uint64))
        recovered = rs.recover_heavy_keys(threshold=2500)
        assert recovered, "nothing recovered"
        assert recovered[0][0] == heavy_key
        assert abs(recovered[0][1] - 5000) / 5000 < 0.2

    def test_recovers_multiple_heavy_keys(self):
        rs = make(seed=7)
        keys = [0x01020304, 0xA0B0C0D0, 0x7F000001]
        for k in keys:
            rs.update(k, 4000)
        rng = np.random.default_rng(1)
        rs.update_array(rng.integers(0, 1 << 32, size=2000,
                                     dtype=np.uint64))
        recovered = {k for k, _ in rs.recover_heavy_keys(threshold=2000)}
        assert set(keys) <= recovered

    def test_nothing_heavy_nothing_recovered(self):
        rs = make(seed=8)
        rs.update_array(np.arange(1000, dtype=np.uint64))
        assert rs.recover_heavy_keys(threshold=500) == []

    def test_too_many_heavy_buckets_rejected(self):
        rs = make(seed=9)
        for k in range(200):
            rs.update(k * 7919, 100)
        with pytest.raises(ConfigurationError):
            rs.recover_heavy_keys(threshold=1, max_buckets=4)

    def test_recovery_on_difference_stream(self):
        """The §5 use case: which key caused the change?"""
        a, b = make(seed=10), make(seed=10)
        shared = np.random.default_rng(2).integers(
            0, 1 << 32, size=2000, dtype=np.uint64)
        a.update_array(shared)
        b.update_array(shared)
        b.update(0x08080808, 3000)  # the change
        diff = b.subtract(a)
        recovered = diff.recover_heavy_keys(threshold=1500)
        assert recovered and recovered[0][0] == 0x08080808

    def test_subtract_compat(self):
        with pytest.raises(IncompatibleSketchError):
            make(seed=1).subtract(make(seed=2))


def _reference_buckets(rs, row, keys):
    """One row's buckets, computed chunk by chunk from the raw tables."""
    mask = np.uint64((1 << rs.chunk_bits) - 1)
    index = np.zeros(len(keys), dtype=np.int64)
    for c in range(rs.chunks):
        pieces = ((keys >> np.uint64(rs.chunk_bits * c)) & mask) \
            .astype(np.intp)
        index |= rs._tables[row, c][pieces] << (rs.bucket_bits * c)
    return index


def _unfiltered_recovery(rs, threshold, verify_rows=None):
    """Recovery without the per-chunk filter: the full product of each
    heavy row-0 bucket's preimages, then the full-key check in every
    verify row.  The reference the filtered recovery must equal."""
    verify_rows = rs.rows if verify_rows is None else verify_rows
    recovered = {}
    field = (1 << rs.bucket_bits) - 1
    for bucket in np.nonzero(np.abs(rs.table[0]) >= threshold)[0].tolist():
        per_chunk = [np.asarray(rs._preimages[0][c].get(
            (bucket >> (rs.bucket_bits * c)) & field, []), dtype=np.uint64)
            for c in range(rs.chunks)]
        keys = per_chunk[0]
        for c in range(1, rs.chunks):
            shifted = per_chunk[c] << np.uint64(rs.chunk_bits * c)
            keys = (keys[:, None] | shifted[None, :]).ravel()
        confirmed = np.ones(len(keys), dtype=bool)
        for r in range(1, verify_rows):
            confirmed &= np.abs(
                rs.table[r, _reference_buckets(rs, r, keys)]) >= threshold
        for key in keys[confirmed].tolist():
            if key not in recovered:
                recovered[key] = rs.query(key)
    survivors = [(k, est) for k, est in recovered.items()
                 if abs(est) >= threshold * 0.5]
    survivors.sort(key=lambda kv: -abs(kv[1]))
    return survivors


def _raw(rows, chunk_bits, bucket_bits):
    rs = ReversibleSketch(rows, chunk_bits, bucket_bits, seed=6)
    for key in (0xC0A80164, 0x01020304, 0xA0B0C0D0):
        rs.update(key, 4000)
    rs.update_array(np.random.default_rng(0).integers(
        0, 1 << 32, size=3000, dtype=np.uint64))
    return rs


def _difference(rows, chunk_bits, bucket_bits):
    a = ReversibleSketch(rows, chunk_bits, bucket_bits, seed=10)
    b = ReversibleSketch(rows, chunk_bits, bucket_bits, seed=10)
    shared = np.random.default_rng(2).integers(0, 1 << 32, size=2000,
                                               dtype=np.uint64)
    a.update_array(shared)
    b.update_array(shared)
    b.update(0x08080808, 3000)        # the change, upwards
    a.update(0x7F000001, 2500)        # and downwards
    return b.subtract(a)


class TestFilteredRecovery:
    @pytest.mark.parametrize("geometry", [(4, 8, 3), (3, 4, 2)])
    @pytest.mark.parametrize("build", [_raw, _difference])
    @pytest.mark.parametrize("verify_rows", [None, 2])
    def test_equals_unfiltered_enumeration(self, geometry, build,
                                           verify_rows):
        rs = build(*geometry)
        for threshold in (1200.0, 2000.0):
            got = rs.recover_heavy_keys(threshold, verify_rows=verify_rows)
            want = _unfiltered_recovery(rs, threshold, verify_rows)
            assert got == want
        assert got, "nothing recovered: the case checks nothing"

    def test_row_buckets_match_each_row(self):
        rs = _raw(4, 8, 3)
        keys = np.random.default_rng(4).integers(0, 1 << 32, size=500,
                                                 dtype=np.uint64)
        buckets = rs._row_buckets(keys, range(1, 4))
        assert buckets.shape == (3, len(keys))
        for row, got in zip(range(1, 4), buckets):
            assert np.array_equal(got, _reference_buckets(rs, row, keys))
            assert got.tolist() == [rs.bucket(row, k) for k in keys.tolist()]


class TestAccounting:
    def test_memory(self):
        rs = make()
        assert rs.memory_bytes() == 4 * rs.width * 4

    def test_update_cost_counts_chunk_lookups(self):
        rs = make(rows=4)
        assert rs.update_cost().hashes == 4 * 4
