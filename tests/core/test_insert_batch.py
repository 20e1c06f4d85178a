"""Tests for the batched insert path: indexes and the IC cache.

Contract: ``insert_batch`` produces the same observable state as the
equivalent sequence of ``insert`` calls — same entries, same match
decisions, same stats and eviction order — while amortizing the
signature/norm work into one vectorized pass per burst.
"""

import numpy as np
import pytest

from repro.core.cache import ICCache
from repro.core.descriptors import HashDescriptor, VectorDescriptor
from repro.core.index import (
    ExactIndex,
    IndexEntryExists,
    LinearIndex,
    LshIndex,
)

DIM = 16


def vec_descriptor(rng, kind="recognition"):
    return VectorDescriptor(kind=kind, vector=rng.normal(size=DIM))


def batch_items(rng, n, start_id=0):
    return [(start_id + i, vec_descriptor(rng)) for i in range(n)]


class TestLinearIndexBatch:
    def test_matches_sequential_inserts(self):
        rng = np.random.default_rng(0)
        items = batch_items(rng, 40)
        batched = LinearIndex()
        batched.insert_batch(items)
        sequential = LinearIndex()
        for entry_id, descriptor in items:
            sequential.insert(entry_id, descriptor)

        assert len(batched) == len(sequential) == 40
        for _, descriptor in items:
            assert (batched.query(descriptor, 0.1)
                    == sequential.query(descriptor, 0.1))

    def test_growth_across_doubling_boundary(self):
        rng = np.random.default_rng(1)
        index = LinearIndex()
        # MIN_CAPACITY is 64: a 70-row burst must grow mid-batch once,
        # then a second burst crosses the next boundary too.
        index.insert_batch(batch_items(rng, 70))
        index.insert_batch(batch_items(rng, 70, start_id=70))
        assert len(index) == 140
        probe = vec_descriptor(rng)
        index.insert(999, probe)
        assert index.query(probe, 1e-5)[0] == 999

    def test_duplicate_id_rejected(self):
        rng = np.random.default_rng(2)
        index = LinearIndex()
        index.insert(7, vec_descriptor(rng))
        with pytest.raises(IndexEntryExists):
            index.insert_batch([(8, vec_descriptor(rng)),
                                (7, vec_descriptor(rng))])
        with pytest.raises(IndexEntryExists):
            index.insert_batch([(9, vec_descriptor(rng)),
                                (9, vec_descriptor(rng))])

    def test_empty_batch_is_noop(self):
        index = LinearIndex()
        index.insert_batch([])
        assert len(index) == 0

    def test_remove_after_batch_insert(self):
        rng = np.random.default_rng(3)
        items = batch_items(rng, 10)
        index = LinearIndex()
        index.insert_batch(items)
        index.remove(items[3][0])
        assert len(index) == 9
        assert index.query(items[3][1], 1e-5) is None
        assert index.query(items[4][1], 1e-5)[0] == items[4][0]


class TestLshIndexBatch:
    def test_matches_sequential_inserts(self):
        rng = np.random.default_rng(4)
        items = batch_items(rng, 40)
        batched = LshIndex(dim=DIM)
        batched.insert_batch(items)
        sequential = LshIndex(dim=DIM)
        for entry_id, descriptor in items:
            sequential.insert(entry_id, descriptor)

        assert len(batched) == len(sequential) == 40
        assert batched._tables == sequential._tables
        for _, descriptor in items:
            assert (batched.query(descriptor, 0.5)
                    == sequential.query(descriptor, 0.5))

    def test_remove_after_batch_insert(self):
        rng = np.random.default_rng(5)
        items = batch_items(rng, 12)
        index = LshIndex(dim=DIM)
        index.insert_batch(items)
        index.remove(items[0][0])
        assert len(index) == 11
        assert index.query(items[0][1], 1e-5) is None

    def test_duplicate_id_rejected_atomically(self):
        rng = np.random.default_rng(6)
        index = LshIndex(dim=DIM)
        with pytest.raises(IndexEntryExists):
            index.insert_batch([(1, vec_descriptor(rng)),
                                (1, vec_descriptor(rng))])
        # Validation happens before any mutation: nothing landed.
        assert len(index) == 0


class TestExactIndexBatch:
    def test_default_batch_path(self):
        index = ExactIndex()
        items = [(i, HashDescriptor(kind="model_load", digest=f"d{i}"))
                 for i in range(5)]
        index.insert_batch(items)
        assert len(index) == 5
        assert index.query(items[2][1], 0.0) == (2, 0.0)


class TestCacheInsertBatch:
    def _items(self, rng, n, size_bytes=100):
        return [(vec_descriptor(rng), f"result{i}", size_bytes)
                for i in range(n)]

    def test_matches_sequential_semantics(self):
        rng = np.random.default_rng(7)
        items = self._items(rng, 20)
        batched = ICCache(capacity_bytes=10_000)
        entries = batched.insert_batch(items, now=1.0)
        sequential = ICCache(capacity_bytes=10_000)
        for descriptor, result, size in items:
            sequential.insert(descriptor, result, size, now=1.0)

        assert len(batched) == len(sequential) == 20
        assert batched.size_bytes == sequential.size_bytes
        assert batched.stats.insertions == sequential.stats.insertions == 20
        assert all(e is not None for e in entries)
        for descriptor, result, _ in items:
            hit = batched.lookup(descriptor, now=1.0, threshold=1e-5)
            assert hit is not None and hit.result == result

    def test_eviction_mid_batch(self):
        rng = np.random.default_rng(8)
        cache = ICCache(capacity_bytes=1_000)
        entries = cache.insert_batch(self._items(rng, 15, size_bytes=100))
        assert all(e is not None for e in entries)
        # 15 x 100 B into 1000 B: five evictions, accounting intact.
        assert len(cache) == 10
        assert cache.size_bytes == 1_000
        assert cache.stats.evictions == 5
        # Survivors are the newest ten under LRU.
        live = {e.result for e in cache.entries()}
        assert live == {f"result{i}" for i in range(5, 15)}

    def test_oversize_rejected_in_place(self):
        rng = np.random.default_rng(9)
        cache = ICCache(capacity_bytes=500)
        items = [(vec_descriptor(rng), "small", 100),
                 (vec_descriptor(rng), "huge", 501),
                 (vec_descriptor(rng), "small2", 100)]
        entries = cache.insert_batch(items)
        assert entries[0] is not None and entries[2] is not None
        assert entries[1] is None
        assert cache.stats.rejected == 1
        assert len(cache) == 2

    def test_mixed_kinds_share_one_batch(self):
        rng = np.random.default_rng(10)
        cache = ICCache(capacity_bytes=10_000)
        items = [
            (vec_descriptor(rng), "vec0", 100),
            (HashDescriptor(kind="model_load", digest="aa"), "model", 200),
            (vec_descriptor(rng), "vec1", 100),
            (HashDescriptor(kind="panorama", digest="bb"), "pano", 300),
        ]
        entries = cache.insert_batch(items)
        assert all(e is not None for e in entries)
        assert len(cache) == 4
        hit = cache.lookup(HashDescriptor(kind="model_load", digest="aa"))
        assert hit is not None and hit.result == "model"

    def test_negative_size_raises(self):
        rng = np.random.default_rng(11)
        cache = ICCache(capacity_bytes=500)
        with pytest.raises(ValueError):
            cache.insert_batch([(vec_descriptor(rng), "x", -1)])

    def test_index_failure_rolls_back_pending_entries(self):
        rng = np.random.default_rng(12)
        cache = ICCache(capacity_bytes=10_000)
        good = vec_descriptor(rng)
        cache.insert(good, "seed", 100)
        bad = VectorDescriptor(kind="recognition",
                               vector=rng.normal(size=DIM + 1))
        with pytest.raises(ValueError):
            cache.insert_batch([(vec_descriptor(rng), "pending", 100),
                                (bad, "bad", 100)])
        # The failed burst left no stranded entries: bookkeeping and
        # index agree, lookups and eviction still work.
        assert len(cache) == 1
        assert cache.size_bytes == 100
        assert cache.stats.insertions == 1
        assert cache.lookup(good, threshold=1e-5).result == "seed"
        refill = [(vec_descriptor(rng), f"r{i}", 100) for i in range(120)]
        assert all(e is not None for e in cache.insert_batch(refill))
        assert cache.size_bytes <= 10_000
