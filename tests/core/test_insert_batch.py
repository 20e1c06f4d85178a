"""Tests for ``ICCache.insert_batch``: a burst stored through ``insert``.

Contract: ``insert_batch`` produces the same observable state as the
equivalent sequence of ``insert`` calls — same entries, same match
decisions, same stats and eviction order — and a burst that raises
leaves none of its own entries behind.
"""

import numpy as np
import pytest

from repro.core.cache import ICCache
from repro.core.descriptors import HashDescriptor, VectorDescriptor

DIM = 16


def vec_descriptor(rng, kind="recognition"):
    return VectorDescriptor(kind=kind, vector=rng.normal(size=DIM))


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


def test_an_empty_burst_changes_nothing():
    rng = np.random.default_rng(12)
    cache = ICCache(capacity_bytes=1_000)
    cache.insert(vec_descriptor(rng), "seed", 100)
    assert cache.insert_batch([]) == []
    assert len(cache) == 1 and cache.size_bytes == 100
    assert cache.stats.insertions == 1 and cache.stats.evictions == 0
