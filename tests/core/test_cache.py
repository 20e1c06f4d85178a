"""Unit tests for repro.core.cache (the edge IC cache)."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.cache import ICCache
from repro.core.descriptors import HashDescriptor, VectorDescriptor
from repro.core.policies import make_policy


def hd(digest, kind="model_load"):
    return HashDescriptor(kind, digest)


def vd(values, kind="recognition"):
    return VectorDescriptor(kind, np.asarray(values, dtype=np.float32))


class TestBasicOperations:
    def test_insert_lookup_hash(self):
        cache = ICCache(capacity_bytes=1000)
        cache.insert(hd("aa"), result="model-A", size_bytes=100)
        entry = cache.lookup(hd("aa"))
        assert entry is not None and entry.result == "model-A"
        assert cache.lookup(hd("bb")) is None

    def test_insert_lookup_vector_threshold(self):
        cache = ICCache(capacity_bytes=1000, default_threshold=0.1)
        cache.insert(vd([1, 0, 0]), result="obj", size_bytes=10)
        assert cache.lookup(vd([0.99, 0.05, 0])) is not None
        assert cache.lookup(vd([0, 1, 0])) is None

    def test_explicit_threshold_overrides_default(self):
        cache = ICCache(capacity_bytes=1000, default_threshold=0.0)
        cache.insert(vd([1, 0]), result="x", size_bytes=10)
        assert cache.lookup(vd([0.9, 0.1])) is None
        assert cache.lookup(vd([0.9, 0.1]), threshold=0.5) is not None

    def test_kind_namespaces_isolated(self):
        cache = ICCache(capacity_bytes=1000)
        cache.insert(hd("aa", kind="model_load"), "model", 10)
        assert cache.lookup(hd("aa", kind="panorama")) is None

    def test_hit_updates_entry_state(self):
        cache = ICCache(capacity_bytes=1000)
        cache.insert(hd("aa"), "x", 10, now=1.0)
        entry = cache.lookup(hd("aa"), now=5.0)
        assert entry.hits == 1
        assert entry.last_access == 5.0

    def test_stats_track_everything(self):
        cache = ICCache(capacity_bytes=1000)
        cache.insert(hd("aa"), "x", 10)
        cache.lookup(hd("aa"))
        cache.lookup(hd("ff"))
        stats = cache.stats
        assert (stats.insertions, stats.hits, stats.misses) == (1, 1, 1)
        assert stats.hit_ratio == 0.5

    def test_remove(self):
        cache = ICCache(capacity_bytes=1000)
        entry = cache.insert(hd("aa"), "x", 10)
        cache.remove(entry)
        assert cache.lookup(hd("aa")) is None
        with pytest.raises(KeyError):
            cache.remove(entry)

    def test_clear_preserves_stats(self):
        cache = ICCache(capacity_bytes=1000)
        cache.insert(hd("aa"), "x", 10)
        cache.lookup(hd("aa"))
        cache.clear()
        assert len(cache) == 0 and cache.size_bytes == 0
        assert cache.stats.hits == 1


class TestCapacity:
    def test_never_exceeds_capacity(self):
        cache = ICCache(capacity_bytes=250)
        for i in range(10):
            cache.insert(hd(f"{i:x}"), i, size_bytes=100)
            assert cache.size_bytes <= 250
        assert cache.stats.evictions > 0

    def test_eviction_is_lru_by_default(self):
        cache = ICCache(capacity_bytes=200)
        cache.insert(hd("aa"), "a", 100, now=0)
        cache.insert(hd("bb"), "b", 100, now=1)
        cache.lookup(hd("aa"), now=2)       # refresh aa
        cache.insert(hd("cc"), "c", 100, now=3)  # evicts bb
        assert cache.lookup(hd("aa"), now=4) is not None
        assert cache.lookup(hd("bb"), now=4) is None

    def test_oversized_entry_rejected(self):
        cache = ICCache(capacity_bytes=100)
        assert cache.insert(hd("aa"), "x", size_bytes=500) is None
        assert cache.stats.rejected == 1
        assert len(cache) == 0

    def test_eviction_removes_from_index(self):
        cache = ICCache(capacity_bytes=100)
        cache.insert(hd("aa"), "a", 100)
        cache.insert(hd("bb"), "b", 100)  # evicts aa
        assert cache.lookup(hd("aa")) is None
        assert cache.lookup(hd("bb")) is not None

    def test_policy_plugging(self):
        cache = ICCache(capacity_bytes=200, policy=make_policy("size"))
        cache.insert(hd("a1"), "s", 50)
        cache.insert(hd("b2"), "l", 150)
        cache.insert(hd("c3"), "n", 100)  # must evict the 150-byte one
        assert cache.lookup(hd("a1")) is not None
        assert cache.lookup(hd("b2")) is None


class TestValidation:
    def test_validation(self):
        with pytest.raises(ValueError):
            ICCache(capacity_bytes=0)

    @pytest.mark.parametrize("call", [
        lambda: ICCache(capacity_bytes=1000, ttl_s=5.0),
        lambda: ICCache(capacity_bytes=1000).hottest(1, now=0.0),
    ], ids=["ICCache-ttl_s", "hottest-now"])
    def test_the_removed_expiry_arguments_are_refused(self, call):
        with pytest.raises(TypeError):
            call()

    def test_an_entry_never_expires(self):
        cache = ICCache(capacity_bytes=1000)
        cache.insert(hd("aa"), "x", 10, now=0.0)
        assert cache.lookup(hd("aa"), now=1e12) is not None


class TestLookupCost:
    def test_cost_for_unknown_kind_is_probe(self):
        cache = ICCache(capacity_bytes=100)
        assert cache.lookup_cost_s("recognition") > 0

    def test_vector_cost_grows(self):
        cache = ICCache(capacity_bytes=10_000_000)
        cache.insert(vd([1.0, 0.0]), "x", 10)
        small = cache.lookup_cost_s("recognition")
        for i in range(500):
            cache.insert(vd([float(i), 1.0]), i, 10)
        assert cache.lookup_cost_s("recognition") > small

    def test_lsh_index_spec_used_for_vectors(self):
        cache = ICCache(capacity_bytes=10_000, vector_index="lsh:4:8")
        cache.insert(vd([1, 0, 0, 0, 0, 0, 0, 0]), "x", 10)
        from repro.core.index import LshIndex

        assert isinstance(cache.index_for("recognition"), LshIndex)

    @pytest.mark.parametrize("spec", ["linear", "lsh"])
    def test_each_kind_indexed_at_its_own_dimension(self, spec):
        # Recognition descriptors are 128-d, layer-reuse keys are 32-d
        # input sketches: every tier builds each kind's index at the
        # dimension of that kind's descriptors.
        rng = np.random.default_rng(3)
        cache = ICCache(capacity_bytes=100, vector_index=spec,
                        default_threshold=1e-3)
        rows = {"recognition": rng.normal(size=(5, 128)),
                "layer:conv3": rng.normal(size=(5, 32))}
        for i in range(5):
            for kind, block in rows.items():
                cache.insert(vd(block[i], kind=kind), (kind, i), 10)
        # Ten 10-byte entries fill the cache; the next two inserts
        # evict the oldest entry of each kind (LRU).
        for kind, block in rows.items():
            hit = cache.lookup(vd(block[4], kind=kind))
            assert hit is not None and hit.result == (kind, 4)
        cache.insert(vd(rng.normal(size=128)), "new", 10)
        cache.insert(vd(rng.normal(size=32), kind="layer:conv3"), "new", 10)
        assert cache.stats.evictions == 2
        for kind, block in rows.items():
            assert cache.lookup(vd(block[0], kind=kind)) is None
            assert len(cache.index_for(kind)) == 5


class TestLookupBatch:
    """lookup_batch is ``[lookup(d) ...]``: concrete answers and stats."""

    def test_mixed_kinds_one_call(self):
        cache = ICCache(capacity_bytes=10_000)
        cache.insert(vd([1, 0]), "vec-obj", 10)
        cache.insert(hd("aa"), "hash-obj", 10)
        got = cache.lookup_batch(
            [hd("aa"), vd([0.99, 0.01]), hd("bb"), vd([0, 1])])
        assert [e and e.result for e in got] == \
            ["hash-obj", "vec-obj", None, None]
        assert (cache.stats.hits, cache.stats.misses) == (2, 2)

    def test_unknown_kind_is_miss(self):
        cache = ICCache(capacity_bytes=1000)
        assert cache.lookup_batch([vd([1, 0])]) == [None]
        assert cache.stats.misses == 1

    def test_empty_batch(self):
        cache = ICCache(capacity_bytes=1000)
        assert cache.lookup_batch([]) == []
        assert cache.stats.lookups == 0

    def test_threshold_override(self):
        cache = ICCache(capacity_bytes=1000, default_threshold=0.0)
        cache.insert(vd([1, 0]), "x", 10)
        assert cache.lookup_batch([vd([0.9, 0.1])]) == [None]
        got = cache.lookup_batch([vd([0.9, 0.1])], threshold=0.5)
        assert got[0] is not None


class TestPerItemThresholds:
    """lookup_batch accepts one threshold per descriptor."""

    def test_thresholds_apply_per_item(self):
        cache = ICCache(capacity_bytes=1000, default_threshold=0.0)
        cache.insert(vd([1, 0]), "x", 10)
        probe = [0.9, 0.1]
        got = cache.lookup_batch([vd(probe), vd(probe)],
                                 thresholds=[0.0, 0.5])
        assert got[0] is None and got[1] is not None

    def test_none_threshold_falls_back_to_default(self):
        cache = ICCache(capacity_bytes=1000, default_threshold=0.5)
        cache.insert(vd([1, 0]), "x", 10)
        got = cache.lookup_batch([vd([0.9, 0.1])], thresholds=[None])
        assert got[0] is not None

    def test_thresholds_length_validated(self):
        cache = ICCache(capacity_bytes=1000)
        with pytest.raises(ValueError):
            cache.lookup_batch([vd([1, 0])], thresholds=[0.1, 0.2])

    def test_matches_sequential_per_threshold(self):
        """The one ``lookup_batch == [lookup ...]`` case: mixed kinds and
        per-item thresholds."""
        batched = ICCache(capacity_bytes=10_000, default_threshold=0.0)
        sequential = ICCache(capacity_bytes=10_000, default_threshold=0.0)
        for cache in (batched, sequential):
            cache.insert(vd([1, 0, 0]), "a", 10, now=0.0)
            cache.insert(vd([0, 1, 0], kind="pano"), "b", 10, now=8.0)
            cache.insert(hd("aa"), "model", 10, now=8.0)
        probes = [vd([0.9, 0.1, 0]), vd([0.1, 0.9, 0], kind="pano"),
                  hd("aa"), vd([1, 0, 0]), hd("bb")]
        thresholds = [0.5, 0.5, None, 0.001, None]
        got = batched.lookup_batch(probes, now=10.0, thresholds=thresholds)
        want = [sequential.lookup(p, now=10.0, threshold=t)
                for p, t in zip(probes, thresholds)]
        assert [e and e.result for e in got] == \
            [e and e.result for e in want] == ["a", "b", "model", "a", None]
        assert batched.stats == sequential.stats


class TestStorageTiers:
    def test_vector_dtype_validated(self):
        with pytest.raises(ValueError):
            ICCache(capacity_bytes=1000, vector_dtype="float16")
        with pytest.raises(ValueError):
            ICCache(capacity_bytes=1000, vector_dtype="int8")

    def test_index_memory_bytes_sums_per_kind_stores(self):
        cache = ICCache(capacity_bytes=100_000)
        for i in range(32):
            cache.insert(vd([1, 0, 0, i], kind="recognition"), "a", 10)
        for i in range(100):
            cache.insert(vd([0, 1, 0, i], kind="pano"), "b", 10)
        # Two same-dimension kinds, two dedicated stores (different
        # capacities after growth): the cache reports their sum.
        per_kind = [cache.index_for("recognition").memory_bytes(),
                    cache.index_for("pano").memory_bytes()]
        assert 0 < per_kind[0] < per_kind[1]
        assert cache.index_memory_bytes() == sum(per_kind)

    def test_float64_cache_memory_doubles_float32(self):
        def filled(dtype):
            cache = ICCache(capacity_bytes=1_000_000, vector_dtype=dtype)
            rng = np.random.default_rng(0)
            for i in range(200):
                cache.insert(vd(rng.normal(size=64)), i, 10)
            return cache.index_memory_bytes()

        assert filled("float32") <= 0.55 * filled("float64")


class TestOneCopy:
    """A cached vector is kept once, in its kind's row store: the entry
    keeps the kind and :meth:`ICCache.descriptor` reads the key back."""

    def test_a_128d_entry_retains_under_two_float32_rows(self):
        n, dim = 8192, 128
        source = np.random.default_rng(3).normal(size=(n, dim))
        cache = ICCache(capacity_bytes=10 * n)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for row in source:
                cache.insert(VectorDescriptor("recognition", row), None, 10)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cache) == n
        # 512 B of float32 row, its norm, the entry and the cache's
        # per-entry bookkeeping; a second copy of the row (a kept
        # descriptor) alone would cross the bound.
        assert retained / n < 2 * dim * 4

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_descriptor_reads_the_key_back(self, dtype):
        cache = ICCache(capacity_bytes=1000, vector_dtype=dtype)
        vector = np.array([1 / 3, -0.0, 1e-40, 7.5e15])
        stored = cache.insert(vd(vector), "v", 10)
        hashed = cache.insert(hd("ab12"), "h", 10)
        got = cache.descriptor(stored)
        assert got == vd(vector) and got.vector.dtype == np.float32
        assert got.vector.tobytes() == vd(vector).vector.tobytes()
        assert cache.descriptor(hashed) == hd("ab12")
        # A rebuilt key is a copy: the store's row does not move with it.
        got.vector[0] = 5.0
        assert cache.descriptor(stored) == vd(vector)

    def test_an_index_never_filled_holds_nothing(self):
        cache = ICCache(capacity_bytes=1000)
        source = ICCache(capacity_bytes=1000)
        pushed = [source.insert(vd([1, 0]), "v", 10)]
        # The burst is refused after its kind's index was made.
        with pytest.raises(ValueError):
            cache.insert_batch([(vd([1, 0]), "v", 10),
                                (vd([1, 0, 0]), "w", 10)])
        assert len(cache) == 0
        assert cache.missing(source, pushed) == pushed

    def test_an_entry_keeps_no_descriptor(self):
        entry = ICCache(capacity_bytes=1000).insert(vd([1, 0]), "v", 10)
        assert entry.kind == "recognition"
        assert not hasattr(entry, "descriptor")
        assert not hasattr(entry, "__dict__")


def key_of(cache: ICCache, entry) -> tuple:
    """``(kind, digest)`` or ``(kind, float32 vector bytes)``."""
    descriptor = cache.descriptor(entry)
    if isinstance(descriptor, HashDescriptor):
        return descriptor.kind, descriptor.digest
    return descriptor.kind, descriptor.vector.tobytes()


class TestMissing:
    """``missing`` checks only the pushed entries, and ships exactly
    what the rule it replaced shipped: the entries whose key is not in
    the set of every key the destination holds."""

    @staticmethod
    def key_set_rule(source, destination, entries):
        have = {key_of(destination, e) for e in destination.entries()}
        return [e for e in entries if key_of(source, e) not in have]

    @staticmethod
    def filled_pair(seed, **cache_kwargs):
        """Two caches over one pool of hashes and vectors, with
        duplicates and drops."""
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(24, 6)) * 10.0 ** rng.integers(
            -15, 15, size=(24, 1))
        vectors[rng.random(vectors.shape) < 0.1] = -0.0
        vectors[rng.random(vectors.shape) < 0.05] = 0.0
        kinds = ("recognition", "layer:conv1")
        source, destination = (
            ICCache(capacity_bytes=10**6, **cache_kwargs)
            for _ in range(2))
        for cache in (source, destination):
            for _ in range(80):
                if rng.random() < 0.4:
                    # Few digests: duplicates in one cache are common.
                    cache.insert(hd(f"{rng.integers(12):x}"), None, 1)
                else:
                    cache.insert(vd(vectors[rng.integers(24)],
                                    kind=kinds[rng.integers(2)]), None, 1)
            # Dropping the newer of two same-digest entries makes the
            # exact index's digest table forget an entry that stays.
            for entry in cache.entries():
                if rng.random() < 0.3:
                    cache.remove(entry)
        entries = source.entries()
        rng.shuffle(entries)
        return source, destination, entries

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("seed", range(6))
    def test_ships_what_the_key_set_rule_ships(self, dtype, seed):
        source, destination, entries = self.filled_pair(
            seed, vector_dtype=dtype)
        want = self.key_set_rule(source, destination, entries)
        assert destination.missing(source, entries) == want
        assert 0 < len(want) < len(entries)

    @pytest.mark.parametrize("seed", range(4))
    def test_ships_what_the_key_set_rule_ships_between_lsh_caches(self,
                                                                  seed):
        source, destination, entries = self.filled_pair(
            seed, vector_index="lsh:4:6")
        want = self.key_set_rule(source, destination, entries)
        assert destination.missing(source, entries) == want
        assert 0 < len(want) < len(entries)

    def test_an_older_duplicate_digest_still_counts(self):
        source, destination = (ICCache(capacity_bytes=1000)
                               for _ in range(2))
        destination.insert(hd("aa"), "old", 10)
        destination.remove(destination.insert(hd("aa"), "new", 10))
        pushed = [source.insert(hd("aa"), "x", 10),
                  source.insert(hd("bb"), "y", 10)]
        assert destination.missing(source, pushed) == pushed[1:]

    def test_a_kind_the_destination_lacks_is_missing(self):
        source = ICCache(capacity_bytes=1000)
        pushed = [source.insert(vd([1, 0]), "v", 10),
                  source.insert(hd("aa"), "h", 10)]
        assert ICCache(capacity_bytes=1000).missing(source, pushed) == pushed
