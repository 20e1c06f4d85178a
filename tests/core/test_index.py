"""Unit tests for repro.core.index."""

import copy

import numpy as np
import pytest

from repro.core.descriptors import HashDescriptor, VectorDescriptor
from repro.core.index import (
    ExactIndex,
    IndexEntryExists,
    LinearIndex,
    LshIndex,
    make_index,
)


def vec(kind, values):
    return VectorDescriptor(kind, np.asarray(values, dtype=np.float32))


class TestExactIndex:
    def test_insert_query_remove(self):
        index = ExactIndex()
        d = HashDescriptor("m", "aa11")
        index.insert(1, d)
        assert index.query(d, threshold=0.0) == (1, 0.0)
        index.remove(1)
        assert index.query(d, threshold=0.0) is None
        assert len(index) == 0

    def test_duplicate_entry_id_rejected(self):
        index = ExactIndex()
        index.insert(1, HashDescriptor("m", "aa"))
        with pytest.raises(IndexEntryExists):
            index.insert(1, HashDescriptor("m", "bb"))

    def test_duplicate_digest_last_wins(self):
        index = ExactIndex()
        d = HashDescriptor("m", "cc")
        index.insert(1, d)
        index.insert(2, d)
        assert index.query(d, 0.0) == (2, 0.0)
        # Removing the superseded entry must not disturb the winner.
        index.remove(1)
        assert index.query(d, 0.0) == (2, 0.0)

    def test_removing_the_newest_hands_the_digest_to_the_next_newest(self):
        index = ExactIndex()
        d = HashDescriptor("m", "aa")
        for entry_id in (1, 2, 3):
            index.insert(entry_id, d)
        index.remove(3)
        assert index.query(d, 0.0) == (2, 0.0)
        index.remove(1)
        assert index.query(d, 0.0) == (2, 0.0) and index.holds("aa")
        index.remove(2)
        assert index.query(d, 0.0) is None and not index.holds("aa")
        assert len(index) == 0 and not index._older

    def test_cache_finds_an_older_entry_once_the_newer_leaves(self):
        from repro.core.cache import ICCache

        cache = ICCache(capacity_bytes=100)
        key = HashDescriptor("m", "aa")
        older = cache.insert(key, result="old", size_bytes=10)
        newer = cache.insert(key, result="new", size_bytes=10)
        cache.remove(newer)
        assert cache.lookup(key) is older
        assert cache.size_bytes == 10

    def test_type_checked(self):
        index = ExactIndex()
        with pytest.raises(TypeError):
            index.insert(1, vec("m", [1.0]))

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            ExactIndex().remove(5)

    def test_constant_lookup_cost(self):
        index = ExactIndex()
        cost_empty = index.lookup_cost_s()
        for i in range(100):
            index.insert(i, HashDescriptor("m", f"{i:x}"))
        assert index.lookup_cost_s() == cost_empty


class TestLinearIndex:
    def test_nearest_within_threshold(self):
        index = LinearIndex()
        index.insert(1, vec("r", [1, 0, 0]))
        index.insert(2, vec("r", [0, 1, 0]))
        hit = index.query(vec("r", [0.9, 0.1, 0]), threshold=0.2)
        assert hit is not None and hit[0] == 1

    def test_miss_outside_threshold(self):
        index = LinearIndex()
        index.insert(1, vec("r", [1, 0, 0]))
        assert index.query(vec("r", [0, 1, 0]), threshold=0.5) is None

    def test_returns_best_not_first(self):
        index = LinearIndex()
        index.insert(1, vec("r", [0.7, 0.7, 0]))
        index.insert(2, vec("r", [1, 0, 0]))
        hit = index.query(vec("r", [0.99, 0.05, 0]), threshold=1.0)
        assert hit[0] == 2

    def test_empty_query(self):
        assert LinearIndex().query(vec("r", [1, 0]), 1.0) is None

    def test_dimension_mismatch(self):
        index = LinearIndex()
        index.insert(1, vec("r", [1, 0, 0]))
        with pytest.raises(ValueError):
            index.insert(2, vec("r", [1, 0]))
        with pytest.raises(ValueError):
            index.query(vec("r", [1, 0]), 1.0)

    def test_remove_rebuilds_scan(self):
        index = LinearIndex()
        index.insert(1, vec("r", [1, 0]))
        index.insert(2, vec("r", [0, 1]))
        index.query(vec("r", [1, 0]), 1.0)  # builds the matrix
        index.remove(1)
        hit = index.query(vec("r", [1, 0]), threshold=2.0)
        assert hit[0] == 2

    def test_cost_grows_with_occupancy(self):
        index = LinearIndex()
        empty_cost = index.lookup_cost_s()
        for i in range(1000):
            index.insert(i, vec("r", [i, 1.0]))
        assert index.lookup_cost_s() > empty_cost


class TestLshIndex:
    @pytest.fixture
    def population(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(200, 64))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        return vectors

    def test_finds_near_duplicates(self, population):
        index = LshIndex(dim=64, n_tables=8, n_bits=10)
        for i, v in enumerate(population):
            index.insert(i, vec("r", v))
        rng = np.random.default_rng(4)
        found = 0
        for i in range(50):
            probe = population[i] + rng.normal(0, 0.02, size=64)
            hit = index.query(vec("r", probe), threshold=0.05)
            if hit is not None and hit[0] == i:
                found += 1
        assert found >= 45  # high recall on near-duplicates

    def test_respects_threshold(self, population):
        index = LshIndex(dim=64)
        index.insert(0, vec("r", population[0]))
        # A random unrelated vector must not match a tight threshold.
        assert index.query(vec("r", population[1]), threshold=0.05) is None

    def test_remove(self, population):
        index = LshIndex(dim=64)
        index.insert(0, vec("r", population[0]))
        index.remove(0)
        assert len(index) == 0
        assert index.query(vec("r", population[0]), 0.1) is None

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            LshIndex(dim=8).remove(1)

    def test_dimension_checked(self):
        index = LshIndex(dim=16)
        with pytest.raises(ValueError):
            index.insert(0, vec("r", np.ones(8)))

    def test_deterministic_planes(self, population):
        a = LshIndex(dim=64, seed=9)
        b = LshIndex(dim=64, seed=9)
        for i, v in enumerate(population[:20]):
            a.insert(i, vec("r", v))
            b.insert(i, vec("r", v))
        probe = vec("r", population[0])
        assert a.query(probe, 0.1) == b.query(probe, 0.1)


class TestMakeIndex:
    def test_specs(self):
        assert isinstance(make_index("exact"), ExactIndex)
        assert isinstance(make_index("linear"), LinearIndex)
        assert isinstance(make_index("lsh", dim=32), LshIndex)
        custom = make_index("lsh:4:6", dim=32)
        assert custom.n_tables == 4 and custom.n_bits == 6

    def test_dtype_passthrough(self):
        assert make_index("linear",
                          dtype="float64")._store.dtype == "float64"
        assert make_index("lsh", dim=32,
                          dtype="float64")._store.dtype == "float64"
        assert make_index("lsh", dim=32,
                          dtype="float32")._store.dtype == "float32"

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            make_index("btree")
        with pytest.raises(ValueError):
            make_index("lsh:4")
        for gone in ("ivf", "ivf:64", "ivf:64:4"):
            with pytest.raises(ValueError, match="unknown index spec"):
                make_index(gone, dim=32)


class TestContiguousStore:
    """Amortized growth and swap-compacted removal, via the public API."""

    def test_growth_beyond_initial_capacity(self):
        index = LinearIndex()
        rng = np.random.default_rng(5)
        population = rng.normal(size=(300, 8))
        for i, v in enumerate(population):
            index.insert(i, vec("r", v))
        assert len(index) == 300
        # Every stored vector is still retrievable post-doubling.  The
        # self-match distance floor is dtype-bound: ~1e-16 for float64
        # storage, ~1e-7 for the default float32.
        for i in (0, 63, 64, 150, 299):
            hit = index.query(vec("r", population[i]), threshold=1e-5)
            assert hit is not None and hit[1] <= 1e-5

    def test_remove_reuses_slots(self):
        index = LinearIndex()
        rng = np.random.default_rng(6)
        population = rng.normal(size=(100, 8))
        for i, v in enumerate(population):
            index.insert(i, vec("r", v))
        for i in range(0, 100, 2):
            index.remove(i)
        assert len(index) == 50
        fresh = rng.normal(size=(50, 8))
        for i, v in enumerate(fresh):
            index.insert(1000 + i, vec("r", v))
        assert len(index) == 100
        for i in range(1, 100, 2):  # odd survivors still found
            hit = index.query(vec("r", population[i]), threshold=1e-5)
            assert hit is not None
        for i, v in enumerate(fresh):  # and so are the reinserts
            hit = index.query(vec("r", v), threshold=1e-5)
            assert hit is not None

    BUILDERS = {
        "linear": lambda dtype: LinearIndex(dtype=dtype),
        "lsh": lambda dtype: LshIndex(dim=8, n_tables=4, n_bits=4,
                                      dtype=dtype),
    }

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("tier", ["linear", "lsh"])
    def test_lsh_store_survives_churn(self, tier, dtype):
        """Interleaved inserts and removes leave every tier and store
        indistinguishable from an index built in one go."""
        rng = np.random.default_rng(7)
        population = rng.normal(size=(200, 8))
        live: dict[int, np.ndarray] = {}

        def insert(index, ids_rows):
            live.update(ids_rows)
            for i, row in ids_rows:
                index.insert(i, vec("r", row))

        index = self.BUILDERS[tier](dtype)
        insert(index, [(i, population[i]) for i in range(80)])  # 64 -> 128
        insert(index, [(i, population[i]) for i in range(80, 150)])  # -> 256
        for i in range(0, 150, 3):                # swap-compaction
            index.remove(i)
            del live[i]
        # Removed vectors come back under new ids, in freed slots.
        insert(index, [(1000 + i, population[i]) for i in range(0, 60, 3)])
        insert(index, [(i, population[i]) for i in range(150, 200)])
        for i in range(151, 200, 2):
            index.remove(i)
            del live[i]

        fresh = self.BUILDERS[tier](dtype)
        for i, row in live.items():
            fresh.insert(i, vec("r", row))
        assert len(index) == len(fresh) == len(live)
        for i, row in enumerate(population):
            got = index.query(vec("r", row), threshold=1e-3)
            want = fresh.query(vec("r", row), threshold=1e-3)
            # Membership: a live vector answers with its (latest) id, a
            # removed one finds nothing that close.
            owners = [k for k in (i, 1000 + i) if k in live]
            assert (got is not None) == bool(owners)
            assert (got is None) == (want is None)
            if got is not None:
                assert got[0] == want[0] == owners[-1]
                assert got[1] == pytest.approx(want[1], abs=1e-6)


class TestVectorIndexInsert:
    """``insert`` is the only way into a vector index: growth, refusal
    and removal as a warm-up flood or a pre-warm push meets them."""

    BUILDERS = TestContiguousStore.BUILDERS

    @pytest.mark.parametrize("tier", ["linear", "lsh"])
    def test_growth_across_doubling_boundary(self, tier):
        rng = np.random.default_rng(1)
        index = self.BUILDERS[tier]("float32")
        for i in range(70):  # MIN_CAPACITY is 64: one doubling
            index.insert(i, vec("r", rng.normal(size=8)))
        assert len(index._store._norms) == 128
        for i in range(70, 140):  # and across the next boundary
            index.insert(i, vec("r", rng.normal(size=8)))
        assert len(index) == 140 and len(index._store._norms) == 256
        probe = vec("r", rng.normal(size=8))
        index.insert(999, probe)
        assert index.query(probe, 1e-5)[0] == 999

    @pytest.mark.parametrize("tier", ["linear", "lsh"])
    def test_duplicate_id_refused_with_store_unchanged(self, tier):
        rng = np.random.default_rng(2)
        index = self.BUILDERS[tier]("float32")
        kept = vec("r", rng.normal(size=8))
        index.insert(7, kept)
        tables = copy.deepcopy(getattr(index, "_tables", None))
        refused = vec("r", rng.normal(size=8))
        with pytest.raises(IndexEntryExists):
            index.insert(7, refused)
        assert len(index) == 1
        assert np.array_equal(index.vector(7), kept.vector)
        assert getattr(index, "_tables", None) == tables
        assert index.query(refused, 1e-5) is None

    @pytest.mark.parametrize("tier", ["linear", "lsh"])
    def test_remove_after_inserts(self, tier):
        rng = np.random.default_rng(3)
        items = [(i, vec("r", rng.normal(size=8))) for i in range(10)]
        index = self.BUILDERS[tier]("float32")
        for entry_id, descriptor in items:
            index.insert(entry_id, descriptor)
        index.remove(3)
        assert len(index) == 9
        assert index.query(items[3][1], 1e-5) is None
        assert index.query(items[4][1], 1e-5)[0] == 4

    def test_lsh_remove_empties_its_buckets(self):
        rng = np.random.default_rng(5)
        items = [(i, vec("r", rng.normal(size=16))) for i in range(12)]
        index = LshIndex(dim=16)
        for entry_id, descriptor in items:
            index.insert(entry_id, descriptor)
        index.remove(0)
        assert len(index) == 11
        assert index.query(items[0][1], 1e-5) is None
        assert all(0 not in bucket
                   for table in index._tables for bucket in table.values())
        for entry_id, _ in items[1:]:
            index.remove(entry_id)
        assert index._tables == [{} for _ in range(index.n_tables)]


class TestLshCostModel:
    """Regression: lookup pricing must not depend on the previous query."""

    def test_first_lookup_is_not_undercharged(self):
        # Seed bug: cost was priced from the *previous* query's candidate
        # set, so the first lookup after construction charged zero
        # candidates regardless of occupancy.
        index = LshIndex(dim=8, n_tables=2, n_bits=4)
        rng = np.random.default_rng(8)
        for i in range(64):
            index.insert(i, vec("r", rng.normal(size=8)))
        floor = index.BASE_COST_S + index.PER_TABLE_COST_S * index.n_tables
        expected = 2 * 64 / 2 ** 4  # n_tables * n / buckets
        assert index.lookup_cost_s() == pytest.approx(
            floor + index.PER_CANDIDATE_COST_S * expected)
        assert index.lookup_cost_s() > floor

    def test_estimate_is_stateless_across_queries(self):
        index = LshIndex(dim=8, n_tables=4, n_bits=4)
        rng = np.random.default_rng(9)
        for i in range(50):
            index.insert(i, vec("r", rng.normal(size=8)))
        before = index.lookup_cost_s()
        index.query(vec("r", rng.normal(size=8)), threshold=0.5)
        assert index.lookup_cost_s() == before

    def test_query_records_its_own_cost_atomically(self):
        index = LshIndex(dim=8, n_tables=4, n_bits=4)
        rng = np.random.default_rng(10)
        for i in range(50):
            index.insert(i, vec("r", rng.normal(size=8)))
        assert index.last_query_cost_s is None
        index.query(vec("r", rng.normal(size=8)), threshold=0.5)
        assert index.last_query_cost_s == pytest.approx(
            index.BASE_COST_S
            + index.PER_TABLE_COST_S * index.n_tables
            + index.PER_CANDIDATE_COST_S * index.last_candidates)

    def test_expected_candidates_capped_at_occupancy(self):
        index = LshIndex(dim=4, n_tables=8, n_bits=1)  # 2 buckets/table
        rng = np.random.default_rng(11)
        for i in range(10):
            index.insert(i, vec("r", rng.normal(size=4)))
        # Uniform estimate would be 8 * 10 / 2 = 40 > occupancy.
        assert index.lookup_cost_s() <= index._price(10.0)

    def test_n_bits_capped_for_int64_signatures(self):
        with pytest.raises(ValueError):
            LshIndex(dim=4, n_bits=63)


class TestMemoryFootprint:
    """The default store really is float32-sized — a silent regression
    back to float64 storage doubles edge memory and must fail CI."""

    DIM = 64

    def _filled(self, dtype=None):
        index = LinearIndex() if dtype is None else LinearIndex(dtype=dtype)
        rng = np.random.default_rng(11)
        for i in range(512):
            index.insert(i, VectorDescriptor("r", rng.normal(size=self.DIM)))
        return index

    def test_default_store_is_half_of_float64(self):
        default = self._filled()
        compat = self._filled(dtype="float64")
        assert default._store.compute_dtype == np.dtype(np.float32)
        # float32 matrix+norms are exactly half the float64 bytes; the
        # int32 tag column is shared overhead.  0.55 leaves headroom
        # for bookkeeping while any float64 regression (ratio ~1.0)
        # fails loudly.
        assert default.memory_bytes() <= 0.55 * compat.memory_bytes()
