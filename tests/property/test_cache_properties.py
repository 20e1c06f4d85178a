"""Property-based tests for the IC cache invariants.

The cache is the structure everything else trusts; hypothesis drives it
with arbitrary operation sequences and checks the invariants that must
hold for *any* workload and policy:

* stored bytes never exceed capacity;
* stored bytes always equal the sum of live entry sizes;
* hits + misses == lookups;
* a hash descriptor lookup returns an entry with that digest or nothing;
* a digest is found exactly while some live entry holds it, and then
  resolves to the newest such entry.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.cache import ICCache
from repro.core.descriptors import HashDescriptor
from repro.core.index import ExactIndex
from repro.core.policies import make_policy

POLICIES = ("lru", "lfu", "fifo", "size", "gdsf")

# An operation is (op, digest_index, size) with op in insert/lookup.
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "lookup"]),
              st.integers(min_value=0, max_value=15),
              st.integers(min_value=1, max_value=400)),
    min_size=1, max_size=80)


def digest(i: int) -> str:
    return f"{i:04x}"


@given(ops=operations, policy=st.sampled_from(POLICIES),
       capacity=st.integers(min_value=400, max_value=2000))
@settings(max_examples=60, deadline=None)
def test_capacity_and_accounting_invariants(ops, policy, capacity):
    cache = ICCache(capacity_bytes=capacity, policy=make_policy(policy))
    clock = 0.0
    for op, idx, size in ops:
        clock += 1.0
        if op == "insert":
            cache.insert(HashDescriptor("m", digest(idx)), result=idx,
                         size_bytes=size, now=clock)
        else:
            entry = cache.lookup(HashDescriptor("m", digest(idx)),
                                 now=clock)
            if entry is not None:
                assert cache.descriptor(entry).digest == digest(idx)
        # Core invariants after every operation:
        assert cache.size_bytes <= capacity
        assert cache.size_bytes == sum(e.size_bytes
                                       for e in cache.entries())
        assert cache.size_bytes >= 0
    stats = cache.stats
    assert stats.hits + stats.misses == stats.lookups
    assert len(cache) <= stats.insertions


@given(ops=operations)
@settings(max_examples=30, deadline=None)
def test_lru_eviction_never_removes_most_recent(ops):
    """Immediately after any insert, that entry must still be present."""
    cache = ICCache(capacity_bytes=1000)
    clock = 0.0
    for op, idx, size in ops:
        clock += 1.0
        if op == "insert" and size <= 1000:
            entry = cache.insert(HashDescriptor("m", digest(idx)),
                                 result=idx, size_bytes=size, now=clock)
            if entry is not None:
                found = cache.lookup(HashDescriptor("m", digest(idx)),
                                     now=clock)
                assert found is not None


@given(sizes=st.lists(st.integers(min_value=1, max_value=100),
                      min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_clear_always_empties(sizes):
    cache = ICCache(capacity_bytes=10_000)
    for i, size in enumerate(sizes):
        cache.insert(HashDescriptor("m", digest(i % 16)), i, size)
    cache.clear()
    assert len(cache) == 0
    assert cache.size_bytes == 0


# An index operation is (insert?, digest_index, pick): an insert adds a
# fresh entry under the digest, a remove drops the live entry ``pick``
# lands on.
index_operations = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=1000)),
    min_size=1, max_size=60)


@given(ops=index_operations)
@settings(max_examples=100, deadline=None)
def test_a_digest_is_found_exactly_while_a_live_entry_holds_it(ops):
    index = ExactIndex()
    live: dict[int, str] = {}          # entry id -> digest, oldest first
    next_id = 0
    for insert, idx, pick in ops:
        if insert or not live:
            index.insert(next_id, HashDescriptor("m", digest(idx)))
            live[next_id] = digest(idx)
            next_id += 1
        else:
            gone = list(live)[pick % len(live)]
            index.remove(gone)
            del live[gone]
        for i in range(4):
            holders = [e for e, d in live.items() if d == digest(i)]
            found = index.query(HashDescriptor("m", digest(i)), 0.0)
            assert index.holds(digest(i)) == bool(holders)
            assert found == ((holders[-1], 0.0) if holders else None)
        assert len(index) == len(live)
