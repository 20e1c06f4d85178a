"""Property: a cache entry's key reads back exactly from its index.

An :class:`~repro.core.cache.CacheEntry` keeps only its key's kind; the
vector lives once, in the kind's row store, and a digest in the exact
index.  For float32 and float64 caches, under any mix of single and
batched inserts, evictions, explicit removals, row-store growth (past
its 64-row start) and swap-compaction, :meth:`ICCache.descriptor` of
every live entry equals the descriptor it was inserted with, byte for
byte (kind and ``vector.tobytes()``; a hash entry's digest), and each
kind's index ``holds`` exactly the keys of the live entries, of every
key ever inserted.  Vectors come
from float64 values, some of them float32-representable edge cases
(-0.0, subnormals, large magnitudes), so the descriptor's own float32
cast is exercised too.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.cache import ICCache
from repro.core.descriptors import HashDescriptor, VectorDescriptor

DIM = 6
VECTOR_KINDS = ("recognition", "pano")
HASH_KIND = "model_load"

#: float64 values a descriptor narrows, and float32 values it keeps.
values = st.one_of(
    st.floats(min_value=-1e15, max_value=1e15, allow_nan=False),
    st.floats(width=32, min_value=-2.0 ** 49, max_value=2.0 ** 49,
              allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e-45, -1.4e-45, 1e-40, 3.4e-38]))

vectors = st.lists(values, min_size=DIM, max_size=DIM).map(
    lambda xs: np.array(xs, dtype=np.float64))

keys = st.one_of(
    st.tuples(st.sampled_from(VECTOR_KINDS), vectors),
    st.tuples(st.just(HASH_KIND),
              st.integers(min_value=0, max_value=2 ** 64).map(
                  lambda i: f"{i:x}")))

#: Entry sizes small against the capacities below, so a kind's store
#: often passes its 64-row start and grows, and large inserts evict.
sizes = st.integers(min_value=1, max_value=12)

operations = st.lists(st.one_of(
    st.tuples(st.just("insert"), keys, sizes),
    st.tuples(st.just("batch"), st.integers(min_value=1, max_value=150),
              st.integers(min_value=0, max_value=2 ** 32 - 1)),
    st.tuples(st.just("remove"), st.integers(min_value=0)),
    st.tuples(st.just("summary"))), min_size=1, max_size=12)


def drawn_batch(n: int, seed: int) -> list[tuple]:
    """``n`` insert items drawn from ``seed``: mixed kinds, float64
    vectors over 45 decades with -0.0 and float32 subnormals strewn in,
    sizes as :data:`sizes` — enough rows at once to grow a store."""
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(n):
        kind = (VECTOR_KINDS + (HASH_KIND,))[rng.integers(3)]
        if kind == HASH_KIND:
            key = (kind, f"{int(rng.integers(2 ** 62)):x}")
        else:
            vector = rng.normal(size=DIM) * 10.0 ** rng.integers(-30, 15)
            vector[rng.random(DIM) < 0.1] = -0.0
            vector[rng.random(DIM) < 0.1] = 1e-42
            key = (kind, vector)
        items.append((descriptor_of(key), None, int(rng.integers(1, 13))))
    return items


def descriptor_of(key) -> HashDescriptor | VectorDescriptor:
    kind, value = key
    if kind == HASH_KIND:
        return HashDescriptor(kind, value)
    return VectorDescriptor(kind, value)


def identity(descriptor) -> tuple:
    """What must survive the round trip, as comparable bytes."""
    if isinstance(descriptor, HashDescriptor):
        return type(descriptor), descriptor.kind, descriptor.digest
    return (type(descriptor), descriptor.kind, descriptor.vector.dtype,
            descriptor.vector.tobytes())


def check(cache: ICCache, inserted: dict) -> None:
    live = set()
    for entry in cache.entries():
        want = inserted[entry.entry_id]
        assert identity(cache.descriptor(entry)) == identity(want)
        live.add(identity(want))
    for kind in VECTOR_KINDS + (HASH_KIND,):
        probes = [d for d in inserted.values() if d.kind == kind]
        if not probes:
            continue
        index = cache.index_for(kind)
        if kind == HASH_KIND:
            held = [index.holds(d.digest) for d in probes]
        else:
            held = index.holds(np.stack([d.vector for d in probes])).tolist()
        assert held == [identity(d) in live for d in probes]


@given(ops=operations, dtype=st.sampled_from(["float32", "float64"]),
       index=st.sampled_from(["linear", "lsh:4:6"]),
       capacity=st.integers(min_value=50, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_descriptor_reads_back_the_inserted_key(ops, dtype, index,
                                                capacity):
    cache = ICCache(capacity_bytes=capacity, vector_dtype=dtype,
                    vector_index=index)
    inserted: dict[int, HashDescriptor | VectorDescriptor] = {}
    for op in ops:
        if op[0] == "insert":
            descriptor = descriptor_of(op[1])
            entry = cache.insert(descriptor, None, op[2])
            if entry is not None:
                inserted[entry.entry_id] = descriptor
        elif op[0] == "batch":
            items = drawn_batch(op[1], op[2])
            for entry, item in zip(cache.insert_batch(items), items):
                if entry is not None:
                    inserted[entry.entry_id] = item[0]
        elif op[0] == "remove":
            live = cache.entries()
            if live:
                cache.remove(live[op[1] % len(live)])
        else:
            cache.summary()
        check(cache, inserted)
