"""The cache's lazily started affinity sketches match a from-scratch count.

``ICCache`` signs nothing until its first ``summary()``; that call folds
in every live entry, and from then on inserts and drops keep the
sketches current.  Hypothesis drives arbitrary sequences of inserts,
batch inserts, removals, evictions, clears and summaries; every summary
must equal the signature multiset of the entries live at that moment,
whatever happened before sketching started.
"""

import collections

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.cache import ICCache
from repro.core.descriptors import HashDescriptor, VectorDescriptor
from repro.core.sketch import AffinitySketch

KINDS = ("recognition", "layer:conv3", "model_load")
VECTORS = np.random.default_rng(3).normal(size=(24, 64))
SIGN = AffinitySketch()


def descriptor(kind: str, i: int):
    if kind == "model_load":
        return HashDescriptor(kind, f"{i:04x}")
    return VectorDescriptor(kind=kind, vector=VECTORS[i])


item = st.tuples(st.sampled_from(KINDS),
                 st.integers(min_value=0, max_value=len(VECTORS) - 1),
                 st.integers(min_value=50, max_value=400))
operations = st.lists(st.one_of(
    st.tuples(st.just("insert"), item),
    st.tuples(st.just("insert_batch"), st.lists(item, max_size=6)),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("clear"), st.none()),
    st.tuples(st.just("summary"), st.sampled_from([None, "layer:"]))),
    min_size=1, max_size=40)


def expected_sketches(cache: ICCache, exclude_prefix):
    """kind -> (n, counts) over the live vector entries, from scratch."""
    counts = collections.defaultdict(collections.Counter)
    for entry in cache.entries():
        kind = entry.descriptor.kind
        if isinstance(entry.descriptor, VectorDescriptor) and not (
                exclude_prefix and kind.startswith(exclude_prefix)):
            counts[kind][SIGN.signature(entry.descriptor.vector)] += 1
    return {kind: (sum(c.values()), dict(c)) for kind, c in counts.items()}


def check_summary(cache: ICCache, exclude_prefix) -> None:
    summary = cache.summary(exclude_prefix=exclude_prefix)
    want = expected_sketches(cache, exclude_prefix)
    assert {kind: (s.n, s.counts) for kind, s in summary.sketches.items()} \
        == want
    live = collections.Counter(e.descriptor.kind for e in cache.entries()
                               if not (exclude_prefix and
                                       e.descriptor.kind.startswith(
                                           exclude_prefix)))
    assert summary.kinds == dict(live)
    assert summary.size_bytes == (
        64 + 24 * len(live)
        + sum(16 + 12 * len(counts) for _, counts in want.values()))
    for vector in VECTORS[:6]:
        signature = SIGN.signature(vector)
        for kind in ("recognition", "layer:conv3"):
            n, counts = want.get(kind, (0, {}))
            near = sum(count for sig, count in counts.items()
                       if bin(sig ^ signature).count("1") <= 2)
            assert summary.expected_hit(kind, signature) == (
                min(1.0, near / n) if n else 0.0)


@given(ops=operations, capacity=st.integers(min_value=400, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_every_summary_equals_the_live_signature_multiset(ops, capacity):
    cache = ICCache(capacity_bytes=capacity)
    clock = 0.0
    for op, arg in ops:
        clock += 1.0
        if op == "insert":
            kind, i, size = arg
            cache.insert(descriptor(kind, i), i, size, now=clock)
        elif op == "insert_batch":
            cache.insert_batch([(descriptor(kind, i), i, size)
                                for kind, i, size in arg], now=clock)
        elif op == "remove":
            live = cache.entries()
            if live:
                cache.remove(live[arg % len(live)])
        elif op == "clear":
            cache.clear()
        else:
            check_summary(cache, arg)
    check_summary(cache, None)
