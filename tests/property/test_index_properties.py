"""Property-based tests: index implementations agree with brute force."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.descriptors import VectorDescriptor
from repro.core.distance import pairwise
from repro.core.index import LinearIndex, LshIndex, _decision_eps

DIM = 8

finite_vector = st.lists(
    st.floats(min_value=-10, max_value=10,
              allow_nan=False, allow_infinity=False),
    min_size=DIM, max_size=DIM).filter(
        lambda v: float(np.linalg.norm(v)) > 1e-6)


def vd(values):
    return VectorDescriptor("r", np.asarray(values, dtype=np.float32))


@given(stored=st.lists(finite_vector, min_size=1, max_size=20),
       query=finite_vector,
       threshold=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=80, deadline=None)
def test_linear_index_matches_brute_force(stored, query, threshold):
    index = LinearIndex()
    for i, vec in enumerate(stored):
        index.insert(i, vd(vec))
    got = index.query(vd(query), threshold)

    # float32 storage: brute-force reference must use the same precision.
    stored32 = [np.asarray(v, dtype=np.float32) for v in stored]
    query32 = np.asarray(query, dtype=np.float32)
    distances = [pairwise(v, query32) for v in stored32]
    best = int(np.argmin(distances))
    eps = 1e-6
    if distances[best] <= threshold - eps:
        assert got is not None
        assert abs(got[1] - distances[best]) < 1e-5
    elif distances[best] > threshold + eps:
        assert got is None


@given(stored=st.lists(finite_vector, min_size=1, max_size=15,
                       unique_by=tuple))
@settings(max_examples=50, deadline=None)
def test_lsh_self_query_always_hits(stored):
    """Querying an indexed vector itself must find it (distance 0)."""
    index = LshIndex(dim=DIM, n_tables=6, n_bits=4)
    for i, vec in enumerate(stored):
        index.insert(i, vd(vec))
    for i, vec in enumerate(stored):
        # Self-match distance floor is dtype-bound (~1e-7 in the
        # default float32 storage), hence the 1e-5 threshold.
        hit = index.query(vd(vec), threshold=1e-5)
        assert hit is not None
        assert hit[1] <= 1e-5


@given(stored=st.lists(finite_vector, min_size=2, max_size=15),
       removals=st.data())
@settings(max_examples=50, deadline=None)
def test_insert_remove_consistency(stored, removals):
    """After removals, removed ids never surface; survivors still do."""
    for index in (LinearIndex(), LshIndex(dim=DIM, n_tables=4, n_bits=4)):
        for i, vec in enumerate(stored):
            index.insert(i, vd(vec))
        to_remove = removals.draw(st.sets(
            st.integers(min_value=0, max_value=len(stored) - 1),
            max_size=len(stored)))
        for i in to_remove:
            index.remove(i)
        assert len(index) == len(stored) - len(to_remove)
        for i, vec in enumerate(stored):
            hit = index.query(vd(vec), threshold=1e-9)
            if i in to_remove:
                assert hit is None or hit[0] != i
            # Survivors are found unless a duplicate vector shadows them.


def full_kernel_answer(store, query, threshold):
    """The oracle: ``argmin`` over the full distance kernel's block."""
    if len(store) == 0:
        return None
    sub = store.distances(query[None, :])[0]
    best = int(np.argmin(sub))
    d = float(sub[best])
    return (store.id_at(best), d) if d <= threshold else None


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       dtype=st.sampled_from(("float32", "float64")),
       occupancy=st.sampled_from((0, 1, 2, 65, 1000)),
       duplicate=st.booleans(), zero_row=st.booleans())
@settings(max_examples=60, deadline=None)
def test_single_query_kernel_identical_to_full_kernel(
        seed, dtype, occupancy, duplicate, zero_row):
    """One-query answers are bit-identical to the full-kernel oracle.

    A LinearIndex holds ``occupancy`` rows — optionally with an exact
    duplicate pair and an all-zero row.  Exact ties and the all-zero
    query must take the fallback branch.
    """
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(occupancy, DIM)).astype(np.float32)
    if duplicate and occupancy >= 2:
        rows[rng.integers(1, occupancy)] = rows[0]
    if zero_row and occupancy >= 1:
        rows[occupancy - 1] = 0.0
    tied = occupancy >= 2 and any(
        np.array_equal(rows[0], r) for r in rows[1:])

    index = LinearIndex(dtype=dtype)
    for i, row in enumerate(rows):
        index.insert(i, VectorDescriptor("a", row))
    store = index._store
    eps = _decision_eps(dtype)

    queries = [np.zeros(DIM, dtype=np.float32),
               rng.normal(size=DIM).astype(np.float32)]
    if occupancy:
        queries.append(rows[0])
        queries.append(rows[0] + rng.normal(size=DIM).astype(np.float32)
                       * np.float32(0.05))
    for q in queries:
        cast = q.astype(dtype)
        open_answer = full_kernel_answer(store, cast, threshold=2.0)
        edge = 0.1 if open_answer is None else open_answer[1]
        for threshold in (0.0, 0.1, 2.0, edge,
                          float(np.nextafter(edge, -1.0))):
            want = full_kernel_answer(store, cast, threshold=threshold)
            got = index.query(VectorDescriptor("a", q), threshold)
            assert got == want
        if occupancy:
            declined = store.nearest_cosine(cast, eps) is None
            if not q.any() or (tied and np.array_equal(q, rows[0])):
                assert declined
            elif occupancy == 1:
                assert not declined


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       dtype=st.sampled_from(("float32", "float64")),
       occupancy=st.sampled_from((1, 2, 65)))
@settings(max_examples=30, deadline=None)
def test_single_query_kernel_divides_by_no_zero_norm(seed, dtype,
                                                     occupancy):
    """A zero-norm row is skipped, not divided by: no RuntimeWarning
    escapes the kernel, and it answers as the full kernel does."""
    import warnings

    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(occupancy, DIM)).astype(np.float32)
    rows[rng.integers(occupancy)] = 0.0
    index = LinearIndex(dtype=dtype)
    for i, row in enumerate(rows):
        index.insert(i, VectorDescriptor("a", row))
    store = index._store
    for q in (rows[0], rng.normal(size=DIM).astype(np.float32),
              np.zeros(DIM, dtype=np.float32)):
        cast = q.astype(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nearest = store.nearest_cosine(cast, _decision_eps(dtype))
        if nearest is not None:
            assert nearest == full_kernel_answer(store, cast, threshold=2.0)
        if not q.any():
            assert nearest is None


def test_lsh_recall_floor_across_seeds():
    """LSH recall vs LinearIndex ground truth stays >= the documented
    0.8 floor on near-duplicate workloads, across seeds."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        population = rng.normal(size=(250, 64))
        population /= np.linalg.norm(population, axis=1, keepdims=True)
        linear = LinearIndex()
        lsh = LshIndex(dim=64, n_tables=8, n_bits=10, seed=seed)
        for i, vec in enumerate(population):
            linear.insert(i, vd(vec))
            lsh.insert(i, vd(vec))
        probes = [vd(population[i] + rng.normal(0, 0.02, 64))
                  for i in range(60)]
        truth = [linear.query(p, threshold=0.05) for p in probes]
        got = [lsh.query(p, threshold=0.05) for p in probes]
        matched = [(a, b) for a, b in zip(truth, got) if a is not None]
        assert matched, f"seed {seed}: ground truth found no matches"
        recall = sum(1 for a, b in matched
                     if b is not None and b[0] == a[0]) / len(matched)
        assert recall >= 0.8, f"seed {seed}: recall {recall:.2f} < 0.8"
