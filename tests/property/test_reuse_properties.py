"""Property tests for the reuse machinery behind partial inference.

Generalizes the fixed-case identity tests: the affinity sketch is a
true multiset (insert/drop round-trips to empty) and a layer-reuse plan
can never cost more than full inference.
Runs under the derandomized ``tier1`` profile (see ``tests/conftest``).
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.cache import ICCache
from repro.core.sketch import AffinitySketch, SKETCH_DIM
from repro.core.layer_cache import LayerCacheManager
from repro.vision.model_zoo import EDGE_CPU_2018, vgg16

DIM = 8

finite_vector = st.lists(
    st.floats(min_value=-10, max_value=10,
              allow_nan=False, allow_infinity=False),
    min_size=DIM, max_size=DIM).filter(
        lambda v: float(np.linalg.norm(v)) > 1e-6)

sketch_vector = st.lists(
    st.floats(min_value=-10, max_value=10,
              allow_nan=False, allow_infinity=False),
    min_size=SKETCH_DIM, max_size=SKETCH_DIM).filter(
        lambda v: float(np.linalg.norm(v)) > 1e-6)


def arr(values):
    return np.asarray(values, dtype=np.float64)


# -- affinity sketch ----------------------------------------------------------


@given(vectors=st.lists(finite_vector, min_size=0, max_size=30),
       dup_every=st.integers(min_value=1, max_value=4))
@settings(max_examples=60)
def test_sketch_insert_drop_round_trips_to_empty(vectors, dup_every):
    """Adding vectors (with duplicates) then removing every copy leaves
    the empty multiset: no counts, no mass, zero population."""
    sketch = AffinitySketch()
    inserted = []
    for i, v in enumerate(vectors):
        copies = 2 if i % dup_every == 0 else 1
        for _ in range(copies):
            sketch.add(arr(v))
            inserted.append(v)
    assert len(sketch) == len(inserted)
    assert sum(sketch.summary().counts.values()) == len(inserted)
    for v in inserted:
        sketch.remove(arr(v))
    assert len(sketch) == 0
    assert sketch.summary().counts == {}
    assert sketch.summary().n == 0
    # Every bucket drained exactly: nothing survives as a zombie count.
    assert sketch.summary().expected_hit(0) == 0.0


@given(vectors=st.lists(finite_vector, min_size=1, max_size=15),
       order_seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40)
def test_sketch_removal_order_is_irrelevant(vectors, order_seed):
    sketch = AffinitySketch()
    for v in vectors:
        sketch.add(arr(v))
    shuffled = list(vectors)
    np.random.Generator(np.random.PCG64(order_seed)).shuffle(shuffled)
    for v in shuffled:
        sketch.remove(arr(v))
    assert sketch.summary().counts == {}


# -- layer-reuse plans --------------------------------------------------------


_VGG = vgg16()
_LAYER_NAMES = [layer.name for layer in _VGG.layers]


@given(tap_mask=st.lists(st.booleans(), min_size=len(_LAYER_NAMES),
                         max_size=len(_LAYER_NAMES)).filter(any),
       base_threshold=st.floats(min_value=0.01, max_value=1.0),
       tighten=st.floats(min_value=0.05, max_value=1.0),
       cached=st.lists(sketch_vector, min_size=0, max_size=6),
       probe=sketch_vector)
@settings(max_examples=60)
def test_plan_never_costlier_than_full_inference(tap_mask, base_threshold,
                                                 tighten, cached, probe):
    """Whatever is cached and however the thresholds are tuned, a reuse
    plan's remaining FLOPs (and device time) never exceed a full pass —
    partial inference is a pure discount, never a penalty."""
    taps = [name for name, keep in zip(_LAYER_NAMES, tap_mask) if keep]
    cache = ICCache(capacity_bytes=10**9)
    manager = LayerCacheManager(_VGG, cache, tap_layers=taps,
                                base_threshold=base_threshold,
                                tighten=tighten)
    for v in cached:
        manager.insert(arr(v) / np.linalg.norm(arr(v)))
    plan = manager.plan(arr(probe) / np.linalg.norm(arr(probe)))
    assert 0.0 <= plan.compute_gflops <= _VGG.total_gflops + 1e-9
    assert manager.compute_time(plan, EDGE_CPU_2018) <= \
        _VGG.inference_time(EDGE_CPU_2018) + 1e-9
    if plan.resume_after is None:
        assert plan.compute_gflops == _VGG.total_gflops
        assert not plan.full_result
    else:
        assert plan.resume_after in taps
        assert plan.full_result == (plan.resume_after == _LAYER_NAMES[-1])
        if cached:
            # Resuming must skip at least the resumed layer's FLOPs.
            assert plan.compute_gflops < _VGG.total_gflops or \
                _VGG.gflops_between(None, plan.resume_after) == 0.0
