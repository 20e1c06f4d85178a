"""The block-by-block geometry build equals the one-shot build.

``EmbeddingSpace.__init__`` fills its anchor and drift arrays in place,
``_BUILD_ROWS`` rows at a time.  :func:`reference_geometry` is the
whole-array construction it replaced, kept verbatim: the two must agree
bit for bit on every shape (one row, a block short of, at and past a
block boundary, a ragged last block) and seed, because every
descriptor, match decision and digest is computed from these arrays.
The build must also peak at its live arrays plus about one block.
"""

import tracemalloc
import types

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.vision.features import _BUILD_ROWS, EmbeddingSpace

from test_vision_render_properties import reference_observation

B = _BUILD_ROWS
EDGE_ROWS = (1, B - 1, B, B + 1, 2 * B + 7)
EDGE_DIMS = (2, 64, 128)
SEED = st.integers(min_value=0, max_value=2**32 - 1)


def reference_geometry(dim, n_classes, seed):
    """``(anchors, drift)`` as the one-shot constructor built them."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [seed, dim, n_classes])))
    anchors = rng.normal(size=(n_classes, dim))
    anchors = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
    drift = rng.normal(size=(n_classes, dim))
    drift -= (np.sum(drift * anchors, axis=1, keepdims=True)
              * anchors)
    drift = drift / np.linalg.norm(drift, axis=1, keepdims=True)
    return anchors, drift


def assert_same_geometry(dim, n_classes, seed):
    space = EmbeddingSpace(dim=dim, n_classes=n_classes, seed=seed)
    anchors, drift = reference_geometry(dim, n_classes, seed)
    assert space._anchors.tobytes() == anchors.tobytes()
    assert space._drift.tobytes() == drift.tobytes()
    reference = types.SimpleNamespace(
        dim=dim, viewpoint_scale=space.viewpoint_scale,
        noise_sigma=space.noise_sigma, _anchors=anchors, _drift=drift)
    for cls in sorted({0, min(B, n_classes - 1), n_classes - 1}):
        for key in (0, 12345):
            got = space.observe(cls, 0.7, noise_key=key).vector
            assert np.array_equal(
                got, reference_observation(reference, cls, 0.7, key))


@pytest.mark.parametrize("dim", EDGE_DIMS)
@pytest.mark.parametrize("n_classes", EDGE_ROWS)
@given(seed=SEED)
@settings(max_examples=3, deadline=None)
def test_block_build_equals_one_shot_build_at_block_edges(n_classes, dim,
                                                          seed):
    assert_same_geometry(dim, n_classes, seed)


@given(n_classes=st.integers(min_value=1, max_value=3 * B + 1),
       dim=st.integers(min_value=2, max_value=160), seed=SEED)
@settings(max_examples=10, deadline=None)
def test_block_build_equals_one_shot_build_on_any_shape(n_classes, dim,
                                                        seed):
    assert_same_geometry(dim, n_classes, seed)


def test_build_peaks_at_live_arrays_plus_a_block():
    dim = 128
    was_tracing = tracemalloc.is_tracing()
    if was_tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        space = EmbeddingSpace(dim=dim, n_classes=20_000)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    live = space._anchors.nbytes + space._drift.nbytes
    assert live == 2 * 20_000 * dim * 8
    # The one-shot build peaked at ~2.0x live.
    assert peak - live <= 2 * B * dim * 8
