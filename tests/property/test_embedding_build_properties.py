"""Rows derived on demand equal the one-shot build.

``EmbeddingSpace`` holds no whole anchor or drift table: its build keeps
the geometry stream's PCG64 position every ``_GROUP_ROWS`` rows and
each anchor's norm, and a class's rows are re-drawn from there when
asked for -- one class at a time into a memo of ``_MEMO_CLASSES``
slots (``observe``, ``anchor``), or ``_BLOCK_ROWS`` at a time for a run
of classes (``prototypes`` in a world larger than the memo).  A world the
memo holds whole is built straight into it.
:func:`reference_geometry` is the whole-table construction this replaced,
kept verbatim: every path must give its rows bit for bit on every shape
(one row, at and past a group, block and memo boundary, a ragged last
block) and seed, because every descriptor, match decision and digest is
computed from them.  A space must also cost its states, not its classes.
"""

import copy
import pickle
import random
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.vision.features import (_BLOCK_ROWS, _GROUP_ROWS, _MEMO_CLASSES,
                                   EmbeddingSpace)

from test_vision_render_properties import (reference_geometry,
                                           reference_observation)

B, G, M = _BLOCK_ROWS, _GROUP_ROWS, _MEMO_CLASSES
EDGE_ROWS = sorted({1, G, G + 1, B - 1, B, B + 1, 2 * B + 7, M + 1})
EDGE_DIMS = (2, 64, 128)
SEED = st.integers(min_value=0, max_value=2**32 - 1)


def assert_rows_equal(got, want):
    assert got.tobytes() == want.tobytes()


def assert_same_geometry(dim, n_classes, seed):
    space = EmbeddingSpace(dim=dim, n_classes=n_classes, seed=seed)
    geometry = anchors, drift = reference_geometry(dim, n_classes, seed)
    # Through the memo (filled at build up to M classes, on demand past).
    for cls in range(n_classes):
        slot = space._slot(cls)
        assert_rows_equal(space._anchors[slot], anchors[cls])
        assert_rows_equal(space._drift[slot], drift[cls])
    # One class at a time, as a memo miss derives it.
    row_anchor, row_drift = np.empty((2, 1, dim))
    for cls in range(n_classes):
        space._derive(cls, cls + 1, row_anchor, row_drift)
        assert_rows_equal(row_anchor, anchors[cls:cls + 1])
        assert_rows_equal(row_drift, drift[cls:cls + 1])
    # The whole range at once, as a run-wise warm-up derives it.
    block_anchors, block_drift = np.empty((2, n_classes, dim))
    space._derive(0, n_classes, block_anchors, block_drift)
    assert_rows_equal(block_anchors, anchors)
    assert_rows_equal(block_drift, drift)
    for cls, vector in enumerate(space.prototypes(range(n_classes))):
        assert_rows_equal(vector, reference_observation(
            space, geometry, cls, 0.0, None))
    for cls in sorted({0, min(B, n_classes - 1), n_classes - 1}):
        assert_rows_equal(space.anchor(cls), anchors[cls])
        for key in (0, 12345):
            assert_rows_equal(
                space.observe(cls, 0.7, noise_key=key).vector,
                reference_observation(space, geometry, cls, 0.7, key))


@pytest.mark.parametrize("dim", EDGE_DIMS)
@pytest.mark.parametrize("n_classes", EDGE_ROWS)
@given(seed=SEED)
@settings(max_examples=3, deadline=None)
def test_derived_rows_equal_one_shot_build_at_boundaries(n_classes, dim,
                                                         seed):
    assert_same_geometry(dim, n_classes, seed)


@given(n_classes=st.integers(min_value=1, max_value=3 * M + 1),
       dim=st.integers(min_value=2, max_value=160), seed=SEED)
@settings(max_examples=10, deadline=None)
def test_derived_rows_equal_one_shot_build_on_any_shape(n_classes, dim,
                                                        seed):
    assert_same_geometry(dim, n_classes, seed)


@given(seed=SEED, walk=SEED, extra=st.integers(min_value=1, max_value=M))
@settings(max_examples=5, deadline=None)
def test_rows_in_any_order_across_memo_eviction_equal_the_reference(
        seed, walk, extra):
    # More classes than the memo holds, visited in a random order with
    # repeats: a class comes back after it was evicted, and the keyed
    # noise drawn between derivations must not shift any stream.
    n_classes, dim = M + extra, 8
    space = EmbeddingSpace(dim=dim, n_classes=n_classes, seed=seed)
    geometry = anchors, drift = reference_geometry(dim, n_classes, seed)
    visits = random.Random(walk).choices(range(n_classes), k=2 * n_classes)
    for i, cls in enumerate(visits):
        slot = space._slot(cls)
        assert_rows_equal(space._anchors[slot], anchors[cls])
        assert_rows_equal(space._drift[slot], drift[cls])
        if i % 7 == 0:
            assert_rows_equal(
                space.observe(cls, 0.3, noise_key=i).vector,
                reference_observation(space, geometry, cls, 0.3, i))
    # Every slot still holds the rows of the class it is tagged with.
    assert space._anchors.shape == space._drift.shape == (M, dim)
    for slot, cls in enumerate(space._slot_class):
        if cls >= 0:
            assert_rows_equal(space._anchors[slot], anchors[cls])
            assert_rows_equal(space._drift[slot], drift[cls])


@pytest.mark.parametrize("n_classes", [64, M, M + 1, 5 * M])
def test_memo_is_two_bounded_tables_of_its_own(n_classes):
    space = EmbeddingSpace(dim=16, n_classes=n_classes, seed=3)
    slots = min(n_classes, M)
    for table in (space._anchors, space._drift):
        # Its own bytes: no view that pins a larger draw.
        assert table.shape == (slots, 16) and table.base is None
    # A world that fits is built into the memo; a larger one fills it on
    # demand.
    assert space._slot_class == (list(range(n_classes))
                                 if n_classes <= M else [-1] * M)
    anchor = space.anchor(5)
    anchor[:] = 0.0
    assert np.linalg.norm(space.anchor(5)) == pytest.approx(1.0)


@given(classes=st.lists(st.integers(min_value=0, max_value=99),
                        max_size=60))
@settings(max_examples=30, deadline=None)
def test_prototypes_equal_observe_for_any_class_list(classes):
    # Runs, gaps, repeats and descending steps all come out in order.
    space = EmbeddingSpace(dim=16, n_classes=100, seed=5)
    got = list(space.prototypes(classes))
    assert len(got) == len(classes)
    for cls, vector in zip(classes, got):
        assert_rows_equal(vector, space.observe(cls, 0.0).vector)


def test_prototypes_derive_runs_a_block_at_a_time(monkeypatch):
    space = EmbeddingSpace(dim=8, n_classes=M + 4 * B, seed=1)
    calls = []
    derive = space._derive

    def counting_derive(lo, hi, anchors, drift):
        calls.append((lo, hi))
        derive(lo, hi, anchors, drift)

    monkeypatch.setattr(space, "_derive", counting_derive)
    classes = [*range(0, 2 * B + 3), 7, 9, 10, *range(3 * B, 4 * B)]
    assert len(list(space.prototypes(classes))) == len(classes)
    assert calls == [(0, B), (B, 2 * B), (2 * B, 2 * B + 3), (7, 8),
                     (9, 11), (3 * B, 4 * B)]
    # The warm-up passes the memo by.
    assert space._slot_class == [-1] * M


def test_a_world_that_fits_never_derives(monkeypatch):
    # Built straight into the memo: observe, anchor and prototypes read it.
    space = EmbeddingSpace(dim=8, n_classes=M, seed=2)
    reference = EmbeddingSpace(dim=8, n_classes=M, seed=2)

    def no_derive(*args):
        raise AssertionError("a world that fits derived rows")

    monkeypatch.setattr(space, "_derive", no_derive)
    classes = [*range(M), 5, 3]
    for cls, vector in zip(classes, space.prototypes(classes)):
        assert_rows_equal(vector, reference.observe(cls, 0.0).vector)
        assert_rows_equal(space.observe(cls, 0.4, noise_key=cls).vector,
                          reference.observe(cls, 0.4, noise_key=cls).vector)
        assert_rows_equal(space.anchor(cls), reference.anchor(cls))


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       pickle.dumps])
def test_a_space_refuses_to_be_copied(duplicate):
    # Its generator is moved through a view of the generator's own
    # memory, which a copy would not carry over.
    with pytest.raises(TypeError):
        duplicate(EmbeddingSpace(dim=8, n_classes=10, seed=1))


def test_prototypes_check_each_class():
    space = EmbeddingSpace(dim=8, n_classes=10, seed=1)
    with pytest.raises(ValueError):
        list(space.prototypes([3, 4, 10]))
    with pytest.raises(ValueError):
        list(space.prototypes([-1]))


def traced(build):
    """``(result, retained, peak)`` bytes of ``build()`` under tracemalloc."""
    was_tracing = tracemalloc.is_tracing()
    if was_tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, retained - base, peak - base


def test_a_large_world_costs_its_states_not_its_classes():
    dim, n_classes = 128, 50_000
    space, retained, peak = traced(
        lambda: EmbeddingSpace(dim=dim, n_classes=n_classes))
    # The tables were 2 * 50 000 * 128 * 8 bytes = 97.7 MiB.
    assert retained < 8 * 2**20
    # The build draws a group at a time into one block and squares the
    # block to take the anchor norms: it peaks two blocks and a group
    # above what it keeps.
    assert peak - retained <= (2 * B + G) * dim * 8
    # A full memo stays bounded too.
    def observe_many():
        for cls in range(0, 3 * M):
            space.observe(cls, 0.1)

    _, grown, _ = traced(observe_many)
    assert min(space._slot_class) >= 0
    assert retained + grown < 8 * 2**20

