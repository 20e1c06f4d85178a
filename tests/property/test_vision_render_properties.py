"""Property-based tests for vision geometry and mesh sizing."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.distance import pairwise
from repro.render.mesh import generate_mesh
from repro.vision.features import EmbeddingSpace
from repro.vision.image import RESOLUTIONS, jpeg_size_bytes

SPACE = EmbeddingSpace(dim=64, n_classes=40, seed=11)


def reference_geometry(dim, n_classes, seed):
    """``(anchors, drift)`` as the one-shot constructor built them.

    Kept verbatim: ``EmbeddingSpace`` holds no table and derives each
    class's rows on demand, and every descriptor, match decision and
    digest rests on those rows being these, bit for bit.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        [seed, dim, n_classes])))
    anchors = rng.normal(size=(n_classes, dim))
    anchors = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
    drift = rng.normal(size=(n_classes, dim))
    drift -= (np.sum(drift * anchors, axis=1, keepdims=True)
              * anchors)
    drift = drift / np.linalg.norm(drift, axis=1, keepdims=True)
    return anchors, drift


SPACE_GEOMETRY = reference_geometry(64, 40, 11)


@given(cls=st.integers(min_value=0, max_value=39),
       viewpoint=st.floats(min_value=-5, max_value=5, allow_nan=False),
       key=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=100, deadline=None)
def test_observations_always_unit_norm(cls, viewpoint, key):
    obs = SPACE.observe(cls, viewpoint, noise_key=key)
    assert np.linalg.norm(obs.vector) == pytest.approx(1.0)


def reference_observation(space, geometry, cls, viewpoint, key):
    """``observe`` written out with ``np.linalg.norm``, for comparison,
    on the ``(anchors, drift)`` of :func:`reference_geometry`."""
    anchors, drift = geometry
    angle = viewpoint * space.viewpoint_scale
    vec = np.cos(angle) * anchors[cls] + np.sin(angle) * drift[cls]
    if key is not None:
        noise = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([0x5EED, cls, key])))
        vec = vec + noise.normal(0.0, space.noise_sigma, size=space.dim)
    return vec / np.linalg.norm(vec)


@given(cls=st.integers(min_value=0, max_value=39),
       viewpoint=st.floats(min_value=-5, max_value=5, allow_nan=False),
       key=st.one_of(st.none(), st.just(0),
                     st.integers(min_value=0, max_value=2**64 - 1),
                     st.integers(min_value=2**64, max_value=2**80)))
@settings(max_examples=100, deadline=None)
def test_observe_matches_the_linalg_norm_reference(cls, viewpoint, key):
    # Bit for bit: observe normalises by sqrt(v . v), which is what
    # np.linalg.norm computes for a 1-D vector.
    got = SPACE.observe(cls, viewpoint, noise_key=key).vector
    assert np.array_equal(got, reference_observation(
        SPACE, SPACE_GEOMETRY, cls, viewpoint, key))


@given(cls=st.integers(min_value=0, max_value=39),
       d1=st.floats(min_value=0, max_value=2, allow_nan=False),
       d2=st.floats(min_value=0, max_value=2, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_noise_free_distance_monotone_in_viewpoint(cls, d1, d2):
    base = SPACE.observe(cls, 0.0).vector
    near_d, far_d = sorted((d1, d2))
    near = pairwise(base, SPACE.observe(cls, near_d).vector)
    far = pairwise(base, SPACE.observe(cls, far_d).vector)
    assert near <= far + 1e-9


@given(model_id=st.integers(min_value=0, max_value=1000),
       target_kb=st.floats(min_value=10, max_value=5000),
       seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=30, deadline=None)
def test_mesh_file_size_tracks_its_target_any_size(model_id, target_kb,
                                                   seed):
    mesh = generate_mesh(model_id, target_kb, seed=seed)
    again = generate_mesh(model_id, target_kb, seed=seed)
    assert np.array_equal(again.vertices, mesh.vertices)
    assert np.array_equal(again.triangles, mesh.triangles)
    # Size model (a 40-byte header plus the arrays) holds within
    # tolerance at every scale.
    packed = 40 + mesh.vertices.nbytes + mesh.triangles.nbytes
    assert packed / 1024 == pytest.approx(target_kb, rel=0.25, abs=16)


@given(q1=st.integers(min_value=1, max_value=100),
       q2=st.integers(min_value=1, max_value=100))
@settings(max_examples=60, deadline=None)
def test_jpeg_size_monotone_in_quality(q1, q2):
    lo, hi = sorted((q1, q2))
    resolution = RESOLUTIONS["1080p"]
    assert jpeg_size_bytes(resolution, lo) <= jpeg_size_bytes(resolution, hi)
