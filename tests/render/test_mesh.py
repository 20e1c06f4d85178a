"""Unit tests for repro.render.mesh (the generator and its size target)."""

import numpy as np
import pytest

from repro.render.mesh import MeshModel, generate_mesh


def packed_bytes(mesh: MeshModel) -> int:
    """A 40-byte header plus the arrays: 8 float32 per vertex, 3 uint32
    per triangle."""
    return 40 + mesh.vertices.nbytes + mesh.triangles.nbytes


def same_geometry(a: MeshModel, b: MeshModel) -> bool:
    return (np.array_equal(a.vertices, b.vertices)
            and np.array_equal(a.triangles, b.triangles))


class TestGenerate:
    def test_size_close_to_target(self):
        for target_kb in (100, 1000, 8000):
            mesh = generate_mesh(1, target_kb)
            actual_kb = packed_bytes(mesh) / 1024
            assert actual_kb == pytest.approx(target_kb, rel=0.05)

    def test_deterministic_for_same_inputs(self):
        a = generate_mesh(4, 500, seed=1)
        b = generate_mesh(4, 500, seed=1)
        assert same_geometry(a, b)

    def test_different_ids_different_content(self):
        assert not same_geometry(generate_mesh(1, 500, seed=1),
                                 generate_mesh(2, 500, seed=1))

    def test_triangle_indices_valid(self):
        mesh = generate_mesh(1, 300)
        assert int(mesh.triangles.max()) < mesh.n_vertices

    def test_realistic_triangle_ratio(self):
        mesh = generate_mesh(1, 2000)
        ratio = mesh.n_triangles / mesh.n_vertices
        assert 1.5 < ratio <= 2.0

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            generate_mesh(1, 0)


class TestMeshModelValidation:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            MeshModel(1, np.zeros((4, 3), dtype=np.float32),
                      np.zeros((1, 3), dtype=np.uint32))

    def test_index_range_check(self):
        vertices = np.zeros((4, 8), dtype=np.float32)
        bad = np.array([[0, 1, 9]], dtype=np.uint32)
        with pytest.raises(ValueError):
            MeshModel(1, vertices, bad)
