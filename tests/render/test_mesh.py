"""Unit tests for repro.render.mesh (generator and RMSH file size)."""

import numpy as np
import pytest

from repro.render.mesh import LOADED_EXPANSION, MeshModel, generate_mesh


class TestGenerate:
    def test_size_close_to_target(self):
        for target_kb in (100, 1000, 8000):
            mesh = generate_mesh(1, target_kb)
            actual_kb = mesh.file_bytes / 1024
            assert actual_kb == pytest.approx(target_kb, rel=0.05)

    def test_deterministic_for_same_inputs(self):
        a = generate_mesh(4, 500, seed=1)
        b = generate_mesh(4, 500, seed=1)
        assert a.digest() == b.digest()

    def test_different_ids_different_content(self):
        assert (generate_mesh(1, 500, seed=1).digest()
                != generate_mesh(2, 500, seed=1).digest())

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


class TestSizes:
    def test_file_bytes_is_header_plus_arrays(self):
        # A 40-byte header, 8 float32 per vertex, 3 uint32 per triangle.
        mesh = generate_mesh(1, 400)
        assert mesh.file_bytes == (40 + 32 * mesh.n_vertices
                                   + 12 * mesh.n_triangles)

    def test_loaded_bytes_expansion(self):
        mesh = generate_mesh(1, 400)
        assert mesh.loaded_bytes == int(mesh.file_bytes * LOADED_EXPANSION)


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
