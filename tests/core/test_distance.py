"""Unit tests for repro.core.distance."""

import numpy as np
import pytest

from repro.core.distance import cosine_distance_batch, pairwise


def single(matrix, query):
    """Distances of each row to one query: a (1, D) block's only row."""
    return cosine_distance_batch(matrix, np.asarray(query)[None, :])[0]


class TestCosine:
    def test_identical_vectors_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert pairwise(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vectors_one(self):
        assert pairwise([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_opposite_vectors_two(self):
        assert pairwise([1, 0], [-1, 0]) == pytest.approx(2.0)

    def test_scale_invariant(self):
        a, b = np.array([1.0, 2.0]), np.array([2.0, 1.0])
        assert pairwise(a, b) == pytest.approx(pairwise(10 * a, 0.5 * b))

    def test_zero_vector_max_distance(self):
        matrix = np.array([[0.0, 0.0], [1.0, 0.0]])
        distances = single(matrix, np.array([1.0, 0.0]))
        assert distances[0] == pytest.approx(2.0)
        assert distances[1] == pytest.approx(0.0)

    def test_vectorized_matches_pairwise(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(10, 8))
        query = rng.normal(size=8)
        batch = single(matrix, query)
        for row, expected in zip(matrix, batch):
            assert pairwise(row, query) == pytest.approx(expected)


class TestBatchForms:
    """The (Q, N) kernel: a query block is its queries one at a time."""

    def test_batch_rows_match_single_queries(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(12, 6))
        queries = rng.normal(size=(5, 6))
        batch = cosine_distance_batch(matrix, queries)
        assert batch.shape == (5, 12)
        for q, row in zip(queries, batch):
            assert np.allclose(single(matrix, q), row, atol=1e-12)

    def test_precomputed_norms_match_default(self):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(9, 5))
        queries = rng.normal(size=(3, 5))
        plain = cosine_distance_batch(matrix, queries)
        primed = cosine_distance_batch(
            matrix, queries, row_norms=np.linalg.norm(matrix, axis=1),
            query_norms=np.linalg.norm(queries, axis=1))
        assert np.allclose(plain, primed, atol=1e-12)

    def test_cosine_batch_degenerate_vectors(self):
        matrix = np.array([[0.0, 0.0], [1.0, 0.0]])
        queries = np.array([[1.0, 0.0], [0.0, 0.0]])
        got = cosine_distance_batch(matrix, queries)
        # Zero-norm on either side compares at maximum distance.
        assert got[0, 0] == pytest.approx(2.0)
        assert got[0, 1] == pytest.approx(0.0)
        assert got[1, 0] == pytest.approx(2.0)
        assert got[1, 1] == pytest.approx(2.0)

    def test_batch_rejects_1d_queries(self):
        with pytest.raises(ValueError):
            cosine_distance_batch(np.eye(3), np.ones(3))

    def test_float32_operands_stay_float32(self):
        rng = np.random.default_rng(6)
        matrix = rng.normal(size=(6, 4)).astype(np.float32)
        queries = rng.normal(size=(2, 4)).astype(np.float32)
        assert cosine_distance_batch(matrix, queries).dtype == np.float32
        # Any float64 operand computes in float64.
        assert cosine_distance_batch(
            matrix, queries.astype(np.float64)).dtype == np.float64

    def test_pairwise_is_the_kernel_in_float64(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(2, 16)).astype(np.float32)
        want = cosine_distance_batch(a[None, :].astype(np.float64),
                                     b[None, :].astype(np.float64))[0, 0]
        assert pairwise(a, b) == want
