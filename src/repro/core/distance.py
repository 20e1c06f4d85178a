"""Cosine distance for vector descriptor matching.

DNN retrieval descriptors are compared by angle, so cosine is the one
distance the program uses.  :func:`cosine_distance_batch` is the
kernel: ``(matrix, queries, row_norms=None, query_norms=None) -> (Q, N)
distances`` for a (N, D) candidate matrix and a (Q, D) query block.
One BLAS call covers the block; the row stores' ``distances``, the
indexes' candidate re-ranking, IVF's cell assignment and k-means
training all use it, a single query as a (1, D) block.
:func:`pairwise` is the two-vector form calibration code uses.

Precomputed-norm support: the kernel accepts optional Euclidean row /
query norms, so an index that caches per-row norms (see
:class:`repro.core.index.LinearIndex`) can skip the
``np.linalg.norm``-over-the-whole-store pass on every lookup.

Dtype contract: when *both* the matrix and the queries arrive as
float32, the whole pipeline (gemm, norms, clipping) runs in float32 —
half the memory traffic and roughly double the BLAS throughput, which
is what the float32 index tier buys.  Any other input combination is
computed in float64 exactly as before, so the float64 oracle tier
stays bit-identical to the historical arithmetic.
"""

from __future__ import annotations

import numpy as np


def _as_matrix(queries: np.ndarray, dtype: np.dtype) -> np.ndarray:
    queries = np.asarray(queries, dtype=dtype)
    if queries.ndim != 2:
        raise ValueError(f"queries must be 2-D (Q, D), got {queries.shape}")
    return queries


def _compute_dtype(matrix: np.ndarray, queries: np.ndarray) -> np.dtype:
    """float32 only when both operands already are; float64 otherwise."""
    if (getattr(matrix, "dtype", None) == np.float32
            and getattr(queries, "dtype", None) == np.float32):
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def cosine_distance_batch(matrix: np.ndarray, queries: np.ndarray,
                          row_norms: np.ndarray | None = None,
                          query_norms: np.ndarray | None = None
                          ) -> np.ndarray:
    """1 - cos(angle) for each (query, row) pair; shape (Q, N).

    Degenerate zero-norm vectors compare at maximum distance (2.0) rather
    than raising, so a corrupt descriptor can never accidentally match.
    """
    matrix = np.asarray(matrix)
    queries = np.asarray(queries)
    dtype = _compute_dtype(matrix, queries)
    matrix = np.asarray(matrix, dtype=dtype)
    queries = _as_matrix(queries, dtype)
    if row_norms is None:
        row_norms = np.linalg.norm(matrix, axis=1)
    if query_norms is None:
        query_norms = np.linalg.norm(queries, axis=1)
    # One BLAS call plus in-place passes: no (Q, N) temporaries beyond
    # the result block itself.
    cos = queries @ matrix.T
    with np.errstate(divide="ignore", invalid="ignore"):
        cos /= query_norms[:, None]
        cos /= row_norms[None, :]
    degenerate_q = query_norms == 0.0
    if degenerate_q.any():
        cos[degenerate_q, :] = -1.0
    degenerate_r = row_norms == 0.0
    if degenerate_r.any():
        cos[:, degenerate_r] = -1.0
    np.clip(cos, -1.0, 1.0, out=cos)
    np.subtract(1.0, cos, out=cos)
    return cos


def pairwise(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine distance between two single vectors (float64)."""
    return float(cosine_distance_batch(
        np.asarray(a, dtype=np.float64)[None, :],
        np.asarray(b, dtype=np.float64)[None, :])[0, 0])
