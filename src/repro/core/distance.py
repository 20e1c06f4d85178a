"""Distance metrics for vector descriptor matching.

Two call forms per metric, one implementation:

* **matrix-vs-query** — ``metric(matrix, query, row_norms=None,
  query_norm=None) -> (N,) distances`` for a (N, D) candidate matrix and
  a (D,) query.  This is what the per-query index scan uses.
* **matrix-vs-batch** — ``metric_batch(matrix, queries, row_norms=None,
  query_norms=None) -> (Q, N) distances`` for a (Q, D) query block.  One
  BLAS call covers the block; the row stores' ``distances`` and IVF's
  cell assignment and k-means training use it.

The single-query form delegates to the batch form, so both paths share
one arithmetic pipeline and produce consistent match decisions.

Precomputed-norm support: all metrics accept optional Euclidean row /
query norms so an index that caches per-row norms (see
:class:`repro.core.index.LinearIndex`) can skip the
``np.linalg.norm``-over-the-whole-store pass on every lookup.  ``cosine``
divides by them; ``l2``/``l2sq`` square them for the Gram-expansion
``||a-b||^2 = ||a||^2 + ||b||^2 - 2ab``.

``cosine`` is the default — DNN retrieval descriptors are compared by
angle — with ``l2`` and ``l2sq`` available for un-normalized feature
spaces.

Dtype contract: when *both* the matrix and the queries arrive as
float32, the whole pipeline (gemm, norms, clipping) runs in float32 —
half the memory traffic and roughly double the BLAS throughput, which
is what the float32 index tier buys.  Any other input combination is
computed in float64 exactly as before, so the float64 oracle tier
stays bit-identical to the historical arithmetic.
"""

from __future__ import annotations

import typing

import numpy as np

MetricFn = typing.Callable[..., np.ndarray]
BatchMetricFn = typing.Callable[..., np.ndarray]


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


def _as_query(query: np.ndarray) -> np.ndarray:
    """A 1-D query in its native float dtype (non-float input -> float64)."""
    query = np.asarray(query)
    if query.dtype not in (np.float32, np.float64):
        query = np.asarray(query, dtype=np.float64)
    return query


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


def l2sq_distance_batch(matrix: np.ndarray, queries: np.ndarray,
                        row_norms: np.ndarray | None = None,
                        query_norms: np.ndarray | None = None
                        ) -> np.ndarray:
    """Squared Euclidean distance per (query, row) pair; shape (Q, N).

    Uses the Gram expansion so the (Q, N) block is one BLAS call instead
    of a (Q, N, D) difference tensor; cancellation residue is clipped at
    zero.
    """
    matrix = np.asarray(matrix)
    queries = np.asarray(queries)
    dtype = _compute_dtype(matrix, queries)
    matrix = np.asarray(matrix, dtype=dtype)
    queries = _as_matrix(queries, dtype)
    if row_norms is None:
        row_sq = np.einsum("ij,ij->i", matrix, matrix)
    else:
        row_sq = np.asarray(row_norms, dtype=dtype) ** 2
    if query_norms is None:
        query_sq = np.einsum("ij,ij->i", queries, queries)
    else:
        query_sq = np.asarray(query_norms, dtype=dtype) ** 2
    sq = queries @ matrix.T
    sq *= -2.0
    sq += query_sq[:, None]
    sq += row_sq[None, :]
    return np.maximum(sq, 0.0, out=sq)


def l2_distance_batch(matrix: np.ndarray, queries: np.ndarray,
                      row_norms: np.ndarray | None = None,
                      query_norms: np.ndarray | None = None) -> np.ndarray:
    """Euclidean distance per (query, row) pair; shape (Q, N)."""
    return np.sqrt(l2sq_distance_batch(matrix, queries,
                                       row_norms=row_norms,
                                       query_norms=query_norms))


def cosine_distance(matrix: np.ndarray, query: np.ndarray,
                    row_norms: np.ndarray | None = None,
                    query_norm: float | None = None) -> np.ndarray:
    """1 - cos(angle) for each row against the query; shape (N,)."""
    query = _as_query(query)
    query_norms = None if query_norm is None else np.array(
        [query_norm], dtype=query.dtype)
    return cosine_distance_batch(matrix, query[None, :],
                                 row_norms=row_norms,
                                 query_norms=query_norms)[0]


def l2_distance(matrix: np.ndarray, query: np.ndarray,
                row_norms: np.ndarray | None = None,
                query_norm: float | None = None) -> np.ndarray:
    """Euclidean distance of each row to the query; shape (N,)."""
    query = _as_query(query)
    query_norms = None if query_norm is None else np.array(
        [query_norm], dtype=query.dtype)
    return l2_distance_batch(matrix, query[None, :], row_norms=row_norms,
                             query_norms=query_norms)[0]


def l2sq_distance(matrix: np.ndarray, query: np.ndarray,
                  row_norms: np.ndarray | None = None,
                  query_norm: float | None = None) -> np.ndarray:
    """Squared Euclidean distance (cheaper when only ordering matters)."""
    query = _as_query(query)
    query_norms = None if query_norm is None else np.array(
        [query_norm], dtype=query.dtype)
    return l2sq_distance_batch(matrix, query[None, :], row_norms=row_norms,
                               query_norms=query_norms)[0]


_METRICS: dict[str, MetricFn] = {
    "cosine": cosine_distance,
    "l2": l2_distance,
    "l2sq": l2sq_distance,
}

_BATCH_METRICS: dict[str, BatchMetricFn] = {
    "cosine": cosine_distance_batch,
    "l2": l2_distance_batch,
    "l2sq": l2sq_distance_batch,
}


def get_metric(name: str) -> MetricFn:
    """Look up a matrix-vs-query metric by name."""
    try:
        return _METRICS[name]
    except KeyError:
        raise KeyError(
            f"unknown metric {name!r}; choose from {sorted(_METRICS)}"
        ) from None


def get_metric_batch(name: str) -> BatchMetricFn:
    """Look up the matrix-vs-batch form of a metric by name."""
    try:
        return _BATCH_METRICS[name]
    except KeyError:
        raise KeyError(
            f"unknown metric {name!r}; choose from {sorted(_BATCH_METRICS)}"
        ) from None


def pairwise(name: str, a: np.ndarray, b: np.ndarray) -> float:
    """Distance between two single vectors under the named metric."""
    metric = get_metric(name)
    return float(metric(np.asarray(a, dtype=np.float64)[None, :],
                        np.asarray(b, dtype=np.float64))[0])
