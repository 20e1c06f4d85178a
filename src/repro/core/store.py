"""Row storage under the vector indexes of :mod:`repro.core.index`.

Vector indexes keep their descriptors in a :class:`_VectorStore`: one
contiguous, preallocated matrix plus a parallel array of cached
Euclidean row norms.  Capacity grows by amortized doubling (never per
insert); removal swap-compacts the last row into the freed slot, so the
live rows are always the dense prefix ``matrix[:n]`` and every query is
one contiguous BLAS pass with no masking.  Cosine queries reuse the
cached norms instead of re-running ``np.linalg.norm`` over the store.

The store is exact and dtype-parametric.  ``"float32"`` is the default,
here and in the deployment config — client descriptors are float32
already (:class:`~repro.core.descriptors.VectorDescriptor` stores
float32 vectors), so halving the bytes loses no input precision, only
gemm accumulation width — and ``"float64"`` is the oracle tier: the
historical arithmetic, under which every golden digest is pinned too.
Either way a stored row cast back to float32 is the descriptor vector
it was inserted from, bit for bit, so the store is the one copy of a
cached vector (:meth:`~repro.core.cache.ICCache.descriptor`).
"""

from __future__ import annotations

import typing

import numpy as np

from repro.core.distance import cosine_distance_batch

#: Storage dtype vector indexes use unless told otherwise.  Descriptor
#: vectors are float32 at the source, so float32 storage is value-exact;
#: only gemm accumulation differs from the "float64" oracle tier.
DEFAULT_DTYPE = "float32"

#: Valid ``dtype`` arguments for vector stores / indexes.
STORE_DTYPES = ("float32", "float64")


class _VectorStore:
    """Contiguous dense vector storage with cached per-row norms.

    Live rows are the dense prefix ``[:n]`` of the matrix and the norms.
    Inserts append; capacity doubles when full (amortized O(dim) per
    insert).  Removes swap the last live row into the freed slot
    (O(dim), order not preserved).  ``norms[:n]`` always mirrors the
    live rows.

    Args:
        dtype: ``"float32"`` (default) or ``"float64"``; the matrix,
            norms, and all query arithmetic run in this dtype.
    """

    MIN_CAPACITY = 64

    def __init__(self, dtype: str = DEFAULT_DTYPE):
        if dtype not in STORE_DTYPES:
            raise ValueError(f"dtype must be float32/float64, got {dtype!r}")
        self.dtype = dtype
        #: The float dtype queries are cast to before any arithmetic.
        self.compute_dtype = np.dtype(dtype)
        self._matrix: np.ndarray | None = None  # (capacity, dim)
        self._norms: np.ndarray | None = None   # (capacity,)
        self._row_ids: list[int] = []           # row -> entry_id
        self._row_of: dict[int, int] = {}       # entry_id -> row
        self.dim: int | None = None

    def __len__(self) -> int:
        return len(self._row_ids)

    def __contains__(self, entry_id: int) -> bool:
        return entry_id in self._row_of

    @property
    def matrix(self) -> np.ndarray:
        """Dense (n, dim) view of the live rows."""
        return self._matrix[:len(self._row_ids)]

    @property
    def norms(self) -> np.ndarray:
        """Cached Euclidean norms of the live rows; (n,) view."""
        return self._norms[:len(self._row_ids)]

    def id_at(self, row: int) -> int:
        return self._row_ids[row]

    def rows_for(self, entry_ids: typing.Sequence[int]) -> np.ndarray:
        return np.fromiter((self._row_of[i] for i in entry_ids),
                           dtype=np.intp, count=len(entry_ids))

    def get(self, entry_id: int) -> np.ndarray:
        """The stored vector (a copy) for ``entry_id``."""
        return np.array(self._matrix[self._row_of[entry_id]])

    def take(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(vectors, norms)`` of the given rows, in row order."""
        return self._matrix[rows], self._norms[rows]

    def distances(self, queries: np.ndarray) -> np.ndarray:
        """(Q, n) cosine distances of a query block to every live row."""
        return cosine_distance_batch(self.matrix, queries,
                                     row_norms=self.norms)

    def memory_bytes(self) -> int:
        """Allocated bytes of the matrix and the norms."""
        if self._norms is None:
            return 0
        return self._matrix.nbytes + self._norms.nbytes

    def _grow(self, dim: int) -> None:
        """Make room for one more row: the first row allocates
        ``MIN_CAPACITY`` rows, a full store doubles."""
        if self._norms is None:
            self.dim = dim
            self._matrix = np.empty((self.MIN_CAPACITY, dim),
                                    dtype=self.compute_dtype)
            self._norms = np.empty(self.MIN_CAPACITY,
                                   dtype=self.compute_dtype)
            return
        n = len(self._row_ids)
        matrix = np.empty((2 * n, self.dim), dtype=self.compute_dtype)
        matrix[:n] = self._matrix
        norms = np.empty(2 * n, dtype=self.compute_dtype)
        norms[:n] = self._norms
        self._matrix, self._norms = matrix, norms

    def add(self, entry_id: int, vec: np.ndarray) -> None:
        n = len(self._row_ids)
        if self._norms is None or n == len(self._norms):
            self._grow(vec.shape[0])
        self._set_row(n, vec)
        self._row_ids.append(entry_id)
        self._row_of[entry_id] = n

    def remove(self, entry_id: int) -> None:
        row = self._row_of.pop(entry_id)
        last = len(self._row_ids) - 1
        last_id = self._row_ids.pop()
        if row != last:
            self._matrix[row] = self._matrix[last]
            self._norms[row] = self._norms[last]
            self._row_ids[row] = last_id
            self._row_of[last_id] = row

    def nearest_cosine(self, query: np.ndarray,
                       eps: float) -> tuple[int, float] | None:
        """Nearest live row of a non-empty store to one query.

        The single-query form of the exact cosine scan: one gemv, one
        scaling pass and two ``argmax`` rank the rows (for a fixed
        query, cosine distance is monotone non-increasing in
        ``dot / row_norm``), then the arithmetic of
        :func:`~repro.core.distance.cosine_distance_batch` — same
        operation order, dtype and degenerate-norm handling — runs on
        the best and runner-up rows only, so the ``(entry_id,
        distance)`` returned is bit-identical to an ``argmin`` over the
        full kernel's distances.  Score space may mis-order rows whose
        distances differ by a rounding error, so a runner-up within
        ``eps`` of the best, like a zero (or non-finite) query norm,
        returns None: the caller runs the full kernel instead.
        """
        # The full kernel's expressions (``linalg.norm`` along axis 1 is
        # this sum), so both round identically.
        query_norm = np.sqrt(np.add.reduce(query * query))
        if not query_norm > 0.0:
            return None
        dots = (query[None, :] @ self.matrix.T)[0]
        row_norms = self.norms

        def exact(col: int) -> float:
            row_norm = row_norms[col]
            if row_norm == 0.0:
                return 2.0
            cos = dots[col] / query_norm / row_norm
            return float(1.0 - min(max(cos, -1.0), 1.0))

        if row_norms.all():
            scores = dots / row_norms
        else:
            # A zero-norm row is never divided by: it keeps -inf.  (The
            # masked divide is ~2x the plain one on a large store.)
            scores = np.full_like(dots, -np.inf)
            np.divide(dots, row_norms, out=scores, where=row_norms != 0.0)
        best = int(scores.argmax())
        distance = exact(best)
        if len(row_norms) > 1:
            scores[best] = -np.inf
            # ``not >`` so a NaN distance falls back too.
            if not exact(int(scores.argmax())) - distance > eps:
                return None
        return self._row_ids[best], distance

    def _set_row(self, row: int, vec: np.ndarray) -> None:
        self._matrix[row] = vec
        # ``np.linalg.norm`` of a 1-D vector, without its dispatch.
        row_vec = self._matrix[row]
        self._norms[row] = np.sqrt(row_vec.dot(row_vec))
