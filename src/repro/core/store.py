"""Row storage under the vector indexes of :mod:`repro.core.index`.

Vector indexes keep their descriptors in a :class:`_VectorStore`: one
contiguous, preallocated matrix plus a parallel array of cached
Euclidean row norms.  Capacity grows by amortized doubling (never per
insert); removal swap-compacts the last row into the freed slot, so the
live rows are always the dense prefix ``matrix[:n]`` and every query is
one contiguous BLAS pass with no masking.  Cosine queries reuse the
cached norms instead of re-running ``np.linalg.norm`` over the store.
That row table — ids, growth, swap-compaction — is :class:`_RowStore`;
the two stores below it differ only in what a row is made of.

The store is dtype-parametric.  ``"float32"`` is the default, here and
in the deployment config — client descriptors are float32 already
(:class:`~repro.core.descriptors.VectorDescriptor` stores float32
vectors), so halving the bytes loses no input precision, only gemm
accumulation width — and ``"float64"`` is the oracle tier: the
historical arithmetic, under which every golden digest is pinned too.
``"int8"`` selects
:class:`_QuantizedVectorStore`: scalar quantization with per-row
scale/offset (4x smaller again), dequantized chunk-by-chunk at query
time.
"""

from __future__ import annotations

import typing

import numpy as np

#: Storage dtype vector indexes use unless told otherwise.  Descriptor
#: vectors are float32 at the source, so float32 storage is value-exact;
#: only gemm accumulation differs from the "float64" oracle tier.
DEFAULT_DTYPE = "float32"

#: Valid ``dtype`` arguments for vector stores / indexes.
STORE_DTYPES = ("float32", "float64", "int8")


class _RowStore:
    """The swap-compact row table both vector stores are built on.

    Live rows are the dense prefix ``[:n]`` of every per-row array.
    Inserts append; capacity doubles when full (amortized O(dim) per
    insert).  Removes swap the last live row into the freed slot
    (O(dim), order not preserved).  ``norms[:n]`` always mirrors the
    live rows.

    A subclass names its per-row arrays in :attr:`_COLUMNS` (plain
    attributes, ``_norms`` among them), creates them in ``_allocate``
    and fills one row of each in ``_set_row``.
    """

    MIN_CAPACITY = 64
    _COLUMNS: tuple[str, ...] = ()

    def __init__(self):
        self._norms: np.ndarray | None = None   # (capacity,)
        self._row_ids: list[int] = []           # row -> entry_id
        self._row_of: dict[int, int] = {}       # entry_id -> row
        self.dim: int | None = None

    def __len__(self) -> int:
        return len(self._row_ids)

    def __contains__(self, entry_id: int) -> bool:
        return entry_id in self._row_of

    @property
    def norms(self) -> np.ndarray:
        """Cached Euclidean norms of the live rows; (n,) view."""
        return self._norms[:len(self._row_ids)]

    def id_at(self, row: int) -> int:
        return self._row_ids[row]

    def rows_for(self, entry_ids: typing.Sequence[int]) -> np.ndarray:
        return np.fromiter((self._row_of[i] for i in entry_ids),
                           dtype=np.intp, count=len(entry_ids))

    def memory_bytes(self) -> int:
        """Allocated bytes of the per-row arrays."""
        if self._norms is None:
            return 0
        return sum(getattr(self, name).nbytes for name in self._COLUMNS)

    def _reserve(self, k: int, dim: int) -> None:
        """Make room for ``k`` more rows, doubling capacity as needed."""
        if self._norms is None:
            self.dim = dim
            self._allocate(max(self.MIN_CAPACITY, k), dim)
            return
        n = len(self._row_ids)
        capacity = len(self._norms)
        if n + k <= capacity:
            return
        while capacity < n + k:
            capacity *= 2
        for name in self._COLUMNS:
            old = getattr(self, name)
            grown = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            grown[:n] = old[:n]
            setattr(self, name, grown)

    def add(self, entry_id: int, vec: np.ndarray) -> None:
        n = len(self._row_ids)
        if self._norms is None or n == len(self._norms):
            self._reserve(1, vec.shape[0])
        self._set_row(n, vec)
        self._row_ids.append(entry_id)
        self._row_of[entry_id] = n

    def add_batch(self, entry_ids: typing.Sequence[int],
                  matrix: np.ndarray) -> None:
        """Append many rows at once, with at most one growth.

        ``matrix`` is (k, dim) and row j belongs to ``entry_ids[j]``.
        Capacity still grows by doubling, but at most once per burst
        instead of (potentially) several times across k inserts.  Rows
        are written one at a time on purpose: an axis-1 norm reduction
        rounds differently than the BLAS norm ``add`` uses, and cached
        norms (like int8 codes) feed simulated match decisions — batch
        and scalar inserts must stay bit-identical.
        """
        if len(entry_ids) == 0:
            return
        self._reserve(len(entry_ids), matrix.shape[1])
        n = len(self._row_ids)
        for j, entry_id in enumerate(entry_ids):
            self._set_row(n + j, matrix[j])
            self._row_ids.append(entry_id)
            self._row_of[entry_id] = n + j

    def remove(self, entry_id: int) -> None:
        row = self._row_of.pop(entry_id)
        last = len(self._row_ids) - 1
        last_id = self._row_ids.pop()
        if row != last:
            for name in self._COLUMNS:
                column = getattr(self, name)
                column[row] = column[last]
            self._row_ids[row] = last_id
            self._row_of[last_id] = row

    def _allocate(self, capacity: int, dim: int) -> None:
        raise NotImplementedError

    def _set_row(self, row: int, vec: np.ndarray) -> None:
        raise NotImplementedError


class _VectorStore(_RowStore):
    """Contiguous dense vector storage with cached per-row norms.

    Args:
        dtype: ``"float32"`` (default) or ``"float64"``; the matrix,
            norms, and all query arithmetic run in this dtype.
    """

    _COLUMNS = ("_matrix", "_norms")

    def __init__(self, dtype: str = DEFAULT_DTYPE):
        if dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32/float64, got {dtype!r}")
        super().__init__()
        self.dtype = dtype
        #: The float dtype queries are cast to before any arithmetic.
        self.compute_dtype = np.dtype(dtype)
        self._matrix: np.ndarray | None = None  # (capacity, dim)

    @property
    def matrix(self) -> np.ndarray:
        """Dense (n, dim) view of the live rows."""
        return self._matrix[:len(self._row_ids)]

    def get(self, entry_id: int) -> np.ndarray:
        """The stored vector (a copy) for ``entry_id``."""
        return np.array(self._matrix[self._row_of[entry_id]])

    def take(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(vectors, norms)`` of the given rows, in row order."""
        return self._matrix[rows], self._norms[rows]

    def distances(self, metric_batch, queries: np.ndarray) -> np.ndarray:
        """(Q, n) distances of a query block against every live row."""
        return metric_batch(self.matrix, queries, row_norms=self.norms)

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

    def _allocate(self, capacity: int, dim: int) -> None:
        self._matrix = np.empty((capacity, dim), dtype=self.compute_dtype)
        self._norms = np.empty(capacity, dtype=self.compute_dtype)

    def _set_row(self, row: int, vec: np.ndarray) -> None:
        self._matrix[row] = vec
        # ``np.linalg.norm`` of a 1-D vector, without its dispatch.
        row_vec = self._matrix[row]
        self._norms[row] = np.sqrt(row_vec.dot(row_vec))


class _QuantizedVectorStore(_RowStore):
    """int8 scalar-quantized vector storage with per-row scale/offset.

    Same interface as :class:`_VectorStore`, a quarter of its float32
    bytes: each row is stored as int8 codes in [-127, 127] plus a
    float32 affine ``(scale, offset)`` pair, so a stored value
    reconstructs as ``code * scale + offset`` with at most half a
    quantization step of error.  Norms are cached from the
    *dequantized* rows, so query-time distances are self-consistent.
    Queries dequantize chunk-by-chunk (:data:`CHUNK` rows at a time) to
    bound the float32 temporary, then run the normal BLAS metric —
    approximate storage, exact arithmetic over it.
    """

    #: Rows dequantized per query chunk; bounds the float32 temporary
    #: at CHUNK * dim * 4 bytes (32 MB at 128-d) regardless of n.
    CHUNK = 65536

    _COLUMNS = ("_codes", "_scales", "_offsets", "_norms")

    dtype = "int8"
    compute_dtype = np.dtype(np.float32)

    def __init__(self):
        super().__init__()
        self._codes: np.ndarray | None = None    # (capacity, dim) int8
        self._scales: np.ndarray | None = None   # (capacity,) float32
        self._offsets: np.ndarray | None = None  # (capacity,) float32

    @property
    def matrix(self) -> np.ndarray:
        """Dequantized (n, dim) float32 matrix of the live rows.

        Materializes the whole store — fine for small stores and tests;
        queries should go through :meth:`distances`, which chunks.
        """
        return self._dequant(np.arange(len(self._row_ids), dtype=np.intp))

    def get(self, entry_id: int) -> np.ndarray:
        """The stored (dequantized) vector for ``entry_id``."""
        return self._dequant(np.array([self._row_of[entry_id]],
                                      dtype=np.intp))[0]

    def _dequant(self, rows: np.ndarray) -> np.ndarray:
        out = self._codes[rows].astype(np.float32)
        out *= self._scales[rows, None]
        out += self._offsets[rows, None]
        return out

    def take(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._dequant(np.asarray(rows, dtype=np.intp)), \
            self._norms[rows]

    def distances(self, metric_batch, queries: np.ndarray) -> np.ndarray:
        """(Q, n) distances, dequantizing :data:`CHUNK` rows at a time.

        Chunk boundaries depend only on the row count, never on the
        query count.
        """
        n = len(self._row_ids)
        blocks = []
        for start in range(0, n, self.CHUNK):
            rows = np.arange(start, min(start + self.CHUNK, n),
                             dtype=np.intp)
            blocks.append(metric_batch(self._dequant(rows), queries,
                                       row_norms=self._norms[rows]))
        return np.concatenate(blocks, axis=1)

    def _quantize(self, vec: np.ndarray
                  ) -> tuple[np.ndarray, np.float32, np.float32]:
        lo = float(vec.min())
        hi = float(vec.max())
        offset = np.float32((hi + lo) / 2.0)
        scale = np.float32((hi - lo) / 254.0)
        if scale == 0:
            return np.zeros(vec.shape[0], dtype=np.int8), scale, offset
        codes = np.clip(np.rint((vec - offset) / scale), -127, 127)
        return codes.astype(np.int8), scale, offset

    def _allocate(self, capacity: int, dim: int) -> None:
        self._codes = np.empty((capacity, dim), dtype=np.int8)
        self._scales = np.empty(capacity, dtype=np.float32)
        self._offsets = np.empty(capacity, dtype=np.float32)
        self._norms = np.empty(capacity, dtype=np.float32)

    def _set_row(self, row: int, vec: np.ndarray) -> None:
        codes, scale, offset = self._quantize(
            np.asarray(vec, dtype=np.float32))
        self._codes[row] = codes
        self._scales[row] = scale
        self._offsets[row] = offset
        row_vec = self._dequant(np.array([row], dtype=np.intp))[0]
        self._norms[row] = np.sqrt(row_vec.dot(row_vec))


def make_store(dtype: str) -> _VectorStore | _QuantizedVectorStore:
    """The store for a ``dtype`` in :data:`STORE_DTYPES`."""
    if dtype == "int8":
        return _QuantizedVectorStore()
    return _VectorStore(dtype=dtype)
