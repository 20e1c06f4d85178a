"""Descriptor indexes: how the edge finds "a result close enough".

Four implementations behind one interface:

* :class:`ExactIndex` — hash table for :class:`HashDescriptor` keys
  (3D models, panoramas).  O(1) lookups.
* :class:`LinearIndex` — vectorized scan over all stored vectors.  Exact
  nearest-neighbour; cost grows linearly with occupancy.
* :class:`LshIndex` — random-hyperplane locality-sensitive hashing.
  Sub-linear candidate sets at the price of missed borderline matches;
  the index-scaling ablation quantifies the trade.
* :class:`IvfIndex` — inverted-file coarse quantizer: k-means centroids
  over the stored vectors, an ``nprobe``-wide probe list per query, and
  exact re-ranking of the probed cells' members.  The million-entry
  tier: per-query work grows with ``K + n * nprobe / K`` instead of
  ``n``.

Storage layout
==============
Vector indexes keep their descriptors in a :class:`_VectorStore`: one
contiguous, preallocated matrix plus a parallel array of cached
Euclidean row norms.  Capacity grows by amortized doubling (never per
insert); removal swap-compacts the last row into the freed slot, so the
live rows are always the dense prefix ``matrix[:n]`` and every query is
one contiguous BLAS pass with no masking.  Cosine queries reuse the
cached norms instead of re-running ``np.linalg.norm`` over the store.

The store is dtype-parametric.  ``"float32"`` is the default, here and
in the deployment config — client descriptors are float32 already
(:class:`~repro.core.descriptors.VectorDescriptor` stores float32
vectors), so halving the bytes loses no input precision, only gemm
accumulation width — and ``"float64"`` is the oracle tier: the
historical arithmetic, under which every golden digest is pinned too.
``"int8"`` selects
:class:`_QuantizedVectorStore`: scalar quantization with per-row
scale/offset (4x smaller again), dequantized chunk-by-chunk at query
time.  Decision-stability margins scale with the dtype: float64 wobble
is ~1e-13, float32 gemm-order wobble is ~1e-6, so the boundary
re-answer epsilon is 1e-9 / 1e-5 respectively.

Batch API contract
==================
``query_batch(descriptors, threshold)`` answers a burst of same-kind
lookups in a single vectorized pass and returns one ``(entry_id,
distance) | None`` per descriptor, **in input order**, with the same
match decisions the equivalent sequence of ``query`` calls would make
(``query`` itself is implemented as a batch of one).  A batch of one
cosine query over float storage is answered by the store's single-query
kernel (:meth:`_VectorStore.nearest_cosine`), bit-identical to the full
distance kernel it falls back to.  An empty input returns an empty
list.  The
:class:`LinearIndex` form is one all-pairs BLAS call; the
:class:`LshIndex` form computes every table signature of every query in
one ``(Q, n_tables*n_bits)`` matmul with vectorized bit-packing (no
per-bit Python loop) and re-ranks per-query candidate sets against the
shared matrix/norm cache.

Lookup pricing
==============
Each index also *prices* its lookups so the edge node can charge
simulated time proportional to the real data-structure work — the cache
is not free, and the miss-overhead bars of Figure 2 include it.
``lookup_cost_s()`` is a stateless *a-priori* estimate at current
occupancy (for LSH: expected candidates under uniform bucket loading —
it does **not** depend on what the previous query happened to touch),
while ``last_query_cost_s`` records the realized cost of the most recent
query atomically with that query.

Affinity sketches
=================
For cache-affinity peer offload the edges need to answer "how likely is
*that* neighbour to hit this request?" without shipping whole caches
around.  :class:`AffinitySketch` is the compact, incrementally
maintained structure that makes this possible: every vector inserted
into (or dropped from) an :class:`~repro.core.cache.ICCache` is folded
down to the shared :data:`SKETCH_DIM`-dimensional input-sketch space and
hashed to a :data:`SKETCH_BITS`-bit random-hyperplane signature; the
sketch keeps a multiset of live signatures.  ``summary()`` snapshots
that multiset into a :class:`SketchSummary` — a few hundred bytes —
which edges gossip to their backhaul neighbours;
``SketchSummary.expected_hit`` then estimates hit probability as the
fraction of a peer's entries within a small Hamming radius of the query
signature.  The hyperplanes are a deterministic function of
``(seed, dim, bits)``, so every edge (and every client-side sketch)
agrees on bucket boundaries without any coordination.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

import numpy as np

from repro.core.descriptors import Descriptor, HashDescriptor, VectorDescriptor
from repro.core.distance import get_metric, get_metric_batch

#: Cheap input descriptor: dimension and client-side extraction cost.  A
#: perceptual hash / color-layout sketch, not a DNN backbone pass (the
#: layer cache and the affinity balancer share this space).
SKETCH_DIM = 32
SKETCH_COST_S = 0.004
#: Signature width of the affinity sketch.  10 bits / 1024 buckets keeps
#: same-content observations within Hamming radius 2 of each other ~96%
#: of the time while unrelated content lands that close < 5% of the time
#: (measured on the synthetic embedding geometry).
SKETCH_BITS = 10
#: Hamming radius ``SketchSummary.expected_hit`` integrates over.
SKETCH_RADIUS = 2
_SKETCH_SEED = 29


def input_sketch(vector: np.ndarray, dim: int = SKETCH_DIM) -> np.ndarray:
    """Project a full observation vector to the cheap input sketch.

    Deterministic fixed projection (averaging blocks of coordinates), so
    any two extractors agree; normalized for cosine matching.
    """
    full = np.asarray(vector, dtype=np.float64)
    if full.ndim != 1 or full.size < dim:
        raise ValueError(f"need a 1-D vector of at least {dim} elements")
    usable = (full.size // dim) * dim
    sketch = full[:usable].reshape(dim, -1).mean(axis=1)
    norm = np.linalg.norm(sketch)
    if norm == 0:
        raise ValueError("degenerate all-zero sketch")
    return sketch / norm


def _sketch_space(vector: np.ndarray) -> np.ndarray:
    """Fold any 1-D vector into the shared sketch space (never raises).

    Vectors already in sketch space pass through; longer ones are
    block-averaged like :func:`input_sketch` (normalization is skipped —
    hyperplane signs are scale-invariant); shorter ones are zero-padded.
    """
    vec = np.asarray(vector, dtype=np.float64).ravel()
    if vec.size == SKETCH_DIM:
        return vec
    if vec.size < SKETCH_DIM:
        padded = np.zeros(SKETCH_DIM, dtype=np.float64)
        padded[:vec.size] = vec
        return padded
    usable = (vec.size // SKETCH_DIM) * SKETCH_DIM
    return vec[:usable].reshape(SKETCH_DIM, -1).mean(axis=1)


@dataclasses.dataclass(frozen=True)
class SketchSummary:
    """A gossipable snapshot of one kind's :class:`AffinitySketch`.

    Attributes:
        n: Live entries behind the snapshot.
        counts: Signature -> live-entry count (only non-zero buckets).
        n_bits: Signature width the counts were taken under.
    """

    n: int
    counts: dict[int, int]
    n_bits: int = SKETCH_BITS

    @property
    def size_bytes(self) -> int:
        """Wire size: header plus (signature, count) pairs."""
        return 16 + 12 * len(self.counts)

    def expected_hit(self, signature: int,
                     radius: int = SKETCH_RADIUS) -> float:
        """Fraction of entries within ``radius`` bit flips of ``signature``.

        The affinity balancer's hit-probability estimate: content whose
        sketch lands in (or next to) a populated bucket is likely to
        match a cached descriptor under the recognition threshold.
        Cost grows as C(n_bits, radius) bucket probes — fine for the
        default radius, deliberate for anything larger.
        """
        if self.n <= 0:
            return 0.0
        mass = 0
        for r in range(min(radius, self.n_bits) + 1):
            for bits in itertools.combinations(range(self.n_bits), r):
                flipped = signature
                for b in bits:
                    flipped ^= (1 << b)
                mass += self.counts.get(flipped, 0)
        return min(1.0, mass / self.n)


class AffinitySketch:
    """Incrementally maintained signature multiset of one vector kind.

    Folds every vector through :func:`_sketch_space` and a fixed set of
    :data:`SKETCH_BITS` random hyperplanes (deterministic from the
    module seed, so all parties agree), keeping a count of live entries
    per signature.  ``add``/``remove`` are O(dim), ``discard`` (remove
    by the signature ``add`` returned) O(1); ``summary()`` snapshots the
    multiset for gossip.
    """

    def __init__(self, n_bits: int = SKETCH_BITS):
        if not 1 <= n_bits <= 62:
            raise ValueError("n_bits must be in [1, 62]")
        self.n_bits = n_bits
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            [_SKETCH_SEED, SKETCH_DIM, n_bits])))
        self._planes = rng.normal(size=(n_bits, SKETCH_DIM))
        self._weights = (1 << np.arange(n_bits - 1, -1, -1, dtype=np.int64))
        self._counts: dict[int, int] = {}
        self.n = 0

    def signature(self, vector: np.ndarray) -> int:
        """The bucket key of ``vector`` (any 1-D float vector)."""
        bits = (self._planes @ _sketch_space(vector)) > 0
        return int(bits @ self._weights)

    def add(self, vector: np.ndarray) -> int:
        """Count ``vector`` in; returns its signature for :meth:`discard`."""
        sig = self.signature(vector)
        self._counts[sig] = self._counts.get(sig, 0) + 1
        self.n += 1
        return sig

    def remove(self, vector: np.ndarray) -> None:
        self.discard(self.signature(vector))

    def discard(self, sig: int) -> None:
        """Count out one vector by the signature :meth:`add` returned."""
        left = self._counts.get(sig, 0) - 1
        if left > 0:
            self._counts[sig] = left
        else:
            self._counts.pop(sig, None)
        self.n = max(0, self.n - 1)

    def summary(self) -> SketchSummary:
        """A frozen snapshot for gossip (counts are copied)."""
        return SketchSummary(n=self.n, counts=dict(self._counts),
                             n_bits=self.n_bits)

    def __len__(self) -> int:
        return self.n


class IndexEntryExists(ValueError):
    """The entry id is already present in the index."""


#: Storage dtype vector indexes use unless told otherwise.  Descriptor
#: vectors are float32 at the source, so float32 storage is value-exact;
#: only gemm accumulation differs from the "float64" oracle tier.
DEFAULT_DTYPE = "float32"

#: Valid ``dtype`` arguments for vector stores / indexes.
STORE_DTYPES = ("float32", "float64", "int8")


def _decision_eps(dtype: str) -> float:
    """Decision-stability margin for batch-vs-sequential re-answers.

    Far wider than the dtype's BLAS summation-order wobble (~1e-13 for
    float64 accumulation, ~1e-6 for float32), far narrower than any
    real match margin.
    """
    return 1e-9 if dtype == "float64" else 1e-5


class _VectorStore:
    """Contiguous dense vector storage with cached per-row norms.

    Rows live in the dense prefix ``matrix[:n]``.  Inserts append;
    capacity doubles when full (amortized O(dim) per insert).  Removes
    swap the last live row into the freed slot (O(dim), order not
    preserved).  ``norms[:n]`` always mirrors ``matrix[:n]``.

    Args:
        dtype: ``"float32"`` (default) or ``"float64"``; the matrix,
            norms, and all query arithmetic run in this dtype.
    """

    MIN_CAPACITY = 64

    def __init__(self, dtype: str = DEFAULT_DTYPE):
        if dtype not in ("float32", "float64"):
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
        queries = query[None, :]
        # The full kernel's own expressions, so both round identically.
        query_norm = np.linalg.norm(queries, axis=1)[0]
        if not query_norm > 0.0:
            return None
        dots = (queries @ self.matrix.T)[0]
        row_norms = self.norms

        def exact(col: int) -> float:
            row_norm = row_norms[col]
            if row_norm == 0.0:
                return 2.0
            cos = dots[col] / query_norm / row_norm
            return float(1.0 - min(max(cos, -1.0), 1.0))

        with np.errstate(divide="ignore", invalid="ignore"):
            scores = dots / row_norms
            scores[row_norms == 0.0] = -np.inf
            best = int(scores.argmax())
            distance = exact(best)
            if len(row_norms) > 1:
                scores[best] = -np.inf
                # ``not >`` so a NaN distance falls back too.
                if not exact(int(scores.argmax())) - distance > eps:
                    return None
        return self._row_ids[best], distance

    def memory_bytes(self) -> int:
        """Allocated array bytes (matrix + norms)."""
        if self._matrix is None:
            return 0
        return self._matrix.nbytes + self._norms.nbytes

    def _allocate(self, capacity: int, dim: int) -> None:
        self.dim = dim
        self._matrix = np.empty((capacity, dim), dtype=self.compute_dtype)
        self._norms = np.empty(capacity, dtype=self.compute_dtype)

    def _grow(self, capacity: int) -> None:
        n = len(self._row_ids)
        grown = np.empty((capacity, self.dim), dtype=self.compute_dtype)
        grown[:n] = self._matrix[:n]
        self._matrix = grown
        grown_norms = np.empty(capacity, dtype=self.compute_dtype)
        grown_norms[:n] = self._norms[:n]
        self._norms = grown_norms

    def add(self, entry_id: int, vec: np.ndarray) -> None:
        if self._matrix is None:
            self._allocate(max(self.MIN_CAPACITY, 1), vec.shape[0])
        n = len(self._row_ids)
        if n == self._matrix.shape[0]:
            self._grow(2 * n)
        self._matrix[n] = vec
        self._norms[n] = np.linalg.norm(self._matrix[n])
        self._row_ids.append(entry_id)
        self._row_of[entry_id] = n

    def add_batch(self, entry_ids: typing.Sequence[int],
                  matrix: np.ndarray) -> None:
        """Append many rows at once: one copy, at most one growth.

        ``matrix`` is (k, dim) and row j belongs to ``entry_ids[j]``.
        Capacity still grows by doubling, but at most once per burst
        instead of (potentially) several times across k inserts.
        """
        k = len(entry_ids)
        if k == 0:
            return
        if self._matrix is None:
            self._allocate(max(self.MIN_CAPACITY, k), matrix.shape[1])
        n = len(self._row_ids)
        if n + k > self._matrix.shape[0]:
            capacity = self._matrix.shape[0]
            while capacity < n + k:
                capacity *= 2
            self._grow(capacity)
        self._matrix[n:n + k] = matrix
        for j, entry_id in enumerate(entry_ids):
            # Per-row norms on purpose: an axis-1 reduction rounds
            # differently than the BLAS norm add() uses, and cached
            # norms feed simulated match decisions — batch and scalar
            # inserts must stay bit-identical.
            self._norms[n + j] = np.linalg.norm(self._matrix[n + j])
            self._row_ids.append(entry_id)
            self._row_of[entry_id] = n + j

    def remove(self, entry_id: int) -> None:
        row = self._row_of.pop(entry_id)
        last = len(self._row_ids) - 1
        last_id = self._row_ids.pop()
        if row != last:
            self._matrix[row] = self._matrix[last]
            self._norms[row] = self._norms[last]
            self._row_ids[row] = last_id
            self._row_of[last_id] = row


class _QuantizedVectorStore:
    """int8 scalar-quantized vector storage with per-row scale/offset.

    Same interface and swap-compact layout as :class:`_VectorStore`, a
    quarter of its float32 bytes: each row is stored as int8 codes in
    [-127, 127] plus a float32 affine ``(scale, offset)`` pair, so a
    stored value reconstructs as ``code * scale + offset`` with at most
    half a quantization step of error.  Norms are cached from the
    *dequantized* rows, so query-time distances are self-consistent.
    Queries dequantize chunk-by-chunk (:data:`CHUNK` rows at a time) to
    bound the float32 temporary, then run the normal BLAS metric —
    approximate storage, exact arithmetic over it.
    """

    MIN_CAPACITY = 64
    #: Rows dequantized per query chunk; bounds the float32 temporary
    #: at CHUNK * dim * 4 bytes (32 MB at 128-d) regardless of n.
    CHUNK = 65536

    dtype = "int8"
    compute_dtype = np.dtype(np.float32)

    def __init__(self):
        self._codes: np.ndarray | None = None    # (capacity, dim) int8
        self._scales: np.ndarray | None = None   # (capacity,) float32
        self._offsets: np.ndarray | None = None  # (capacity,) float32
        self._norms: np.ndarray | None = None    # (capacity,) float32
        self._row_ids: list[int] = []
        self._row_of: dict[int, int] = {}
        self.dim: int | None = None

    def __len__(self) -> int:
        return len(self._row_ids)

    def __contains__(self, entry_id: int) -> bool:
        return entry_id in self._row_of

    @property
    def matrix(self) -> np.ndarray:
        """Dequantized (n, dim) float32 matrix of the live rows.

        Materializes the whole store — fine for small stores and tests;
        queries should go through :meth:`distances`, which chunks.
        """
        return self._dequant(np.arange(len(self._row_ids), dtype=np.intp))

    @property
    def norms(self) -> np.ndarray:
        """Cached norms of the dequantized live rows; (n,) view."""
        return self._norms[:len(self._row_ids)]

    def id_at(self, row: int) -> int:
        return self._row_ids[row]

    def rows_for(self, entry_ids: typing.Sequence[int]) -> np.ndarray:
        return np.fromiter((self._row_of[i] for i in entry_ids),
                           dtype=np.intp, count=len(entry_ids))

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
        query count, so a batch of Q and Q batches of one run
        byte-identical arithmetic per (query, row) pair.
        """
        n = len(self._row_ids)
        blocks = []
        for start in range(0, n, self.CHUNK):
            rows = np.arange(start, min(start + self.CHUNK, n),
                             dtype=np.intp)
            blocks.append(metric_batch(self._dequant(rows), queries,
                                       row_norms=self._norms[rows]))
        return np.concatenate(blocks, axis=1)

    def memory_bytes(self) -> int:
        if self._codes is None:
            return 0
        return (self._codes.nbytes + self._scales.nbytes
                + self._offsets.nbytes + self._norms.nbytes)

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
        self.dim = dim
        self._codes = np.empty((capacity, dim), dtype=np.int8)
        self._scales = np.empty(capacity, dtype=np.float32)
        self._offsets = np.empty(capacity, dtype=np.float32)
        self._norms = np.empty(capacity, dtype=np.float32)

    def _grow(self, capacity: int) -> None:
        n = len(self._row_ids)
        for name in ("_codes", "_scales", "_offsets", "_norms"):
            old = getattr(self, name)
            grown = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            grown[:n] = old[:n]
            setattr(self, name, grown)

    def _set_row(self, row: int, vec: np.ndarray) -> None:
        codes, scale, offset = self._quantize(
            np.asarray(vec, dtype=np.float32))
        self._codes[row] = codes
        self._scales[row] = scale
        self._offsets[row] = offset
        self._norms[row] = np.linalg.norm(
            self._dequant(np.array([row], dtype=np.intp))[0])

    def add(self, entry_id: int, vec: np.ndarray) -> None:
        if self._codes is None:
            self._allocate(max(self.MIN_CAPACITY, 1), vec.shape[0])
        n = len(self._row_ids)
        if n == self._codes.shape[0]:
            self._grow(2 * n)
        self._set_row(n, vec)
        self._row_ids.append(entry_id)
        self._row_of[entry_id] = n

    def add_batch(self, entry_ids: typing.Sequence[int],
                  matrix: np.ndarray) -> None:
        k = len(entry_ids)
        if k == 0:
            return
        if self._codes is None:
            self._allocate(max(self.MIN_CAPACITY, k), matrix.shape[1])
        n = len(self._row_ids)
        if n + k > self._codes.shape[0]:
            capacity = self._codes.shape[0]
            while capacity < n + k:
                capacity *= 2
            self._grow(capacity)
        for j, entry_id in enumerate(entry_ids):
            # Row-at-a-time so batch and scalar inserts quantize (and
            # cache norms) bit-identically.
            self._set_row(n + j, matrix[j])
            self._row_ids.append(entry_id)
            self._row_of[entry_id] = n + j

    def remove(self, entry_id: int) -> None:
        row = self._row_of.pop(entry_id)
        last = len(self._row_ids) - 1
        last_id = self._row_ids.pop()
        if row != last:
            self._codes[row] = self._codes[last]
            self._scales[row] = self._scales[last]
            self._offsets[row] = self._offsets[last]
            self._norms[row] = self._norms[last]
            self._row_ids[row] = last_id
            self._row_of[last_id] = row


def _make_store(dtype: str) -> "_VectorStore | _QuantizedVectorStore":
    if dtype == "int8":
        return _QuantizedVectorStore()
    return _VectorStore(dtype=dtype)


class DescriptorIndex:
    """Interface shared by all index types."""

    #: Realized cost of the most recent query (mean per-descriptor cost
    #: for a batch), recorded atomically by query()/query_batch().
    last_query_cost_s: float | None = None

    def insert(self, entry_id: int, descriptor: Descriptor) -> None:
        raise NotImplementedError

    def insert_batch(self, items: typing.Sequence[
            tuple[int, Descriptor]]) -> None:
        """Insert many ``(entry_id, descriptor)`` pairs at once.

        Equivalent to inserting them one by one, but atomic — a
        validation failure leaves the index untouched — and vectorized
        where the index can amortize work across the burst: the vector
        indexes compute one signature matmul for the whole batch.
        """
        done: list[int] = []
        try:
            for entry_id, descriptor in items:
                self.insert(entry_id, descriptor)
                done.append(entry_id)
        except Exception:
            for entry_id in reversed(done):
                self.remove(entry_id)
            raise

    def remove(self, entry_id: int) -> None:
        raise NotImplementedError

    def query(self, descriptor: Descriptor,
              threshold: float) -> tuple[int, float] | None:
        """Best match within ``threshold`` as ``(entry_id, distance)``."""
        raise NotImplementedError

    def query_batch(self, descriptors: typing.Sequence[Descriptor],
                    threshold: float) -> list[tuple[int, float] | None]:
        """Answer many lookups at once; results in input order.

        Equivalent to ``[self.query(d, threshold) for d in descriptors]``
        but vectorized where the index supports it.
        """
        return [self.query(d, threshold) for d in descriptors]

    def lookup_cost_s(self) -> float:
        """Simulated seconds one query is expected to cost right now.

        A stateless estimate at current occupancy — it never depends on
        what the previous query touched (see ``last_query_cost_s`` for
        the realized figure).
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class ExactIndex(DescriptorIndex):
    """Hash-digest table; distance is 0.0 on match."""

    #: Fixed per-lookup cost: one hash probe plus bookkeeping.
    PROBE_COST_S = 2e-5

    def __init__(self):
        self._by_digest: dict[str, int] = {}
        self._by_entry: dict[int, str] = {}
        self.last_query_cost_s: float | None = None

    def insert(self, entry_id: int, descriptor: Descriptor) -> None:
        if not isinstance(descriptor, HashDescriptor):
            raise TypeError("ExactIndex stores HashDescriptor keys")
        if entry_id in self._by_entry:
            raise IndexEntryExists(f"entry {entry_id} already indexed")
        # Last write wins for duplicate digests: the newer entry supersedes
        # the older one, which the cache evicts independently.
        self._by_digest[descriptor.digest] = entry_id
        self._by_entry[entry_id] = descriptor.digest

    def remove(self, entry_id: int) -> None:
        digest = self._by_entry.pop(entry_id, None)
        if digest is None:
            raise KeyError(f"entry {entry_id} not in index")
        if self._by_digest.get(digest) == entry_id:
            del self._by_digest[digest]

    def query(self, descriptor: Descriptor,
              threshold: float) -> tuple[int, float] | None:
        if not isinstance(descriptor, HashDescriptor):
            raise TypeError("ExactIndex queries need HashDescriptor keys")
        self.last_query_cost_s = self.PROBE_COST_S
        entry_id = self._by_digest.get(descriptor.digest)
        if entry_id is None:
            return None
        return entry_id, 0.0

    def lookup_cost_s(self) -> float:
        return self.PROBE_COST_S

    def __len__(self) -> int:
        return len(self._by_entry)


class LinearIndex(DescriptorIndex):
    """Exact nearest-neighbour by brute-force vectorized scan.

    Vectors live in a shared :class:`_VectorStore` (contiguous matrix,
    amortized-doubling growth, swap-compacted removal, cached row norms),
    so queries never rebuild storage and cosine lookups skip the
    whole-store norm pass.  ``query`` is a batch of one; ``query_batch``
    answers Q lookups with a single (Q, N) BLAS call.
    """

    #: Cost model: fixed overhead + per-stored-vector scan cost.  The
    #: per-vector figure corresponds to a 128-d multiply-add pass.
    BASE_COST_S = 5e-5
    PER_VECTOR_COST_S = 2.5e-7

    def __init__(self, metric: str = "cosine", dtype: str = DEFAULT_DTYPE):
        self.metric_name = metric
        self.dtype = dtype
        self._metric = get_metric(metric)
        self._metric_batch = get_metric_batch(metric)
        self._store = _make_store(dtype)
        self._eps = _decision_eps(dtype)
        #: Whether the store's single-query kernel can answer for it.
        self._float_cosine = (metric == "cosine" and isinstance(
            self._store, _VectorStore))
        self.last_query_cost_s: float | None = None

    def insert(self, entry_id: int, descriptor: Descriptor) -> None:
        vec = self._validate(descriptor)
        if entry_id in self._store:
            raise IndexEntryExists(f"entry {entry_id} already indexed")
        self._store.add(entry_id, vec)

    def insert_batch(self, items: typing.Sequence[
            tuple[int, Descriptor]]) -> None:
        """Insert a burst in one validated store append."""
        ids, vecs = self._validate_batch(items)
        if not ids:
            return
        self._store.add_batch(ids, np.stack(vecs))

    def _validate_batch(self, items) -> tuple[list[int], list[np.ndarray]]:
        ids: list[int] = []
        vecs: list[np.ndarray] = []
        seen: set[int] = set()
        for entry_id, descriptor in items:
            if entry_id in self._store or entry_id in seen:
                raise IndexEntryExists(f"entry {entry_id} already indexed")
            seen.add(entry_id)
            ids.append(entry_id)
            vecs.append(self._validate(descriptor))
        return ids, vecs

    def remove(self, entry_id: int) -> None:
        if entry_id not in self._store:
            raise KeyError(f"entry {entry_id} not in index")
        self._store.remove(entry_id)

    def query(self, descriptor: Descriptor,
              threshold: float) -> tuple[int, float] | None:
        return self.query_batch([descriptor], threshold)[0]

    def query_batch(self, descriptors: typing.Sequence[Descriptor],
                    threshold: float) -> list[tuple[int, float] | None]:
        vecs = [self._validate(d, for_query=True) for d in descriptors]
        if not vecs:
            return []
        self.last_query_cost_s = self.lookup_cost_s()
        if len(self._store) == 0:
            return [None] * len(vecs)
        if len(vecs) == 1 and self._float_cosine:
            nearest = self._store.nearest_cosine(vecs[0], self._eps)
            if nearest is not None:
                return [nearest if nearest[1] <= threshold else None]
        queries = np.stack(vecs)
        distances = self._store.distances(self._metric_batch, queries)
        best = np.argmin(distances, axis=1)
        best_distance = distances[np.arange(len(vecs)), best]
        if distances.shape[1] > 1:
            runner_up = np.partition(distances, 1, axis=1)[:, 1]
        else:
            runner_up = np.full(len(vecs), np.inf)
        results: list[tuple[int, float] | None] = []
        for q, row in enumerate(best):
            d = float(best_distance[q])
            if len(vecs) > 1 and (
                    abs(d - threshold) <= self._eps
                    or runner_up[q] - d <= self._eps):
                # Boundary case: a one-query gemm and a Q-query gemm may
                # round differently (summation order), which could flip
                # an exact tie or a threshold-edge decision.  Re-answer
                # through the batch-of-one path — the same arithmetic a
                # sequential query() uses — so batch and sequential
                # decisions stay element-wise identical.
                results.append(self.query_batch([descriptors[q]],
                                                threshold)[0])
                continue
            if d <= threshold:
                results.append((self._store.id_at(int(row)), d))
            else:
                results.append(None)
        return results

    def lookup_cost_s(self) -> float:
        return self.BASE_COST_S + self.PER_VECTOR_COST_S * len(self._store)

    def memory_bytes(self) -> int:
        """Allocated storage bytes (the store's arrays)."""
        return self._store.memory_bytes()

    def __len__(self) -> int:
        return len(self._store)

    def _validate(self, descriptor: Descriptor,
                  for_query: bool = False) -> np.ndarray:
        if not isinstance(descriptor, VectorDescriptor):
            raise TypeError("LinearIndex stores VectorDescriptor keys")
        vec = np.asarray(descriptor.vector,
                         dtype=self._store.compute_dtype)
        if self._store.dim is not None and vec.shape[0] != self._store.dim:
            raise ValueError(
                f"dimension mismatch: index is {self._store.dim}-d, "
                f"descriptor is {vec.shape[0]}-d")
        return vec


class LshIndex(DescriptorIndex):
    """Random-hyperplane LSH with exact re-ranking of candidates.

    All hyperplanes live in one ``(n_tables * n_bits, dim)`` matrix, so
    the signatures of a query batch are a single matmul followed by
    vectorized bit-packing — no per-bit Python loop anywhere.  Candidate
    re-ranking reuses the shared :class:`_VectorStore` matrix and its
    cached norms.

    Recall floor: on near-duplicate workloads (query within a small
    perturbation of a stored vector) the default configuration holds
    recall >= 0.8 against :class:`LinearIndex` ground truth; the A7
    index-scaling bench and ``tests/property`` enforce this floor.

    Args:
        metric: Distance for candidate re-ranking (angles: use cosine).
        n_tables: Independent hash tables; more tables -> higher recall.
        n_bits: Hyperplanes per table (max 62, so a signature fits an
            int64 for vectorized packing); more bits -> smaller buckets.
        dim: Vector dimension (hyperplanes are drawn eagerly).
        seed: Hyperplane seed, fixed for reproducibility.
    """

    BASE_COST_S = 6e-5
    PER_CANDIDATE_COST_S = 2.5e-7
    PER_TABLE_COST_S = 2e-6

    def __init__(self, dim: int, metric: str = "cosine", n_tables: int = 8,
                 n_bits: int = 12, seed: int = 7,
                 dtype: str = DEFAULT_DTYPE):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if n_tables < 1 or n_bits < 1:
            raise ValueError("n_tables and n_bits must be >= 1")
        if n_bits > 62:
            raise ValueError("n_bits must be <= 62 (signature is an int64)")
        self.metric_name = metric
        self.dtype = dtype
        self._metric = get_metric(metric)
        self.dim = dim
        self.n_tables = n_tables
        self.n_bits = n_bits
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            [seed, dim, n_tables, n_bits])))
        # All hyperplane normals as one (n_tables * n_bits, dim) block;
        # row t*n_bits + b is bit b of table t.
        self._planes = np.ascontiguousarray(
            rng.normal(size=(n_tables, n_bits, dim)).reshape(
                n_tables * n_bits, dim))
        # MSB-first weights: bit b of a table carries 2**(n_bits - 1 - b).
        self._bit_weights = (1 << np.arange(n_bits - 1, -1, -1,
                                            dtype=np.int64))
        self._tables: list[dict[int, set[int]]] = [
            {} for _ in range(n_tables)]
        self._store = _make_store(dtype)
        self.last_candidates = 0
        self.last_query_cost_s: float | None = None

    def _signatures_batch(self, queries: np.ndarray) -> np.ndarray:
        """Bucket keys of a (Q, dim) block; (Q, n_tables) int64 matrix."""
        projections = queries @ self._planes.T
        bits = projections.reshape(
            queries.shape[0], self.n_tables, self.n_bits) > 0
        return bits @ self._bit_weights

    def _signatures(self, vec: np.ndarray) -> np.ndarray:
        """Bucket key of ``vec`` in each table (sign pattern as an int)."""
        return self._signatures_batch(vec[None, :])[0]

    def insert(self, entry_id: int, descriptor: Descriptor) -> None:
        vec = self._validate(descriptor)
        if entry_id in self._store:
            raise IndexEntryExists(f"entry {entry_id} already indexed")
        self._store.add(entry_id, vec)
        # Signatures come from the *stored* representation so that
        # remove() (which only has the store) recomputes the same
        # buckets — this matters for the int8 store, where the stored
        # row is the dequantized approximation, not the input.
        stored = self._store.get(entry_id)
        for table, sig in enumerate(self._signatures(stored)):
            self._tables[table].setdefault(int(sig), set()).add(entry_id)

    def insert_batch(self, items: typing.Sequence[
            tuple[int, Descriptor]]) -> None:
        """Insert a burst with ONE signature matmul for all entries.

        A warm-up flood or federation sync of k vectors costs one
        ``(k, n_tables * n_bits)`` projection instead of k small ones,
        plus a single store append.
        """
        ids: list[int] = []
        vecs: list[np.ndarray] = []
        seen: set[int] = set()
        for entry_id, descriptor in items:
            if entry_id in self._store or entry_id in seen:
                raise IndexEntryExists(f"entry {entry_id} already indexed")
            seen.add(entry_id)
            ids.append(entry_id)
            vecs.append(self._validate(descriptor))
        if not ids:
            return
        block = np.stack(vecs)
        self._store.add_batch(ids, block)
        # Stored representation, as in insert() (int8 store quantizes).
        stored_block, _ = self._store.take(self._store.rows_for(ids))
        signatures = self._signatures_batch(stored_block)
        for j, entry_id in enumerate(ids):
            for table in range(self.n_tables):
                self._tables[table].setdefault(
                    int(signatures[j, table]), set()).add(entry_id)

    def remove(self, entry_id: int) -> None:
        if entry_id not in self._store:
            raise KeyError(f"entry {entry_id} not in index")
        vec = self._store.get(entry_id)
        self._store.remove(entry_id)
        for table, sig in enumerate(self._signatures(vec)):
            bucket = self._tables[table].get(int(sig))
            if bucket is not None:
                bucket.discard(entry_id)
                if not bucket:
                    del self._tables[table][int(sig)]

    def query(self, descriptor: Descriptor,
              threshold: float) -> tuple[int, float] | None:
        return self.query_batch([descriptor], threshold)[0]

    def query_batch(self, descriptors: typing.Sequence[Descriptor],
                    threshold: float) -> list[tuple[int, float] | None]:
        vecs = [self._validate(d) for d in descriptors]
        if not vecs:
            return []
        signatures = self._signatures_batch(np.stack(vecs))
        results: list[tuple[int, float] | None] = []
        total_candidates = 0
        for q, vec in enumerate(vecs):
            candidates: set[int] = set()
            for table in range(self.n_tables):
                candidates |= self._tables[table].get(
                    int(signatures[q, table]), _EMPTY_BUCKET)
            self.last_candidates = len(candidates)
            total_candidates += len(candidates)
            if not candidates:
                results.append(None)
                continue
            ids = list(candidates)
            cand_matrix, cand_norms = self._store.take(
                self._store.rows_for(ids))
            distances = self._metric(cand_matrix, vec,
                                     row_norms=cand_norms)
            best = int(np.argmin(distances))
            best_distance = float(distances[best])
            if best_distance <= threshold:
                results.append((ids[best], best_distance))
            else:
                results.append(None)
        self.last_query_cost_s = self._price(total_candidates / len(vecs))
        return results

    def _price(self, n_candidates: float) -> float:
        return (self.BASE_COST_S
                + self.PER_TABLE_COST_S * self.n_tables
                + self.PER_CANDIDATE_COST_S * n_candidates)

    def lookup_cost_s(self) -> float:
        """Expected per-query cost at current occupancy.

        Prices the *expected* candidate-set size under uniform bucket
        loading (``n_tables * n / 2**n_bits``, capped at occupancy), so
        the estimate is stateless — unlike pricing from the previous
        query's candidates, it cannot under-charge the first lookup
        after construction.
        """
        return self._price(self._expected_candidates())

    def _expected_candidates(self) -> float:
        n = len(self._store)
        if n == 0:
            return 0.0
        return min(float(n), self.n_tables * n / float(2 ** self.n_bits))

    def memory_bytes(self) -> int:
        """Allocated storage bytes (store arrays + hyperplanes)."""
        return self._store.memory_bytes() + self._planes.nbytes

    def __len__(self) -> int:
        return len(self._store)

    def _validate(self, descriptor: Descriptor) -> np.ndarray:
        if not isinstance(descriptor, VectorDescriptor):
            raise TypeError("LshIndex stores VectorDescriptor keys")
        if descriptor.dim != self.dim:
            raise ValueError(
                f"dimension mismatch: index is {self.dim}-d, "
                f"descriptor is {descriptor.dim}-d")
        return np.asarray(descriptor.vector,
                          dtype=self._store.compute_dtype)


_EMPTY_BUCKET: frozenset[int] = frozenset()


class IvfIndex(DescriptorIndex):
    """Inverted-file index: k-means coarse quantizer + exact re-ranking.

    The million-entry tier.  Training runs Lloyd's algorithm over a
    deterministic subsample of the stored vectors (seeded from
    ``(seed, dim, n, K)``, so a given store always trains the same
    centroids); each stored vector is assigned to its nearest centroid's
    inverted list.  A query ranks the ``K`` centroids, gathers the
    members of the ``nprobe`` nearest cells, and re-ranks them exactly —
    per-query work grows with ``K + n * nprobe / K`` instead of ``n``.

    Lifecycle: below ``min_train`` entries the index is an exact linear
    scan (nothing to quantize yet).  The first insert at or past
    ``min_train`` trains; afterwards inserts assign incrementally, and
    the index re-trains whenever occupancy has grown by
    ``retrain_growth``x since the last training — centroids follow the
    catalog as it drifts, with amortized-constant re-train cost.

    Recall: with auto-sized ``K ~ sqrt(n)`` and the default ``nprobe``
    the near-duplicate drift workloads hold recall >= 0.95 against
    :class:`LinearIndex` ground truth (asserted by the index-scaling
    bench and the property suite).  More ``nprobe`` buys recall
    linearly in candidate cost.

    Args:
        dim: Vector dimension.
        metric: Distance for both coarse ranking and re-ranking.
        n_centroids: Cells to train (0 = auto, ``~sqrt(n)``).
        nprobe: Cells probed per query (0 = auto, a small constant — a
            *fixed* probe width is what keeps scaling sublinear).
        seed: Training seed (subsample choice + centroid init).
        dtype: Storage dtype, as :class:`_VectorStore`.
        min_train: Occupancy at which the first training runs.
        retrain_growth: Growth factor that triggers re-training.
        kmeans_iters: Lloyd iterations per training.
        train_sample: Max vectors fed to Lloyd (subsampled above this).
    """

    BASE_COST_S = 6e-5
    PER_CENTROID_COST_S = 1.2e-7
    PER_CANDIDATE_COST_S = 2.5e-7
    DEFAULT_NPROBE = 8

    def __init__(self, dim: int, metric: str = "cosine",
                 n_centroids: int = 0, nprobe: int = 0, seed: int = 13,
                 dtype: str = DEFAULT_DTYPE, min_train: int = 256,
                 retrain_growth: float = 4.0, kmeans_iters: int = 8,
                 train_sample: int = 20000):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if n_centroids < 0 or nprobe < 0:
            raise ValueError("n_centroids and nprobe must be >= 0")
        if min_train < 2:
            raise ValueError("min_train must be >= 2")
        if retrain_growth <= 1.0:
            raise ValueError("retrain_growth must be > 1.0")
        self.dim = dim
        self.metric_name = metric
        self.dtype = dtype
        self.n_centroids = n_centroids
        self.nprobe = nprobe
        self.seed = seed
        self.min_train = min_train
        self.retrain_growth = retrain_growth
        self.kmeans_iters = kmeans_iters
        self.train_sample = train_sample
        self._metric = get_metric(metric)
        self._metric_batch = get_metric_batch(metric)
        self._store = _make_store(dtype)
        self._eps = _decision_eps(dtype)
        self._centroids: np.ndarray | None = None
        self._centroid_norms: np.ndarray | None = None
        self._lists: list[set[int]] = []
        self._cell_of: dict[int, int] = {}
        self._trained_n = 0
        self.trainings = 0
        self.last_candidates = 0
        self.last_query_cost_s: float | None = None

    # -- maintenance -----------------------------------------------------------

    @property
    def trained(self) -> bool:
        return self._centroids is not None

    def _effective_nprobe(self) -> int:
        probe = self.nprobe or self.DEFAULT_NPROBE
        if self._centroids is not None:
            probe = min(probe, len(self._centroids))
        return probe

    def _assign_block(self, block: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest centroid (and its distance) for each row of a block."""
        d = self._metric_batch(self._centroids, block,
                               row_norms=self._centroid_norms)
        cells = np.argmin(d, axis=1)
        return cells, d[np.arange(len(block)), cells]

    def _train(self) -> None:
        n = len(self._store)
        k = self.n_centroids or max(4, int(round(np.sqrt(n))))
        k = min(k, n)
        sample_n = min(self.train_sample, n)
        # Deterministic stride subsample: stable under append-order and
        # cheap at 10^7 rows.
        sample_rows = np.unique(np.linspace(
            0, n - 1, sample_n).round().astype(np.intp))
        data, _ = self._store.take(sample_rows)
        data = np.asarray(data, dtype=np.float64)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            [self.seed, self.dim, n, k])))
        centroids = data[rng.choice(len(data), size=k, replace=False)]
        centroids = np.array(centroids)
        cnorms = np.linalg.norm(centroids, axis=1)
        for _ in range(self.kmeans_iters):
            assign = np.empty(len(data), dtype=np.intp)
            mindist = np.empty(len(data), dtype=np.float64)
            for s in range(0, len(data), 4096):
                block = data[s:s + 4096]
                d = self._metric_batch(centroids, block, row_norms=cnorms)
                assign[s:s + len(block)] = np.argmin(d, axis=1)
                mindist[s:s + len(block)] = d[
                    np.arange(len(block)), assign[s:s + len(block)]]
            counts = np.bincount(assign, minlength=k)
            sums = np.zeros_like(centroids)
            np.add.at(sums, assign, data)
            live = counts > 0
            centroids[live] = sums[live] / counts[live, None]
            empty = np.flatnonzero(~live)
            if len(empty):
                # Re-seed dead cells to the worst-served points.
                farthest = np.argsort(-mindist, kind="stable")[:len(empty)]
                centroids[empty] = data[farthest]
            cnorms = np.linalg.norm(centroids, axis=1)
        self._centroids = np.asarray(centroids,
                                     dtype=self._store.compute_dtype)
        self._centroid_norms = np.linalg.norm(self._centroids, axis=1)
        self._trained_n = n
        self.trainings += 1
        self._rebuild_lists()

    def _rebuild_lists(self) -> None:
        k = len(self._centroids)
        self._lists = [set() for _ in range(k)]
        self._cell_of = {}
        n = len(self._store)
        for s in range(0, n, 4096):
            rows = np.arange(s, min(s + 4096, n), dtype=np.intp)
            block, _ = self._store.take(rows)
            cells, _ = self._assign_block(
                np.asarray(block, dtype=self._store.compute_dtype))
            for j, row in enumerate(rows):
                entry_id = self._store.id_at(int(row))
                cell = int(cells[j])
                self._lists[cell].add(entry_id)
                self._cell_of[entry_id] = cell

    def _maintain(self) -> None:
        """Train or re-train if occupancy warrants it."""
        n = len(self._store)
        if self._centroids is None:
            if n >= self.min_train:
                self._train()
        elif n >= self.retrain_growth * max(1, self._trained_n):
            self._train()

    # -- mutation --------------------------------------------------------------

    def insert(self, entry_id: int, descriptor: Descriptor) -> None:
        vec = self._validate(descriptor)
        if entry_id in self._store:
            raise IndexEntryExists(f"entry {entry_id} already indexed")
        self._store.add(entry_id, vec)
        if self._centroids is not None:
            stored = np.asarray(self._store.get(entry_id),
                                dtype=self._store.compute_dtype)
            cells, _ = self._assign_block(stored[None, :])
            cell = int(cells[0])
            self._lists[cell].add(entry_id)
            self._cell_of[entry_id] = cell
        self._maintain()

    def insert_batch(self, items: typing.Sequence[
            tuple[int, Descriptor]]) -> None:
        ids: list[int] = []
        vecs: list[np.ndarray] = []
        seen: set[int] = set()
        for entry_id, descriptor in items:
            if entry_id in self._store or entry_id in seen:
                raise IndexEntryExists(f"entry {entry_id} already indexed")
            seen.add(entry_id)
            ids.append(entry_id)
            vecs.append(self._validate(descriptor))
        if not ids:
            return
        self._store.add_batch(ids, np.stack(vecs))
        if self._centroids is not None:
            block, _ = self._store.take(self._store.rows_for(ids))
            cells, _ = self._assign_block(
                np.asarray(block, dtype=self._store.compute_dtype))
            for j, entry_id in enumerate(ids):
                cell = int(cells[j])
                self._lists[cell].add(entry_id)
                self._cell_of[entry_id] = cell
        self._maintain()

    def remove(self, entry_id: int) -> None:
        if entry_id not in self._store:
            raise KeyError(f"entry {entry_id} not in index")
        self._store.remove(entry_id)
        cell = self._cell_of.pop(entry_id, None)
        if cell is not None:
            self._lists[cell].discard(entry_id)

    # -- queries ---------------------------------------------------------------

    def query(self, descriptor: Descriptor,
              threshold: float) -> tuple[int, float] | None:
        return self.query_batch([descriptor], threshold)[0]

    def query_batch(self, descriptors: typing.Sequence[Descriptor],
                    threshold: float) -> list[tuple[int, float] | None]:
        vecs = [self._validate(d) for d in descriptors]
        if not vecs:
            return []
        if len(self._store) == 0:
            self.last_candidates = 0
            self.last_query_cost_s = self.lookup_cost_s()
            return [None] * len(vecs)
        if self._centroids is None:
            return self._scan_all(descriptors, vecs, threshold)
        queries = np.stack(vecs)
        cdist = self._metric_batch(self._centroids, queries,
                                   row_norms=self._centroid_norms)
        order = np.argsort(cdist, axis=1, kind="stable")
        nprobe = self._effective_nprobe()
        results: list[tuple[int, float] | None] = []
        total_candidates = 0
        for q in range(len(vecs)):
            if len(vecs) > 1 and self._probe_boundary(cdist[q], order[q],
                                                      nprobe):
                # The probe cut sits inside gemm summation-order wobble:
                # a (Q, K) and a (1, K) centroid ranking could pick
                # different cells.  Re-answer through the batch-of-one
                # path — the same arithmetic a sequential query() uses —
                # so batch and sequential decisions stay identical.
                results.append(self.query_batch([descriptors[q]],
                                                threshold)[0])
                total_candidates += self.last_candidates
                continue
            candidates: set[int] = set()
            for cell in order[q, :nprobe]:
                candidates |= self._lists[int(cell)]
            total_candidates += len(candidates)
            if not candidates:
                results.append(None)
                continue
            ids = sorted(candidates)
            cand_matrix, cand_norms = self._store.take(
                self._store.rows_for(ids))
            distances = self._metric(cand_matrix, queries[q],
                                     row_norms=cand_norms)
            best = int(np.argmin(distances))
            d = float(distances[best])
            if d <= threshold:
                results.append((ids[best], d))
            else:
                results.append(None)
        self.last_candidates = int(round(total_candidates / len(vecs)))
        self.last_query_cost_s = self._price(total_candidates / len(vecs))
        return results

    def _probe_boundary(self, dist_row: np.ndarray, order_row: np.ndarray,
                        nprobe: int) -> bool:
        """True when the nprobe cut could flip under gemm wobble.

        Any cell swapping across the cut requires two of the first
        ``nprobe + 1`` sorted centroid distances to sit within the
        wobble margin of each other, so checking those gaps suffices.
        """
        if nprobe >= len(order_row):
            return False
        window = dist_row[order_row[:nprobe + 1]]
        return bool((np.diff(window) <= self._eps).any())

    def _scan_all(self, descriptors, vecs,
                  threshold: float) -> list[tuple[int, float] | None]:
        """Untrained fallback: the exact LinearIndex arithmetic."""
        queries = np.stack(vecs)
        distances = self._store.distances(self._metric_batch, queries)
        best = np.argmin(distances, axis=1)
        best_distance = distances[np.arange(len(vecs)), best]
        if distances.shape[1] > 1:
            runner_up = np.partition(distances, 1, axis=1)[:, 1]
        else:
            runner_up = np.full(len(vecs), np.inf)
        results: list[tuple[int, float] | None] = []
        for q, row in enumerate(best):
            d = float(best_distance[q])
            if len(vecs) > 1 and (
                    abs(d - threshold) <= self._eps
                    or runner_up[q] - d <= self._eps):
                results.append(self.query_batch([descriptors[q]],
                                                threshold)[0])
                continue
            if d <= threshold:
                results.append((self._store.id_at(int(row)), d))
            else:
                results.append(None)
        self.last_candidates = len(self._store)
        self.last_query_cost_s = self.lookup_cost_s()
        return results

    # -- pricing / introspection -----------------------------------------------

    def _price(self, n_candidates: float) -> float:
        return (self.BASE_COST_S
                + self.PER_CENTROID_COST_S * len(self._centroids)
                + self.PER_CANDIDATE_COST_S * n_candidates)

    def lookup_cost_s(self) -> float:
        """Expected per-query cost at current occupancy.

        Untrained, the index is a linear scan and prices like one.
        Trained, it pays the centroid ranking plus the expected
        candidate set under uniform cell loading
        (``n * nprobe / K``, capped at occupancy).
        """
        n = len(self._store)
        if self._centroids is None:
            return (LinearIndex.BASE_COST_S
                    + LinearIndex.PER_VECTOR_COST_S * n)
        k = len(self._centroids)
        expected = min(float(n), n * self._effective_nprobe() / float(k))
        return self._price(expected)

    def memory_bytes(self) -> int:
        """Allocated storage bytes (store arrays + centroids)."""
        total = self._store.memory_bytes()
        if self._centroids is not None:
            total += self._centroids.nbytes + self._centroid_norms.nbytes
        return total

    def __len__(self) -> int:
        return len(self._store)

    def _validate(self, descriptor: Descriptor) -> np.ndarray:
        if not isinstance(descriptor, VectorDescriptor):
            raise TypeError("IvfIndex stores VectorDescriptor keys")
        if descriptor.dim != self.dim:
            raise ValueError(
                f"dimension mismatch: index is {self.dim}-d, "
                f"descriptor is {descriptor.dim}-d")
        return np.asarray(descriptor.vector,
                          dtype=self._store.compute_dtype)


def make_index(spec: str, dim: int = 128, metric: str = "cosine",
               dtype: str = DEFAULT_DTYPE) -> DescriptorIndex:
    """Build an index from a config string.

    ``"exact"`` -> :class:`ExactIndex`; ``"linear"`` -> :class:`LinearIndex`;
    ``"lsh"`` or ``"lsh:T:B"`` -> :class:`LshIndex` with T tables, B bits;
    ``"ivf"``, ``"ivf:K"`` or ``"ivf:K:P"`` -> :class:`IvfIndex` with K
    centroids probing P cells (0 = auto for either).  ``dtype`` selects
    the vector storage mode (ignored by ``"exact"``).
    """
    if spec == "exact":
        return ExactIndex()
    if spec == "linear":
        return LinearIndex(metric=metric, dtype=dtype)
    if spec == "lsh":
        return LshIndex(dim=dim, metric=metric, dtype=dtype)
    if spec.startswith("lsh:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad lsh spec {spec!r}; use 'lsh:TABLES:BITS'")
        return LshIndex(dim=dim, metric=metric, n_tables=int(parts[1]),
                        n_bits=int(parts[2]), dtype=dtype)
    if spec == "ivf":
        return IvfIndex(dim=dim, metric=metric, dtype=dtype)
    if spec.startswith("ivf:"):
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"bad ivf spec {spec!r}; use 'ivf:CENTROIDS[:NPROBE]'")
        nprobe = int(parts[2]) if len(parts) == 3 else 0
        return IvfIndex(dim=dim, metric=metric, n_centroids=int(parts[1]),
                        nprobe=nprobe, dtype=dtype)
    raise ValueError(f"unknown index spec {spec!r}")
