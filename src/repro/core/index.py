"""Descriptor indexes: how the edge finds "a result close enough".

Three implementations behind one interface:

* :class:`ExactIndex` — hash table for :class:`HashDescriptor` keys
  (3D models, panoramas).  O(1) lookups.
* :class:`LinearIndex` — vectorized scan over all stored vectors.  Exact
  nearest-neighbour; cost grows linearly with occupancy.
* :class:`LshIndex` — random-hyperplane locality-sensitive hashing.
  Sub-linear candidate sets at the price of missed borderline matches;
  the index-scaling ablation quantifies the trade.

Vector descriptors live in the row stores of :mod:`repro.core.store`;
the two vector indexes share one skeleton, :class:`_VectorIndex`
(validation, atomic insert/remove, the exact scan), and add only their
search structure.  Every vector index ranks by cosine distance
(:func:`~repro.core.distance.cosine_distance_batch`).  ``query``
answers one descriptor — the only form a served request takes; the
exact scan is the store's single-query kernel
(:meth:`~repro.core.store._VectorStore.nearest_cosine`), bit-identical
to the full distance kernel it falls back to on a near-tie.

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
"""

from __future__ import annotations

import numpy as np

from repro.core.descriptors import Descriptor, HashDescriptor, VectorDescriptor
from repro.core.distance import cosine_distance_batch
from repro.core.store import DEFAULT_DTYPE, _VectorStore


class IndexEntryExists(ValueError):
    """The entry id is already present in the index."""


def _decision_eps(dtype: str) -> float:
    """How close a runner-up must be for the single-query kernel to
    decline and the full kernel to break the tie.

    Far wider than the dtype's rounding wobble (~1e-13 for float64
    accumulation, ~1e-6 for float32), far narrower than any real match
    margin.
    """
    return 1e-9 if dtype == "float64" else 1e-5


class DescriptorIndex:
    """Interface shared by all index types."""

    #: Realized cost of the most recent query, recorded atomically by
    #: query().
    last_query_cost_s: float | None = None

    def insert(self, entry_id: int, descriptor: Descriptor) -> None:
        raise NotImplementedError

    def remove(self, entry_id: int) -> None:
        raise NotImplementedError

    def query(self, descriptor: Descriptor,
              threshold: float) -> tuple[int, float] | None:
        """Best match within ``threshold`` as ``(entry_id, distance)``."""
        raise NotImplementedError

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
        # The newest entry per digest; older entries that share a digest
        # wait in ``_older`` (oldest first), so removing the newest hands
        # the digest back to the next newest live one.
        self._by_digest: dict[str, int] = {}
        self._older: dict[str, list[int]] = {}
        self._by_entry: dict[int, str] = {}
        self.last_query_cost_s: float | None = None

    def insert(self, entry_id: int, descriptor: Descriptor) -> None:
        if not isinstance(descriptor, HashDescriptor):
            raise TypeError("ExactIndex stores HashDescriptor keys")
        if entry_id in self._by_entry:
            raise IndexEntryExists(f"entry {entry_id} already indexed")
        # Last write wins for duplicate digests: the newer entry supersedes
        # the older one, which the cache evicts independently.
        digest = descriptor.digest
        newest = self._by_digest.get(digest)
        if newest is not None:
            self._older.setdefault(digest, []).append(newest)
        self._by_digest[digest] = entry_id
        self._by_entry[entry_id] = digest

    def digest(self, entry_id: int) -> str:
        """The digest ``entry_id`` was inserted under."""
        return self._by_entry[entry_id]

    def holds(self, digest: str) -> bool:
        """Whether some stored entry was inserted under ``digest``."""
        return digest in self._by_digest

    def remove(self, entry_id: int) -> None:
        digest = self._by_entry.pop(entry_id, None)
        if digest is None:
            raise KeyError(f"entry {entry_id} not in index")
        older = self._older.get(digest)
        if self._by_digest[digest] == entry_id:
            if older is None:
                del self._by_digest[digest]
                return
            self._by_digest[digest] = older.pop()
        else:
            older.remove(entry_id)
        if not older:
            del self._older[digest]

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


class _VectorIndex(DescriptorIndex):
    """What the two vector indexes share.

    Vectors live in one row store (:class:`~repro.core.store._VectorStore`:
    contiguous matrix, amortized-doubling growth, swap-compacted
    removal, cached row norms).  This base validates descriptors, keeps
    ``insert``/``remove`` atomic over that store, and owns the exact
    scan; a subclass adds its search structure by implementing
    ``query`` and, to keep the structure in step with the store, the
    ``_added`` / ``_removing`` hooks.
    """

    #: Vector dimension: fixed at construction by LSH (it draws its
    #: hyperplanes in it); None means "whatever the first stored vector
    #: has".
    dim: int | None = None

    def __init__(self, dtype: str = DEFAULT_DTYPE):
        self.dtype = dtype
        self._store = _VectorStore(dtype)
        self._eps = _decision_eps(dtype)
        self.last_query_cost_s: float | None = None

    def _validate(self, descriptor: Descriptor) -> np.ndarray:
        if not isinstance(descriptor, VectorDescriptor):
            raise TypeError(
                f"{type(self).__name__} stores VectorDescriptor keys")
        vec = np.asarray(descriptor.vector,
                         dtype=self._store.compute_dtype)
        dim = self._store.dim if self.dim is None else self.dim
        if dim is not None and vec.shape[0] != dim:
            raise ValueError(
                f"dimension mismatch: index is {dim}-d, "
                f"descriptor is {vec.shape[0]}-d")
        return vec

    def insert(self, entry_id: int, descriptor: Descriptor) -> None:
        vec = self._validate(descriptor)
        if entry_id in self._store:
            raise IndexEntryExists(f"entry {entry_id} already indexed")
        self._store.add(entry_id, vec)
        self._added(entry_id)

    def remove(self, entry_id: int) -> None:
        if entry_id not in self._store:
            raise KeyError(f"entry {entry_id} not in index")
        self._removing(entry_id)
        self._store.remove(entry_id)

    def _added(self, entry_id: int) -> None:
        """Hook: ``entry_id`` was just appended to the store.

        Subclasses read the row back from the store rather than keep
        the input — ``_removing`` only has the store.
        """

    def _removing(self, entry_id: int) -> None:
        """Hook: ``entry_id`` is about to leave the store."""

    def _exact_scan(self, vec: np.ndarray,
                    threshold: float) -> tuple[int, float] | None:
        """Exact nearest neighbour of one validated query vector.

        The store's single-query kernel answers; a query it declines
        (a near-tie, a zero norm) is one (1, n) pass of the full
        distance kernel.
        """
        if len(self._store) == 0:
            return None
        nearest = self._store.nearest_cosine(vec, self._eps)
        if nearest is not None:
            return nearest if nearest[1] <= threshold else None
        distances = self._store.distances(vec[None, :])[0]
        best = int(np.argmin(distances))
        d = float(distances[best])
        return (self._store.id_at(best), d) if d <= threshold else None

    def _rerank(self, ids: list[int], vec: np.ndarray,
                threshold: float) -> tuple[int, float] | None:
        """Exact best of the candidate ``ids`` for one query vector."""
        if not ids:
            return None
        cand_matrix, cand_norms = self._store.take(self._store.rows_for(ids))
        distances = cosine_distance_batch(cand_matrix, vec[None, :],
                                          row_norms=cand_norms)[0]
        best = int(np.argmin(distances))
        d = float(distances[best])
        return (ids[best], d) if d <= threshold else None

    def vector(self, entry_id: int) -> np.ndarray:
        """The float32 vector ``entry_id`` was inserted with (a copy).

        Exact: a float32 row holds the inserted bits, and a float64 row
        a float32 value widened, which narrowing gives back.
        """
        return self._store.get(entry_id).astype(np.float32, copy=False)

    def holds(self, vectors: np.ndarray) -> np.ndarray:
        """Which rows of the ``(m, dim)`` block ``vectors``, as float32,
        equal some stored :meth:`vector` bit for bit.

        The stored rows' first words pick the candidates; only those
        rows are narrowed and compared whole, as bytes.
        """
        wanted = np.ascontiguousarray(vectors, dtype=np.float32)
        held = np.zeros(len(wanted), dtype=bool)
        if len(self._store) == 0 or self._store.dim != wanted.shape[1]:
            return held
        matrix = self._store.matrix
        wanted = wanted.view(np.uint32)
        first = np.ascontiguousarray(matrix[:, 0], dtype=np.float32)
        rows = matrix[np.isin(first.view(np.uint32), wanted[:, 0])]
        rows = rows.astype(np.float32, copy=False).view(np.uint32)
        for j, word in enumerate(wanted):
            held[j] = (rows == word).all(axis=1).any()
        return held

    def memory_bytes(self) -> int:
        """Allocated storage bytes (the store's arrays)."""
        return self._store.memory_bytes()

    def __len__(self) -> int:
        return len(self._store)


class LinearIndex(_VectorIndex):
    """Exact nearest-neighbour by brute-force vectorized scan.

    Queries never rebuild storage and cosine lookups skip the
    whole-store norm pass.
    """

    #: Cost model: fixed overhead + per-stored-vector scan cost.  The
    #: per-vector figure corresponds to a 128-d multiply-add pass.
    BASE_COST_S = 5e-5
    PER_VECTOR_COST_S = 2.5e-7

    def query(self, descriptor: Descriptor,
              threshold: float) -> tuple[int, float] | None:
        vec = self._validate(descriptor)
        self.last_query_cost_s = self.lookup_cost_s()
        return self._exact_scan(vec, threshold)

    def lookup_cost_s(self) -> float:
        return self.BASE_COST_S + self.PER_VECTOR_COST_S * len(self._store)


class LshIndex(_VectorIndex):
    """Random-hyperplane LSH with exact re-ranking of candidates.

    All hyperplanes live in one ``(n_tables * n_bits, dim)`` matrix, so
    the signatures of a vector are a single matmul followed by
    vectorized bit-packing, no per-bit Python loop anywhere.  Candidate
    re-ranking reuses the store's matrix and its cached norms.

    Recall floor: on near-duplicate workloads (query within a small
    perturbation of a stored vector) the default configuration holds
    recall >= 0.8 against :class:`LinearIndex` ground truth; the A7
    index-scaling bench and ``tests/property`` enforce this floor.

    Args:
        n_tables: Independent hash tables; more tables -> higher recall.
        n_bits: Hyperplanes per table (max 62, so a signature fits an
            int64 for vectorized packing); more bits -> smaller buckets.
        dim: Vector dimension (hyperplanes are drawn eagerly).
        seed: Hyperplane seed, fixed for reproducibility.
    """

    BASE_COST_S = 6e-5
    PER_CANDIDATE_COST_S = 2.5e-7
    PER_TABLE_COST_S = 2e-6

    def __init__(self, dim: int, n_tables: int = 8, n_bits: int = 12,
                 seed: int = 7, dtype: str = DEFAULT_DTYPE):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if n_tables < 1 or n_bits < 1:
            raise ValueError("n_tables and n_bits must be >= 1")
        if n_bits > 62:
            raise ValueError("n_bits must be <= 62 (signature is an int64)")
        super().__init__(dtype)
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
        self.last_candidates = 0

    def _signatures(self, vec: np.ndarray) -> np.ndarray:
        """Bucket key of ``vec`` in each table (sign pattern as an int)."""
        projections = vec[None, :] @ self._planes.T
        bits = projections.reshape(self.n_tables, self.n_bits) > 0
        return bits @ self._bit_weights

    def _added(self, entry_id: int) -> None:
        signatures = self._signatures(self._store.get(entry_id))
        for table, sig in enumerate(signatures):
            self._tables[table].setdefault(int(sig), set()).add(entry_id)

    def _removing(self, entry_id: int) -> None:
        signatures = self._signatures(self._store.get(entry_id))
        for table, sig in enumerate(signatures):
            bucket = self._tables[table].get(int(sig))
            if bucket is not None:
                bucket.discard(entry_id)
                if not bucket:
                    del self._tables[table][int(sig)]

    def query(self, descriptor: Descriptor,
              threshold: float) -> tuple[int, float] | None:
        vec = self._validate(descriptor)
        candidates: set[int] = set()
        for table, sig in enumerate(self._signatures(vec)):
            candidates |= self._tables[table].get(int(sig), _EMPTY_BUCKET)
        self.last_candidates = len(candidates)
        self.last_query_cost_s = self._price(len(candidates))
        return self._rerank(list(candidates), vec, threshold)

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
        return super().memory_bytes() + self._planes.nbytes


_EMPTY_BUCKET: frozenset[int] = frozenset()


def make_index(spec: str, dim: int = 128,
               dtype: str = DEFAULT_DTYPE) -> DescriptorIndex:
    """Build an index from a config string.

    ``"exact"`` -> :class:`ExactIndex`; ``"linear"`` -> :class:`LinearIndex`;
    ``"lsh"`` or ``"lsh:T:B"`` -> :class:`LshIndex` with T tables, B bits.
    ``dtype`` selects the vector storage mode (ignored by ``"exact"``).
    """
    if spec == "exact":
        return ExactIndex()
    if spec == "linear":
        return LinearIndex(dtype=dtype)
    if spec == "lsh":
        return LshIndex(dim=dim, dtype=dtype)
    if spec.startswith("lsh:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad lsh spec {spec!r}; use 'lsh:TABLES:BITS'")
        return LshIndex(dim=dim, n_tables=int(parts[1]), n_bits=int(parts[2]),
                        dtype=dtype)
    raise ValueError(f"unknown index spec {spec!r}")
