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

Vector descriptors live in the row stores of :mod:`repro.core.store`;
the three vector indexes share one skeleton, :class:`_VectorIndex`
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

import typing

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

    def digest(self, entry_id: int) -> str:
        """The digest ``entry_id`` was inserted under."""
        return self._by_entry[entry_id]

    def digests(self) -> dict[int, str]:
        """``{entry_id: digest(entry_id)}`` for every stored entry."""
        return dict(self._by_entry)

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


class _VectorIndex(DescriptorIndex):
    """What the three vector indexes share.

    Vectors live in one row store (:class:`~repro.core.store._VectorStore`:
    contiguous matrix, amortized-doubling growth, swap-compacted
    removal, cached row norms).  This base validates descriptors, keeps
    ``insert``/``insert_batch``/``remove`` atomic over that store, and
    owns the exact scan; a subclass adds its search structure by
    implementing ``query`` and, to keep the structure in step with the
    store, the ``_added`` / ``_removing`` hooks.
    """

    #: Vector dimension: fixed at construction by LSH/IVF (they draw
    #: hyperplanes / train centroids in it); None means "whatever the
    #: first stored vector has".
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
        self._added((entry_id,))

    def insert_batch(self, items: typing.Sequence[
            tuple[int, Descriptor]]) -> None:
        """Insert a burst in one validated store append.

        The search structure then sees the whole burst at once
        (``_added``): a warm-up flood or federation sync of k vectors
        costs LSH one ``(k, n_tables * n_bits)`` signature matmul, IVF
        one cell assignment, instead of k small ones.
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
        self._store.add_batch(ids, np.stack(vecs))
        self._added(ids)

    def remove(self, entry_id: int) -> None:
        if entry_id not in self._store:
            raise KeyError(f"entry {entry_id} not in index")
        self._removing(entry_id)
        self._store.remove(entry_id)

    def _added(self, ids: typing.Sequence[int]) -> None:
        """Hook: ``ids`` were just appended to the store.

        Subclasses read the rows back from the store rather than keep
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

    def vector_bytes(self) -> dict[int, bytes]:
        """``{entry_id: vector(entry_id).tobytes()}`` for every stored
        row, narrowed and copied out in one pass."""
        if len(self._store) == 0:
            return {}
        rows = self._store.matrix.astype(np.float32, copy=False)
        blob, width = rows.tobytes(), rows.shape[1] * rows.itemsize
        return {self._store.id_at(row): blob[row * width:(row + 1) * width]
                for row in range(len(rows))}

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
    the signatures of a query — or of a whole insert burst — are a
    single matmul followed by vectorized bit-packing, no per-bit Python
    loop anywhere.  Candidate re-ranking reuses the store's matrix and
    its cached norms.

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

    def _signatures_batch(self, queries: np.ndarray) -> np.ndarray:
        """Bucket keys of a (Q, dim) block; (Q, n_tables) int64 matrix."""
        projections = queries @ self._planes.T
        bits = projections.reshape(
            queries.shape[0], self.n_tables, self.n_bits) > 0
        return bits @ self._bit_weights

    def _signatures(self, vec: np.ndarray) -> np.ndarray:
        """Bucket key of ``vec`` in each table (sign pattern as an int)."""
        return self._signatures_batch(vec[None, :])[0]

    def _added(self, ids: typing.Sequence[int]) -> None:
        stored, _ = self._store.take(self._store.rows_for(ids))
        signatures = self._signatures_batch(stored)
        for j, entry_id in enumerate(ids):
            for table in range(self.n_tables):
                self._tables[table].setdefault(
                    int(signatures[j, table]), set()).add(entry_id)

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


class IvfIndex(_VectorIndex):
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
        n_centroids: Cells to train (0 = auto, ``~sqrt(n)``).
        nprobe: Cells probed per query (0 = auto, a small constant — a
            *fixed* probe width is what keeps scaling sublinear).
        seed: Training seed (subsample choice + centroid init).
        dtype: Storage dtype, as :class:`~repro.core.store._VectorStore`.
        min_train: Occupancy at which the first training runs.
        retrain_growth: Growth factor that triggers re-training.
        kmeans_iters: Lloyd iterations per training.
        train_sample: Max vectors fed to Lloyd (subsampled above this).
    """

    BASE_COST_S = 6e-5
    PER_CENTROID_COST_S = 1.2e-7
    PER_CANDIDATE_COST_S = 2.5e-7
    DEFAULT_NPROBE = 8

    def __init__(self, dim: int, n_centroids: int = 0, nprobe: int = 0,
                 seed: int = 13, dtype: str = DEFAULT_DTYPE,
                 min_train: int = 256, retrain_growth: float = 4.0,
                 kmeans_iters: int = 8, train_sample: int = 20000):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if n_centroids < 0 or nprobe < 0:
            raise ValueError("n_centroids and nprobe must be >= 0")
        if min_train < 2:
            raise ValueError("min_train must be >= 2")
        if retrain_growth <= 1.0:
            raise ValueError("retrain_growth must be > 1.0")
        super().__init__(dtype)
        self.dim = dim
        self.n_centroids = n_centroids
        self.nprobe = nprobe
        self.seed = seed
        self.min_train = min_train
        self.retrain_growth = retrain_growth
        self.kmeans_iters = kmeans_iters
        self.train_sample = train_sample
        self._centroids: np.ndarray | None = None
        self._centroid_norms: np.ndarray | None = None
        self._lists: list[set[int]] = []
        self._cell_of: dict[int, int] = {}
        self._trained_n = 0
        self.trainings = 0
        self.last_candidates = 0

    # -- maintenance -----------------------------------------------------------

    @property
    def trained(self) -> bool:
        return self._centroids is not None

    def _effective_nprobe(self) -> int:
        probe = self.nprobe or self.DEFAULT_NPROBE
        if self._centroids is not None:
            probe = min(probe, len(self._centroids))
        return probe

    def _assign(self, ids: typing.Sequence[int]) -> None:
        """File the stored rows of ``ids`` under their nearest centroid."""
        block, _ = self._store.take(self._store.rows_for(ids))
        cells = np.argmin(cosine_distance_batch(
            self._centroids, block, row_norms=self._centroid_norms), axis=1)
        for entry_id, cell in zip(ids, cells.tolist()):
            self._lists[cell].add(entry_id)
            self._cell_of[entry_id] = cell

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
                d = cosine_distance_batch(centroids, block, row_norms=cnorms)
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
        self._lists = [set() for _ in range(k)]
        self._cell_of = {}
        for s in range(0, n, 4096):
            self._assign([self._store.id_at(row)
                          for row in range(s, min(s + 4096, n))])

    def _added(self, ids: typing.Sequence[int]) -> None:
        """Assign the new rows, then (re-)train if occupancy warrants."""
        n = len(self._store)
        if self._centroids is None:
            due = n >= self.min_train
        else:
            self._assign(ids)
            due = n >= self.retrain_growth * max(1, self._trained_n)
        if due:
            self._train()

    def _removing(self, entry_id: int) -> None:
        cell = self._cell_of.pop(entry_id, None)
        if cell is not None:
            self._lists[cell].discard(entry_id)

    # -- queries ---------------------------------------------------------------

    def query(self, descriptor: Descriptor,
              threshold: float) -> tuple[int, float] | None:
        vec = self._validate(descriptor)
        if self._centroids is None or len(self._store) == 0:
            self.last_candidates = len(self._store)
            self.last_query_cost_s = self.lookup_cost_s()
            return self._exact_scan(vec, threshold)
        order = np.argsort(cosine_distance_batch(
            self._centroids, vec[None, :],
            row_norms=self._centroid_norms)[0], kind="stable")
        candidates: set[int] = set()
        for cell in order[:self._effective_nprobe()]:
            candidates |= self._lists[int(cell)]
        self.last_candidates = len(candidates)
        self.last_query_cost_s = self._price(len(candidates))
        return self._rerank(sorted(candidates), vec, threshold)

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
        total = super().memory_bytes()
        if self._centroids is not None:
            total += self._centroids.nbytes + self._centroid_norms.nbytes
        return total


def make_index(spec: str, dim: int = 128,
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
        return LinearIndex(dtype=dtype)
    if spec == "lsh":
        return LshIndex(dim=dim, dtype=dtype)
    if spec.startswith("lsh:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad lsh spec {spec!r}; use 'lsh:TABLES:BITS'")
        return LshIndex(dim=dim, n_tables=int(parts[1]), n_bits=int(parts[2]),
                        dtype=dtype)
    if spec == "ivf":
        return IvfIndex(dim=dim, dtype=dtype)
    if spec.startswith("ivf:"):
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"bad ivf spec {spec!r}; use 'ivf:CENTROIDS[:NPROBE]'")
        nprobe = int(parts[2]) if len(parts) == 3 else 0
        return IvfIndex(dim=dim, n_centroids=int(parts[1]),
                        nprobe=nprobe, dtype=dtype)
    raise ValueError(f"unknown index spec {spec!r}")
