"""A7 — descriptor index scaling: linear scan vs LSH, one query at a time.

The edge cache's vector lookups sit on the latency-critical path of
every recognition request, and the poster's "simple" implementation is a
linear scan.  This experiment fills both index types to increasing
occupancy and measures (a) real wall-clock time of ``query`` — one
descriptor per call, the only form a served request takes — (b) the
simulated cost model the edge charges, (c) LSH recall against the exact
scan — the price paid for sub-linear lookups — and (d) the speedup over
the pre-optimization implementation (`_LegacyLinearScan`), which is
what BENCH json files track as the before/after trajectory.
"""

from __future__ import annotations

import dataclasses
import gc
import time
import typing

import numpy as np

from repro.core.descriptors import VectorDescriptor
from repro.core.distance import get_metric
from repro.core.index import IvfIndex, LinearIndex, LshIndex
from repro.sim.rng import RngStreams
from repro.vision.features import EmbeddingSpace

DEFAULT_SIZES = (100, 1_000, 5_000, 10_000, 20_000)
DEFAULT_TIER_SIZES = (100_000, 1_000_000)
#: Rows normalised at a time when building a tier population.
_NORM_ROWS = 8192


class _LegacyLinearScan:
    """The seed implementation's query path, kept as the speedup baseline.

    Rebuilds the scan matrix with ``np.stack`` after any mutation and
    recomputes every row norm inside the metric on every query — exactly
    what :class:`LinearIndex` did before contiguous storage, cached
    norms and the single-query kernel.  Only used for before/after
    reporting.
    """

    def __init__(self, metric: str = "cosine"):
        self._metric = get_metric(metric)
        self._vectors: dict[int, np.ndarray] = {}
        self._matrix: np.ndarray | None = None
        self._ids: list[int] = []

    def insert(self, entry_id: int, descriptor: VectorDescriptor) -> None:
        self._vectors[entry_id] = descriptor.vector.astype(np.float64)
        self._matrix = None

    def query(self, descriptor: VectorDescriptor,
              threshold: float) -> tuple[int, float] | None:
        if not self._vectors:
            return None
        if self._matrix is None:
            self._ids = list(self._vectors)
            self._matrix = np.stack([self._vectors[i] for i in self._ids])
        vec = descriptor.vector.astype(np.float64)
        distances = self._metric(self._matrix, vec)
        best = int(np.argmin(distances))
        best_distance = float(distances[best])
        if best_distance <= threshold:
            return self._ids[best], best_distance
        return None


def _legacy_signatures(planes: np.ndarray, vec: np.ndarray) -> list[int]:
    """The seed's per-insert signature path: a Python per-bit loop."""
    sigs = []
    for table in range(planes.shape[0]):
        bits = (planes[table] @ vec) > 0
        sig = 0
        for bit in bits:
            sig = (sig << 1) | int(bit)
        sigs.append(sig)
    return sigs


@dataclasses.dataclass(frozen=True)
class IndexRow:
    """One occupancy level."""

    n_entries: int
    linear_wall_us: float
    legacy_linear_us: float
    lsh_wall_us: float
    lsh_sig_us: float
    legacy_sig_us: float
    linear_model_us: float
    lsh_model_us: float
    lsh_recall: float
    lsh_candidates: float

    @property
    def speedup(self) -> float:
        """Per-query gain of the exact scan over the seed's scan."""
        return self.legacy_linear_us / self.linear_wall_us

    @property
    def sig_speedup(self) -> float:
        """Signature-computation gain over the seed's per-bit loop."""
        return self.legacy_sig_us / self.lsh_sig_us


def _check_decisions(got, want, threshold: float, eps: float = 1e-9) -> None:
    """Assert two result lists made the same match decisions,
    ignoring queries that sit within ``eps`` of the threshold."""
    for q, (a, b) in enumerate(zip(got, want)):
        margin = min(abs(d[1] - threshold) for d in (a, b) if d is not None
                     ) if (a is not None or b is not None) else np.inf
        if margin <= eps:
            continue
        assert (a is None) == (b is None) and (
            a is None or a[0] == b[0]), (
            f"query {q}: decisions diverge ({a} vs {b})")


def _fill(index, vectors: np.ndarray) -> None:
    for entry_id, vec in enumerate(vectors):
        index.insert(entry_id,
                     VectorDescriptor(kind="recognition", vector=vec))


def run_index_scaling(sizes: typing.Sequence[int] = DEFAULT_SIZES,
                      dim: int = 128, n_queries: int = 50,
                      threshold: float = 0.15,
                      seed: int = 0) -> list[IndexRow]:
    """Measure both indexes at each occupancy."""
    if not sizes:
        raise ValueError("need at least one size")
    if n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    rng = RngStreams(seed)
    space = EmbeddingSpace(dim=dim, n_classes=max(sizes), seed=seed)
    rows = []
    for n_entries in sizes:
        # One stored observation per class; queries probe a random subset
        # of the same classes from a nearby viewpoint (true matches exist).
        stored = np.stack([
            space.observe(cls, 0.0, noise_key=cls).vector
            for cls in range(n_entries)])
        query_classes = rng.stream(f"queries.{n_entries}").integers(
            0, n_entries, size=n_queries)
        queries = [VectorDescriptor(
            kind="recognition",
            vector=space.observe(int(cls), 0.4,
                                 noise_key=10_000_000 + int(cls)).vector)
            for cls in query_classes]

        legacy = _LegacyLinearScan()
        linear = LinearIndex()
        lsh = LshIndex(dim=dim)
        _fill(legacy, stored)
        _fill(linear, stored)
        _fill(lsh, stored)

        start = time.perf_counter()
        legacy_results = [legacy.query(q, threshold) for q in queries]
        legacy_wall = (time.perf_counter() - start) / n_queries

        start = time.perf_counter()
        linear_results = [linear.query(q, threshold) for q in queries]
        linear_wall = (time.perf_counter() - start) / n_queries

        start = time.perf_counter()
        lsh_results = [lsh.query(q, threshold) for q in queries]
        lsh_wall = (time.perf_counter() - start) / n_queries
        candidates = lsh.last_candidates

        # Insert-path cost: signature computation, new vs seed per-bit
        # loop, over a sample of the stored vectors.
        sample = stored[:min(n_entries, 200)].astype(np.float64)
        legacy_planes = lsh._planes.reshape(lsh.n_tables, lsh.n_bits, dim)
        start = time.perf_counter()
        for vec in sample:
            lsh._signatures(vec)
        sig_wall = (time.perf_counter() - start) / len(sample)
        start = time.perf_counter()
        for vec in sample:
            _legacy_signatures(legacy_planes, vec)
        legacy_sig_wall = (time.perf_counter() - start) / len(sample)

        # The optimized scan must agree with the seed path's decisions.
        # The comparison skips queries whose best distance sits within
        # float wobble of the threshold — different arithmetic pipelines
        # may legitimately disagree there.
        _check_decisions(linear_results, legacy_results, threshold)

        matched = [(a, b) for a, b in zip(linear_results, lsh_results)
                   if a is not None]
        recall = (sum(1 for a, b in matched
                      if b is not None and b[0] == a[0]) / len(matched)
                  if matched else float("nan"))

        rows.append(IndexRow(
            n_entries=n_entries,
            linear_wall_us=linear_wall * 1e6,
            legacy_linear_us=legacy_wall * 1e6,
            lsh_wall_us=lsh_wall * 1e6,
            lsh_sig_us=sig_wall * 1e6,
            legacy_sig_us=legacy_sig_wall * 1e6,
            linear_model_us=linear.lookup_cost_s() * 1e6,
            lsh_model_us=lsh.last_query_cost_s * 1e6,
            lsh_recall=recall,
            lsh_candidates=float(candidates)))
    return rows


@dataclasses.dataclass(frozen=True)
class TierRow:
    """One occupancy level of the storage/index tier comparison.

    The workload mirrors a metro aggregation cache: one dominant vector
    kind (recognition descriptors, 95% of rows) plus a thin secondary
    kind sharing the same dimension, probed by near-duplicate queries.
    ``float64_perkind_us`` is the oracle-tier baseline (one float64
    LinearIndex per kind); ``float32_perkind_us`` is the same layout in
    the deployment-default dtype, so their ratio isolates storage
    width.  Memory columns are the allocated store bytes for the same
    population inserted in one burst (so capacity equals occupancy and
    dtypes compare like for like).
    """

    n_entries: int
    float64_perkind_us: float
    float32_perkind_us: float
    int8_us: float
    ivf_us: float
    float64_memory_mb: float
    float32_memory_mb: float
    int8_memory_mb: float
    ivf_memory_mb: float
    float32_recall: float
    int8_recall: float
    ivf_recall: float
    ivf_candidates: float
    ivf_trainings: int

    @property
    def float32_speedup(self) -> float:
        """Per-kind float32 per-query time over per-kind float64."""
        return self.float64_perkind_us / self.float32_perkind_us


def _time_interleaved(thunks: dict[str, typing.Callable[[], object]],
                      reps: int) -> dict[str, float]:
    """Min wall time per thunk over ``reps`` round-robin passes.

    Interleaving the tiers (ABCD ABCD ...) instead of timing each one in
    a block means a load spike or thermal dip hits every tier, not
    whichever one happened to be running; the per-tier minimum then
    compares like against like.
    """
    gc.collect()
    best = {name: np.inf for name in thunks}
    for _ in range(reps):
        for name, fn in thunks.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def run_tier_scaling(sizes: typing.Sequence[int] = DEFAULT_TIER_SIZES,
                     dim: int = 128, n_queries: int = 200,
                     threshold: float = 0.05, aux_every: int = 20,
                     noise: float = 0.02, seed: int = 0,
                     timing_reps: int = 3) -> list[TierRow]:
    """Measure the storage/index tiers at 10^5-10^6 occupancy.

    Population: ``n`` unit vectors, every ``aux_every``-th row tagged as
    a secondary kind sharing the dimension (the realistic shape — the
    recognition namespace dominates a deployed cache).  Queries are
    near-duplicates of stored rows (``noise`` perturbation, well inside
    ``threshold``), so exact search always matches and approximate
    recall is measured against real positives.  Tiers:

    * per-kind float64 ``LinearIndex`` — the oracle tier and the
      timing/recall baseline;
    * per-kind float32 ``LinearIndex`` — the deployment default;
    * int8 ``LinearIndex`` — scalar-quantized storage, the memory tier;
    * float32 ``IvfIndex`` (auto-sized) — the sublinear tier.
    """
    if n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    rng = np.random.default_rng(seed)
    rows = []
    for n_entries in sizes:
        population = rng.standard_normal((n_entries, dim),
                                         dtype=np.float32)
        # Row by row is bit-identical; block by block keeps the norm's
        # squared copy to one block (a whole one is 512 MB at 10^6 rows).
        for lo in range(0, n_entries, _NORM_ROWS):
            block = population[lo:lo + _NORM_ROWS]
            block /= np.linalg.norm(block, axis=1, keepdims=True)
        is_aux = np.arange(n_entries) % aux_every == aux_every - 1
        descriptors = [
            VectorDescriptor(kind="aux" if is_aux[i] else "recognition",
                             vector=population[i])
            for i in range(n_entries)]
        items = list(enumerate(descriptors))
        rec_items = [it for it in items if it[1].kind == "recognition"]
        aux_items = [it for it in items if it[1].kind == "aux"]

        probe_rows = rng.integers(0, n_entries, size=n_queries)
        jitter = rng.standard_normal((n_queries, dim),
                                     dtype=np.float32) * noise
        queries = [
            VectorDescriptor(kind=descriptors[probe_rows[q]].kind,
                             vector=population[probe_rows[q]] + jitter[q])
            for q in range(n_queries)]

        # Build every tier up front, then time them interleaved so the
        # comparisons share environmental conditions.
        #
        # Baseline tier: one float64 LinearIndex per kind — the
        # historical arithmetic every other tier is compared against.
        f64_rec = LinearIndex(dtype="float64")
        f64_rec.insert_batch(rec_items)
        f64_aux = LinearIndex(dtype="float64")
        f64_aux.insert_batch(aux_items)

        # Deployment-default tier: the same per-kind layout in float32.
        f32_rec = LinearIndex(dtype="float32")
        f32_rec.insert_batch(rec_items)
        f32_aux = LinearIndex(dtype="float32")
        f32_aux.insert_batch(aux_items)

        # Every store is filled in a single burst (capacity ==
        # occupancy); incremental growth doubles capacity at the same
        # rate for every dtype, so the single-burst memory ratio is the
        # deployed ratio.
        #
        # int8 tier: scalar-quantized storage, one store for all rows.
        int8 = LinearIndex(dtype="int8")
        int8.insert_batch(items)

        # IVF tier: auto-sized coarse quantizer over all rows.
        ivf = IvfIndex(dim=dim, dtype="float32", seed=seed)
        ivf.insert_batch(items)

        def per_kind(rec_index, aux_index):
            """Each probe against its own kind's index, in query order."""
            return [(rec_index if q.kind == "recognition"
                     else aux_index).query(q, threshold) for q in queries]

        def one_index(index):
            return [index.query(q, threshold) for q in queries]

        # One ``query`` per probe, as a served request issues them.
        walls = _time_interleaved({
            "f64": lambda: per_kind(f64_rec, f64_aux),
            "f32": lambda: per_kind(f32_rec, f32_aux),
            "int8": lambda: one_index(int8),
            "ivf": lambda: one_index(ivf),
        }, timing_reps)

        truth = per_kind(f64_rec, f64_aux)

        def recall_of(results):
            matched = [(a, b) for a, b in zip(truth, results)
                       if a is not None]
            if not matched:
                return float("nan")
            return sum(1 for a, b in matched
                       if b is not None and b[0] == a[0]) / len(matched)

        f32_results = per_kind(f32_rec, f32_aux)
        int8_results = one_index(int8)
        ivf_results = one_index(ivf)

        rows.append(TierRow(
            n_entries=n_entries,
            float64_perkind_us=walls["f64"] / n_queries * 1e6,
            float32_perkind_us=walls["f32"] / n_queries * 1e6,
            int8_us=walls["int8"] / n_queries * 1e6,
            ivf_us=walls["ivf"] / n_queries * 1e6,
            float64_memory_mb=(f64_rec.memory_bytes()
                               + f64_aux.memory_bytes()) / 1e6,
            float32_memory_mb=(f32_rec.memory_bytes()
                               + f32_aux.memory_bytes()) / 1e6,
            int8_memory_mb=int8.memory_bytes() / 1e6,
            ivf_memory_mb=ivf.memory_bytes() / 1e6,
            float32_recall=recall_of(f32_results),
            int8_recall=recall_of(int8_results),
            ivf_recall=recall_of(ivf_results),
            ivf_candidates=float(ivf.last_candidates),
            ivf_trainings=ivf.trainings))
    return rows
