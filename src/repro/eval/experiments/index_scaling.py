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
import time
import typing

import numpy as np

from repro.core.descriptors import VectorDescriptor
from repro.core.distance import cosine_distance_batch
from repro.core.index import LinearIndex, LshIndex
from repro.sim.rng import RngStreams
from repro.vision.features import EmbeddingSpace

DEFAULT_SIZES = (100, 1_000, 5_000, 10_000, 20_000)


class _LegacyLinearScan:
    """The seed implementation's query path, kept as the speedup baseline.

    Rebuilds the scan matrix with ``np.stack`` after any mutation and
    recomputes every row norm inside the kernel on every query — exactly
    what :class:`LinearIndex` did before contiguous storage, cached
    norms and the single-query kernel.  Only used for before/after
    reporting.
    """

    def __init__(self):
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
        distances = cosine_distance_batch(self._matrix, vec[None, :])[0]
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
    # One stored observation per class, each observed once (a class's
    # rows are derived on demand); a size stores the first n_entries.
    # Queries probe a random subset of the same classes from a nearby
    # viewpoint (true matches exist).
    stored_all = np.stack([space.observe(cls, 0.0, noise_key=cls).vector
                           for cls in range(max(sizes))])
    rows = []
    for n_entries in sizes:
        stored = stored_all[:n_entries]
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
