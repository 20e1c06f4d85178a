"""The edge IC cache: descriptor-keyed result store with byte capacity.

The central data structure of CoIC.  Results are keyed by descriptor;
vector descriptors match under a per-kind distance threshold, hash
descriptors match exactly.  Each descriptor *kind* gets its own index —
recognition vectors never collide with model hashes — while all kinds
share one byte budget under one eviction policy, because they share the
edge box's memory.

One read path: :meth:`ICCache.lookup` answers one descriptor with one
index ``query`` — a request is one lookup.  One write path:
:meth:`ICCache.insert` stores every entry; a burst (warm-up, a pre-warm
push) is :meth:`ICCache.insert_batch`, a loop over it.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import typing

import numpy as np

from repro.core.descriptors import Descriptor, HashDescriptor, VectorDescriptor
from repro.core.index import DescriptorIndex, ExactIndex, make_index
from repro.core.policies import EvictionPolicy, LruPolicy
from repro.core.sketch import AffinitySketch, SketchSummary
from repro.core.store import DEFAULT_DTYPE, STORE_DTYPES


@dataclasses.dataclass(slots=True)
class CacheEntry:
    """One cached IC result.

    An entry keeps its key's kind, not the key: the kind's index holds
    the digest or the vector row, the one copy of it, and
    :meth:`ICCache.descriptor` rebuilds the key from there.

    Attributes:
        entry_id: Unique id within the cache.
        kind: The kind of the key this result was stored under.
        result: The cached IC result object.
        size_bytes: Bytes charged against the cache capacity.
        cost_s: What producing the result cost (cloud compute + transfer);
            informs cost-aware policies (GDSF).
        created_at: Simulated insert time.
        last_access: Simulated time of the most recent hit.
        hits: Number of lookups served by this entry.
        sketch_signature: The affinity-sketch bucket a vector descriptor
            was counted into (None for hash kinds, and for every entry
            until the cache's first :meth:`ICCache.summary`), kept so the
            drop does not recompute it.
    """

    entry_id: int
    kind: str
    result: typing.Any
    size_bytes: int
    cost_s: float = 0.0
    created_at: float = 0.0
    last_access: float = 0.0
    hits: int = 0
    sketch_signature: int | None = None


@dataclasses.dataclass
class CacheStats:
    """Aggregate counters over the cache's lifetime."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected: int = 0  # entries larger than total capacity

    @property
    def hit_ratio(self) -> float:
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


@dataclasses.dataclass(frozen=True)
class CacheSummary:
    """A compact, gossipable snapshot of a cache's contents.

    What one edge tells its backhaul neighbours about itself so their
    affinity balancers can estimate "would an offload to me hit?":
    per-kind live entry counts plus, for vector kinds, the
    :class:`~repro.core.sketch.SketchSummary` signature multiset.  The
    snapshot is *stale by design* — it is refreshed on the gossip
    interval, not per insert — and ``size_bytes`` is what the gossip
    message pays on the wire.
    """

    kinds: dict[str, int]
    sketches: dict[str, SketchSummary]

    @property
    def size_bytes(self) -> int:
        return (64 + 24 * len(self.kinds)
                + sum(s.size_bytes for s in self.sketches.values()))

    def expected_hit(self, kind: str, signature: int) -> float:
        """Estimated hit probability for a query signature of ``kind``."""
        sketch = self.sketches.get(kind)
        if sketch is None:
            return 0.0
        return sketch.expected_hit(signature)


class ICCache:
    """Descriptor-keyed, byte-bounded, policy-evicted result cache.

    Args:
        capacity_bytes: Total byte budget across all descriptor kinds.
        policy: Eviction policy instance (default LRU, per the paper's
            "simple cache management policy").
        default_threshold: Vector-match threshold when the caller does not
            pass one explicitly.
        vector_index: Spec for vector-kind indexes ("linear", "lsh",
            "lsh:T:B") — hash kinds always use the exact index.
        vector_dtype: Storage dtype for vector indexes ("float32"
            default, "float64" oracle tier); see :mod:`repro.core.store`.
    """

    def __init__(self, capacity_bytes: int,
                 policy: EvictionPolicy | None = None,
                 default_threshold: float = 0.1,
                 vector_index: str = "linear",
                 vector_dtype: str = DEFAULT_DTYPE):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be > 0")
        if default_threshold < 0:
            raise ValueError("default_threshold must be >= 0")
        if vector_dtype not in STORE_DTYPES:
            raise ValueError(f"vector_dtype must be one of {STORE_DTYPES}, "
                             f"got {vector_dtype!r}")
        self.capacity_bytes = int(capacity_bytes)
        self.policy = policy if policy is not None else LruPolicy()
        self.default_threshold = default_threshold
        self.stats = CacheStats()
        self._vector_index_spec = vector_index
        self.vector_dtype = vector_dtype
        self._entries: dict[int, CacheEntry] = {}
        self._indexes: dict[str, DescriptorIndex] = {}
        #: Per-vector-kind affinity sketches for :meth:`summary`.  None
        #: until its first call (only affinity gossip reads them), then
        #: maintained incrementally on every insert/drop.
        self._sketches: dict[str, AffinitySketch] | None = None
        self._ids = itertools.count(1)
        self._bytes = 0

    # -- introspection -----------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Bytes currently stored."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[CacheEntry]:
        """Snapshot of live entries (unspecified order)."""
        return list(self._entries.values())

    def hottest(self, k: int, kind: str | None = None,
                kind_prefix: str | None = None,
                exclude_prefix: str | None = None) -> list[CacheEntry]:
        """The top-``k`` entries by hit count (recency breaks ties).

        What predictive handoff pre-warm pushes to the next edge: the
        entries that proved themselves under this cell's workload.
        ``kind`` restricts the ranking to one descriptor kind,
        ``kind_prefix`` to a kind namespace (e.g. ``"layer:"`` for
        activation entries) and ``exclude_prefix`` drops a namespace (so
        result pre-warm can skip layer entries, which travel under their
        own budget).
        Deterministic: remaining ties go to the older ``entry_id``.
        """
        if k <= 0:
            return []
        candidates = [
            entry for entry in self._entries.values()
            if (kind is None or entry.kind == kind)
            and (kind_prefix is None or entry.kind.startswith(kind_prefix))
            and (exclude_prefix is None
                 or not entry.kind.startswith(exclude_prefix))]
        return heapq.nsmallest(
            k, candidates, key=lambda e: (-e.hits, -e.last_access, e.entry_id))

    def summary(self, exclude_prefix: str | None = None) -> CacheSummary:
        """Snapshot this cache's contents for affinity gossip.

        Per-kind live entry counts plus the signature sketches of the
        vector kinds.  The first call is O(entries): it starts the
        sketches by folding in every live entry.  Later calls are
        O(kinds), because from then on the sketches are updated on
        insert/drop, never rebuilt here.  ``exclude_prefix`` drops a
        kind namespace from the snapshot (the gossip path excludes
        ``layer:*`` activation kinds: nobody scores them, so their
        signatures should not inflate the summary's wire bytes).
        """
        def keep(kind: str) -> bool:
            return exclude_prefix is None \
                or not kind.startswith(exclude_prefix)

        if self._sketches is None:
            self._sketches = {}
            for entry in self._entries.values():
                index = self._indexes[entry.kind]
                if not isinstance(index, ExactIndex):
                    self._sketch_add(entry, index.vector(entry.entry_id))
        kinds = {kind: len(index) for kind, index in self._indexes.items()
                 if len(index) > 0 and keep(kind)}
        sketches = {kind: sketch.summary()
                    for kind, sketch in self._sketches.items()
                    if sketch.n > 0 and keep(kind)}
        return CacheSummary(kinds=kinds, sketches=sketches)

    def index_for(self, kind: str,
                  descriptor: Descriptor | None = None) -> DescriptorIndex:
        """The per-kind index, created on first use.

        Hash kinds get an :class:`ExactIndex`; a vector kind gets its
        own index of the configured spec, built at the dimension of the
        kind's first descriptor.
        """
        index = self._indexes.get(kind)
        if index is None:
            if descriptor is None:
                raise KeyError(f"no index for kind {kind!r} yet")
            if isinstance(descriptor, HashDescriptor):
                index = ExactIndex()
            else:
                index = make_index(self._vector_index_spec,
                                   dim=descriptor.dim,
                                   dtype=self.vector_dtype)
            self._indexes[kind] = index
        return index

    def descriptor(self, entry: CacheEntry) -> Descriptor:
        """The key ``entry`` was stored under, rebuilt from its index.

        A hash key's digest comes from the exact index, a vector key's
        vector from the row store — bit for bit what was inserted, in
        either storage dtype.  Each call builds a new descriptor.
        """
        index = self._indexes[entry.kind]
        if isinstance(index, ExactIndex):
            return HashDescriptor(entry.kind, index.digest(entry.entry_id))
        return VectorDescriptor(entry.kind, index.vector(entry.entry_id))

    def missing(self, source: "ICCache",
                entries: typing.Sequence[CacheEntry]) -> list[CacheEntry]:
        """The ``entries`` of ``source`` whose key this cache holds no
        entry under, in order — what a pre-warm push ships.

        Only those keys are looked up: a digest among the digests of
        this cache's exact index of its kind, and a kind's vectors in
        one vectorised compare with its row store
        (:meth:`~repro.core.index._VectorIndex.holds`).
        """
        groups: dict[str, list[CacheEntry]] = {}
        for entry in entries:
            groups.setdefault(entry.kind, []).append(entry)
        held: set[int] = set()
        for kind, group in groups.items():
            mine, theirs = self._indexes.get(kind), source._indexes[kind]
            if isinstance(theirs, ExactIndex):
                if isinstance(mine, ExactIndex):
                    held.update(e.entry_id for e in group
                                if mine.holds(theirs.digest(e.entry_id)))
            elif mine is not None and not isinstance(mine, ExactIndex):
                found = mine.holds(np.stack(
                    [theirs.vector(e.entry_id) for e in group]))
                held.update(e.entry_id for e, f in zip(group, found) if f)
        return [entry for entry in entries if entry.entry_id not in held]

    def index_memory_bytes(self) -> int:
        """Allocated bytes across all vector index storage."""
        total = 0
        for index in self._indexes.values():
            memory = getattr(index, "memory_bytes", None)
            if memory is not None:
                total += memory()
        return total

    # -- operations ---------------------------------------------------------------

    def lookup(self, descriptor: Descriptor, now: float = 0.0,
               threshold: float | None = None) -> CacheEntry | None:
        """Find a cached result matching ``descriptor``.

        Returns the entry on a hit (updating recency/frequency state) or
        None on a miss.
        """
        self.stats.lookups += 1
        index = self._indexes.get(descriptor.kind)
        if index is None:
            self.stats.misses += 1
            return None
        if threshold is None:
            threshold = self.default_threshold
        found = index.query(descriptor, threshold)
        if found is None:
            self.stats.misses += 1
            return None
        entry = self._entries[found[0]]
        entry.hits += 1
        entry.last_access = now
        self.policy.on_access(entry)
        self.stats.hits += 1
        return entry

    def lookup_batch(self, descriptors: typing.Sequence[Descriptor],
                     now: float = 0.0,
                     threshold: float | None = None,
                     thresholds: typing.Sequence[float | None] | None = None
                     ) -> list[CacheEntry | None]:
        """``[lookup(d, now, t) ...]`` in input order — a plain loop.

        ``thresholds`` gives one match threshold per descriptor and
        wins over the burst-wide ``threshold``; None falls back like
        :meth:`lookup`.  Nothing in the program calls this: a request
        is one :meth:`lookup`.  It is kept, signature unchanged,
        because the repo benchmark's tracer (``bench/layer_trace.py``)
        wraps it by name.
        """
        descriptors = list(descriptors)
        if thresholds is None:
            thresholds = [threshold] * len(descriptors)
        elif len(thresholds) != len(descriptors):
            raise ValueError(
                f"thresholds has {len(thresholds)} entries for "
                f"{len(descriptors)} descriptors")
        return [self.lookup(descriptor, now, t)
                for descriptor, t in zip(descriptors, thresholds)]

    def lookup_cost_s(self, kind: str) -> float:
        """Simulated seconds a lookup against ``kind`` costs right now."""
        index = self._indexes.get(kind)
        if index is None:
            return ExactIndex.PROBE_COST_S
        return index.lookup_cost_s()

    def insert(self, descriptor: Descriptor, result: typing.Any,
               size_bytes: int, now: float = 0.0,
               cost_s: float = 0.0) -> CacheEntry | None:
        """Store a result, evicting as needed.

        Returns the new entry, or None if the object exceeds the entire
        cache capacity (counted in ``stats.rejected``).  The key is
        indexed before any victim is evicted, so a descriptor its
        kind's index refuses raises with the cache unchanged.
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        if size_bytes > self.capacity_bytes:
            self.stats.rejected += 1
            return None
        entry = CacheEntry(
            entry_id=next(self._ids), kind=descriptor.kind, result=result,
            size_bytes=int(size_bytes), cost_s=cost_s, created_at=now,
            last_access=now)
        self.index_for(descriptor.kind, descriptor).insert(
            entry.entry_id, descriptor)
        while self._bytes + size_bytes > self.capacity_bytes:
            victim = self.policy.select_victim()
            self._drop(victim)
            self.stats.evictions += 1
        self._entries[entry.entry_id] = entry
        self._bytes += entry.size_bytes
        self.policy.on_insert(entry)
        self._sketch_add(entry, _vector_of(descriptor))
        self.stats.insertions += 1
        return entry

    def insert_batch(self, items: typing.Sequence[tuple],
                     now: float = 0.0,
                     cost_s: float = 0.0) -> list[CacheEntry | None]:
        """Store a burst of ``(descriptor, result, size_bytes)`` triples
        through :meth:`insert`, one item at a time.

        Each item may carry an optional fourth element — its own
        ``cost_s`` (what producing the result originally cost), which
        overrides the batch-wide ``cost_s`` so cost-aware eviction
        policies (GDSF) see the real value; replication paths like
        handoff pre-warm rely on this.  Returns one entry-or-None
        (rejected oversize) per item.  If an item raises, the entries
        this call stored are dropped again before the error propagates;
        the victims they evicted stay evicted.
        """
        out: list[CacheEntry | None] = []
        try:
            for descriptor, result, size_bytes, *own_cost in items:
                out.append(self.insert(
                    descriptor, result, size_bytes, now,
                    own_cost[0] if own_cost else cost_s))
        except Exception:
            for entry in out:
                if entry is not None and entry.entry_id in self._entries:
                    self._drop(entry)
                    self.stats.insertions -= 1
            raise
        return out

    def remove(self, entry: CacheEntry) -> None:
        """Explicitly invalidate an entry."""
        if entry.entry_id not in self._entries:
            raise KeyError(f"entry {entry.entry_id} not in cache")
        self._drop(entry)

    def clear(self) -> None:
        """Empty the cache (stats are preserved)."""
        for entry in list(self._entries.values()):
            self._drop(entry)

    # -- internals ------------------------------------------------------------------

    def _drop(self, entry: CacheEntry) -> None:
        del self._entries[entry.entry_id]
        self._indexes[entry.kind].remove(entry.entry_id)
        self._bytes -= entry.size_bytes
        self.policy.on_remove(entry)
        self._sketch_remove(entry)

    def _sketch_add(self, entry: CacheEntry,
                    vector: np.ndarray | None) -> None:
        """Count a vector entry into its kind's sketch (hash entries,
        ``vector`` None, and every entry before the first
        :meth:`summary` are not counted)."""
        if self._sketches is None or vector is None:
            return
        sketch = self._sketches.get(entry.kind)
        if sketch is None:
            sketch = self._sketches[entry.kind] = AffinitySketch()
        entry.sketch_signature = sketch.add(vector)

    def _sketch_remove(self, entry: CacheEntry) -> None:
        if entry.sketch_signature is not None:
            self._sketches[entry.kind].discard(entry.sketch_signature)

    def __repr__(self) -> str:
        return (f"ICCache({len(self)} entries, "
                f"{self._bytes / 1e6:.1f}/{self.capacity_bytes / 1e6:.1f} MB, "
                f"policy={self.policy.name})")


def _vector_of(descriptor: Descriptor) -> np.ndarray | None:
    return descriptor.vector if isinstance(descriptor,
                                           VectorDescriptor) else None
