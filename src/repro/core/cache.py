"""The edge IC cache: descriptor-keyed result store with byte capacity.

The central data structure of CoIC.  Results are keyed by descriptor;
vector descriptors match under a per-kind distance threshold, hash
descriptors match exactly.  Each descriptor *kind* gets its own index —
recognition vectors never collide with model hashes — while all kinds
share one byte budget under one eviction policy, because they share the
edge box's memory.

One read path: :meth:`ICCache.lookup` answers one descriptor with one
index ``query`` — a request is one lookup.  Writes also come in bursts
(warm-up, pre-warm pushes, federation sync), so :meth:`ICCache.insert`
has a batched sibling, :meth:`ICCache.insert_batch`.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.core.descriptors import Descriptor, HashDescriptor, VectorDescriptor
from repro.core.index import DescriptorIndex, ExactIndex, make_index
from repro.core.policies import EvictionPolicy, LruPolicy, TtlPolicy
from repro.core.sketch import AffinitySketch, SketchSummary
from repro.core.store import DEFAULT_DTYPE, STORE_DTYPES


@dataclasses.dataclass
class CacheEntry:
    """One cached IC result.

    Attributes:
        entry_id: Unique id within the cache.
        descriptor: The key this result was stored under.
        result: The cached IC result object.
        size_bytes: Bytes charged against the cache capacity.
        cost_s: What producing the result cost (cloud compute + transfer);
            informs cost-aware policies (GDSF).
        created_at: Simulated insert time.
        last_access: Simulated time of the most recent hit.
        hits: Number of lookups served by this entry.
        expires_at: Absolute expiry time, or None.
        sketch_signature: The affinity-sketch bucket a vector descriptor
            was counted into (None for hash kinds, and for every entry
            until the cache's first :meth:`ICCache.summary`), kept so the
            drop does not recompute it.
    """

    entry_id: int
    descriptor: Descriptor
    result: typing.Any
    size_bytes: int
    cost_s: float = 0.0
    created_at: float = 0.0
    last_access: float = 0.0
    hits: int = 0
    expires_at: float | None = None
    sketch_signature: int | None = None

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at


@dataclasses.dataclass
class CacheStats:
    """Aggregate counters over the cache's lifetime."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    expirations: int = 0
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
            "lsh:T:B", "ivf", "ivf:K:P") — hash kinds always use the
            exact index.
        metric: Distance metric for vector indexes.
        ttl_s: Optional lifetime; expired entries never hit and are purged
            lazily.
        vector_dtype: Storage dtype for vector indexes ("float32"
            default, "float64" oracle tier, "int8" scalar
            quantized); see :mod:`repro.core.store`.
    """

    def __init__(self, capacity_bytes: int,
                 policy: EvictionPolicy | None = None,
                 default_threshold: float = 0.1,
                 vector_index: str = "linear",
                 metric: str = "cosine",
                 ttl_s: float | None = None,
                 vector_dtype: str = DEFAULT_DTYPE):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be > 0")
        if default_threshold < 0:
            raise ValueError("default_threshold must be >= 0")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be > 0 when given")
        if vector_dtype not in STORE_DTYPES:
            raise ValueError(f"vector_dtype must be one of {STORE_DTYPES}, "
                             f"got {vector_dtype!r}")
        self.capacity_bytes = int(capacity_bytes)
        self.policy = policy if policy is not None else LruPolicy()
        self.default_threshold = default_threshold
        self.ttl_s = ttl_s
        self.stats = CacheStats()
        self._vector_index_spec = vector_index
        self._metric = metric
        self.vector_dtype = vector_dtype
        self._entries: dict[int, CacheEntry] = {}
        self._indexes: dict[str, DescriptorIndex] = {}
        #: Per-vector-kind affinity sketches for :meth:`summary`.  None
        #: until its first call (only affinity gossip reads them), then
        #: maintained incrementally on every insert/drop.
        self._sketches: dict[str, AffinitySketch] | None = None
        self._ids = itertools.count(1)
        self._bytes = 0
        # If the policy is TTL-based and no cache-level ttl was given,
        # inherit the policy's, so expiry checks agree with eviction order.
        if ttl_s is None and isinstance(self.policy, TtlPolicy):
            self.ttl_s = self.policy.ttl_s

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
                now: float | None = None,
                kind_prefix: str | None = None,
                exclude_prefix: str | None = None) -> list[CacheEntry]:
        """The top-``k`` entries by hit count (recency breaks ties).

        What predictive handoff pre-warm pushes to the next edge: the
        entries that proved themselves under this cell's workload.
        Expired entries are skipped when ``now`` is given; ``kind``
        restricts the ranking to one descriptor kind, ``kind_prefix`` to
        a kind namespace (e.g. ``"layer:"`` for activation entries) and
        ``exclude_prefix`` drops a namespace (so result pre-warm can
        skip layer entries, which travel under their own budget).
        Deterministic: remaining ties go to the older ``entry_id``.
        """
        if k <= 0:
            return []
        candidates = [
            entry for entry in self._entries.values()
            if (kind is None or entry.descriptor.kind == kind)
            and (kind_prefix is None
                 or entry.descriptor.kind.startswith(kind_prefix))
            and (exclude_prefix is None
                 or not entry.descriptor.kind.startswith(exclude_prefix))
            and (now is None or not entry.expired(now))]
        candidates.sort(key=lambda e: (-e.hits, -e.last_access, e.entry_id))
        return candidates[:k]

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
                self._sketch_add(entry)
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
                                   metric=self._metric,
                                   dtype=self.vector_dtype)
            self._indexes[kind] = index
        return index

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
        None on a miss.  Expired matches are purged and count as misses.
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
        if entry.expired(now):
            self._drop(entry)
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
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
        cache capacity (counted in ``stats.rejected``).
        """
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        if size_bytes > self.capacity_bytes:
            self.stats.rejected += 1
            return None
        while self._bytes + size_bytes > self.capacity_bytes:
            victim = self.policy.select_victim()
            self._drop(victim)
            self.stats.evictions += 1

        entry = CacheEntry(
            entry_id=next(self._ids), descriptor=descriptor, result=result,
            size_bytes=int(size_bytes), cost_s=cost_s, created_at=now,
            last_access=now,
            expires_at=(now + self.ttl_s) if self.ttl_s is not None else None)
        self.index_for(descriptor.kind, descriptor).insert(
            entry.entry_id, descriptor)
        self._entries[entry.entry_id] = entry
        self._bytes += entry.size_bytes
        self.policy.on_insert(entry)
        self._sketch_add(entry)
        self.stats.insertions += 1
        return entry

    def insert_batch(self, items: typing.Sequence[tuple],
                     now: float = 0.0,
                     cost_s: float = 0.0) -> list[CacheEntry | None]:
        """Store a burst of ``(descriptor, result, size_bytes)`` triples.

        Each item may carry an optional fourth element — its own
        ``cost_s`` (what producing the result originally cost), which
        overrides the batch-wide ``cost_s`` so cost-aware eviction
        policies (GDSF) see the real value; replication paths like
        handoff pre-warm rely on this.

        Capacity accounting, eviction order, stats and the resulting
        entry set match the equivalent sequence of :meth:`insert` calls,
        but per-kind *index* insertions are batched — a warm-up flood of
        vector descriptors costs one signature matmul
        (:meth:`~repro.core.index.DescriptorIndex.insert_batch`) instead
        of one per entry.  Pending index insertions are flushed before
        any eviction, so victims are always present in their index; if
        an index rejects a pending burst (bad descriptor), the entries
        not yet indexed are rolled back out of the cache bookkeeping
        before the error propagates, so the cache is never left holding
        unfindable entries.  Returns one entry-or-None (rejected
        oversize) per item.
        """
        pending: dict[str, list[tuple[int, Descriptor]]] = {}
        pending_descriptor: dict[str, Descriptor] = {}

        def flush() -> None:
            try:
                for kind in list(pending):
                    self.index_for(kind, pending_descriptor[kind]
                                   ).insert_batch(pending[kind])
                    del pending[kind]
            except Exception:
                # Index insert_batch is atomic per kind: everything
                # still in ``pending`` is absent from its index.  Undo
                # its cache-side registration and re-raise.
                for batch in pending.values():
                    for entry_id, _ in batch:
                        entry = self._entries.pop(entry_id)
                        self._bytes -= entry.size_bytes
                        self.policy.on_remove(entry)
                        self._sketch_remove(entry)
                        self.stats.insertions -= 1
                pending.clear()
                raise

        out: list[CacheEntry | None] = []
        for item in items:
            descriptor, result, size_bytes = item[0], item[1], item[2]
            item_cost = item[3] if len(item) > 3 else cost_s
            if size_bytes < 0:
                flush()
                raise ValueError("size_bytes must be >= 0")
            if size_bytes > self.capacity_bytes:
                self.stats.rejected += 1
                out.append(None)
                continue
            if self._bytes + size_bytes > self.capacity_bytes:
                flush()
                while self._bytes + size_bytes > self.capacity_bytes:
                    victim = self.policy.select_victim()
                    self._drop(victim)
                    self.stats.evictions += 1
            entry = CacheEntry(
                entry_id=next(self._ids), descriptor=descriptor,
                result=result, size_bytes=int(size_bytes), cost_s=item_cost,
                created_at=now, last_access=now,
                expires_at=(now + self.ttl_s) if self.ttl_s is not None
                else None)
            pending.setdefault(descriptor.kind, []).append(
                (entry.entry_id, descriptor))
            pending_descriptor[descriptor.kind] = descriptor
            self._entries[entry.entry_id] = entry
            self._bytes += entry.size_bytes
            self.policy.on_insert(entry)
            self._sketch_add(entry)
            self.stats.insertions += 1
            out.append(entry)
        flush()
        return out

    def remove(self, entry: CacheEntry) -> None:
        """Explicitly invalidate an entry."""
        if entry.entry_id not in self._entries:
            raise KeyError(f"entry {entry.entry_id} not in cache")
        self._drop(entry)

    def purge_expired(self, now: float) -> int:
        """Eagerly drop all expired entries; returns how many."""
        victims = [e for e in self._entries.values() if e.expired(now)]
        for entry in victims:
            self._drop(entry)
            self.stats.expirations += 1
        return len(victims)

    def clear(self) -> None:
        """Empty the cache (stats are preserved)."""
        for entry in list(self._entries.values()):
            self._drop(entry)

    # -- internals ------------------------------------------------------------------

    def _drop(self, entry: CacheEntry) -> None:
        del self._entries[entry.entry_id]
        self._indexes[entry.descriptor.kind].remove(entry.entry_id)
        self._bytes -= entry.size_bytes
        self.policy.on_remove(entry)
        self._sketch_remove(entry)

    def _sketch_add(self, entry: CacheEntry) -> None:
        descriptor = entry.descriptor
        if self._sketches is None \
                or not isinstance(descriptor, VectorDescriptor):
            return
        sketch = self._sketches.get(descriptor.kind)
        if sketch is None:
            sketch = self._sketches[descriptor.kind] = AffinitySketch()
        entry.sketch_signature = sketch.add(descriptor.vector)

    def _sketch_remove(self, entry: CacheEntry) -> None:
        if entry.sketch_signature is not None:
            self._sketches[entry.descriptor.kind].discard(
                entry.sketch_signature)

    def __repr__(self) -> str:
        return (f"ICCache({len(self)} entries, "
                f"{self._bytes / 1e6:.1f}/{self.capacity_bytes / 1e6:.1f} MB, "
                f"policy={self.policy.name})")
