"""Cache eviction policies.

The poster ships "a simple cache management policy" and names richer
management as ongoing work; this module provides the standard family so
the eviction ablation (bench A3) can compare them:

* :class:`LruPolicy` — least recently used (the paper-faithful default).
* :class:`LfuPolicy` — least frequently used, LRU tie-break.
* :class:`FifoPolicy` — insertion order.
* :class:`SizePolicy` — evict largest first (byte-pressure relief).
* :class:`GdsfPolicy` — GreedyDual-Size-Frequency: value = age offset +
  hits x recompute-cost / size; the right policy when results differ
  wildly in both size and recompute cost, as IC results do.

A policy only orders entries; the cache owns them and drives the
``on_insert`` / ``on_access`` / ``on_remove`` / ``select_victim`` cycle.
"""

from __future__ import annotations

import collections
import heapq
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.cache import CacheEntry


class EvictionPolicy:
    """Interface: entry bookkeeping + victim selection."""

    name = "base"

    def on_insert(self, entry: "CacheEntry") -> None:
        raise NotImplementedError

    def on_access(self, entry: "CacheEntry") -> None:
        raise NotImplementedError

    def on_remove(self, entry: "CacheEntry") -> None:
        raise NotImplementedError

    def select_victim(self) -> "CacheEntry":
        """The entry to evict next.  Raises LookupError when empty."""
        raise NotImplementedError


class LruPolicy(EvictionPolicy):
    """Least recently used."""

    name = "lru"

    def __init__(self):
        self._order: collections.OrderedDict[int, "CacheEntry"] = \
            collections.OrderedDict()

    def on_insert(self, entry: "CacheEntry") -> None:
        self._order[entry.entry_id] = entry

    def on_access(self, entry: "CacheEntry") -> None:
        self._order.move_to_end(entry.entry_id)

    def on_remove(self, entry: "CacheEntry") -> None:
        self._order.pop(entry.entry_id, None)

    def select_victim(self) -> "CacheEntry":
        if not self._order:
            raise LookupError("policy has no entries")
        return next(iter(self._order.values()))


class FifoPolicy(EvictionPolicy):
    """First in, first out; accesses do not refresh position."""

    name = "fifo"

    def __init__(self):
        self._order: collections.OrderedDict[int, "CacheEntry"] = \
            collections.OrderedDict()

    def on_insert(self, entry: "CacheEntry") -> None:
        self._order[entry.entry_id] = entry

    def on_access(self, entry: "CacheEntry") -> None:
        pass

    def on_remove(self, entry: "CacheEntry") -> None:
        self._order.pop(entry.entry_id, None)

    def select_victim(self) -> "CacheEntry":
        if not self._order:
            raise LookupError("policy has no entries")
        return next(iter(self._order.values()))


class _HeapPolicy(EvictionPolicy):
    """Shared lazy-heap machinery: push (key, seq, entry), skip stale."""

    def __init__(self):
        self._heap: list[tuple] = []
        self._live: dict[int, tuple] = {}  # entry_id -> current key tuple
        self._seq = 0

    def _push(self, entry: "CacheEntry", key: tuple) -> None:
        self._seq += 1
        item = (*key, self._seq, entry)
        self._live[entry.entry_id] = item
        heapq.heappush(self._heap, item)

    def on_remove(self, entry: "CacheEntry") -> None:
        self._live.pop(entry.entry_id, None)

    def select_victim(self) -> "CacheEntry":
        while self._heap:
            item = self._heap[0]
            entry = item[-1]
            if self._live.get(entry.entry_id) is item:
                return entry
            heapq.heappop(self._heap)  # stale or removed
        raise LookupError("policy has no entries")


class LfuPolicy(_HeapPolicy):
    """Least frequently used; ties broken by least recent insertion/access."""

    name = "lfu"

    def on_insert(self, entry: "CacheEntry") -> None:
        self._push(entry, (entry.hits,))

    def on_access(self, entry: "CacheEntry") -> None:
        self._push(entry, (entry.hits,))


class SizePolicy(_HeapPolicy):
    """Largest entry first — frees the most bytes per eviction."""

    name = "size"

    def on_insert(self, entry: "CacheEntry") -> None:
        self._push(entry, (-entry.size_bytes,))

    def on_access(self, entry: "CacheEntry") -> None:
        pass


class GdsfPolicy(_HeapPolicy):
    """GreedyDual-Size-Frequency.

    priority = inflation + hits * cost_s / size_mb; evict the minimum and
    inflate the clock to its priority, so long-idle entries age out even
    if they were once valuable.
    """

    name = "gdsf"

    def __init__(self):
        super().__init__()
        self._inflation = 0.0

    def _priority(self, entry: "CacheEntry") -> float:
        size_mb = max(entry.size_bytes / 1e6, 1e-9)
        value = max(entry.cost_s, 1e-6) * max(entry.hits, 1)
        return self._inflation + value / size_mb

    def on_insert(self, entry: "CacheEntry") -> None:
        self._push(entry, (self._priority(entry),))

    def on_access(self, entry: "CacheEntry") -> None:
        self._push(entry, (self._priority(entry),))

    def select_victim(self) -> "CacheEntry":
        victim = super().select_victim()
        self._inflation = self._live[victim.entry_id][0]
        return victim


def make_policy(spec: str) -> EvictionPolicy:
    """Build a policy from a config string.

    ``"lru"``, ``"lfu"``, ``"fifo"``, ``"size"`` or ``"gdsf"``.
    """
    if spec == "lru":
        return LruPolicy()
    if spec == "lfu":
        return LfuPolicy()
    if spec == "fifo":
        return FifoPolicy()
    if spec == "size":
        return SizePolicy()
    if spec == "gdsf":
        return GdsfPolicy()
    raise ValueError(f"unknown policy spec {spec!r}")
