"""Spans around the layers' public callables, recorded from outside.

The benchmark traces the program without editing it: ``install``
replaces class (or module) attributes with wrappers that append one
span — name, start, end, parent span — to in-memory lists, and
``uninstall`` puts the originals back.  A span's *self time* is its
duration minus the part its child spans cover, so the self times of
all spans plus the un-wrapped remainder add up to the wall time of the
traced window: the ledger closes by construction.

Spans are not attributed to single requests: both backends interleave
requests inside one thread and the wrappers sit outside the program, so
the per-request figures are window totals divided by the requests the
window completed.  Spans inside the program are a later change.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import typing

import numpy as np


@dataclasses.dataclass(frozen=True)
class SpanTotals:
    """Aggregate of one span name over a window."""

    count: int = 0
    busy_ns: float = 0.0    # sum of span durations
    self_ns: float = 0.0    # busy minus time covered by child spans
    weight: float = 0.0     # sum of the wrapper's weigh() values


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, parallel lists (cheap to append to).
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self.span_weight: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple[typing.Any, str, typing.Any]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_weight.append(1.0)
        self.span_end.append(0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, owner: typing.Any, attr: str, name: str,
             weigh: typing.Callable[[tuple, typing.Any], float] | None = None
             ) -> None:
        """Trace calls of the plain function ``owner.attr`` as ``name``.

        ``weigh(args, result)`` attaches a number to the span (a batch
        size, a byte count); spans weigh 1 otherwise.
        """
        original = owner.__dict__[attr]
        name_id = self._name_id(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if weigh is not None:
                self.span_weight[index] = weigh(args, result)
            return result

        self._patch(owner, attr, original, traced)

    def wrap_generator(self, owner: typing.Any, attr: str, name: str) -> None:
        """Trace a generator function: one span per resumption.

        The kernel resumes a process generator many times; only the
        stretches in which the generator's own code runs are spans, the
        simulated waits in between are not.
        """
        original = owner.__dict__[attr]
        name_id = self._name_id(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            resume = inner.send
            value = None
            while True:
                index = self._open(name_id)
                try:
                    yielded = resume(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._close(index)
                try:
                    value = yield yielded
                    resume = inner.send
                except BaseException as exc:  # forwarded, never swallowed
                    value = exc
                    resume = inner.throw

        self._patch(owner, attr, original, traced)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def mark(self) -> int:
        """Position in the span store; pass to :meth:`totals`."""
        return len(self.span_name)

    def totals(self, since: int = 0) -> dict[str, SpanTotals]:
        """Per-name aggregates of the spans recorded from ``since`` on."""
        if self._stack:
            raise RuntimeError("totals() called inside an open span")
        n = len(self.span_name) - since
        if n <= 0:
            return {}
        name = np.asarray(self.span_name[since:], dtype=np.int64)
        duration = (np.asarray(self.span_end[since:], dtype=np.int64)
                    - np.asarray(self.span_start[since:], dtype=np.int64)
                    ).astype(np.float64)
        parent = np.asarray(self.span_parent[since:], dtype=np.int64) - since
        weight = np.asarray(self.span_weight[since:], dtype=np.float64)
        covered = np.zeros(n)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        size = len(self.names)
        count = np.bincount(name, minlength=size)
        busy = np.bincount(name, weights=duration, minlength=size)
        own = np.bincount(name, weights=duration - covered, minlength=size)
        weighed = np.bincount(name, weights=weight, minlength=size)
        return {self.names[i]: SpanTotals(int(count[i]), float(busy[i]),
                                          float(own[i]), float(weighed[i]))
                for i in range(size) if count[i]}


def _index_classes() -> list[type]:
    """Every index class the program defines, base class included."""
    from repro.core.index import DescriptorIndex

    found, todo = [], [DescriptorIndex]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer) -> None:
    """Wrap the public callables of every layer the ledger names.

    Span name = ledger row.  Several callables of one layer share a
    name; where one calls another (``path_links`` -> ``shortest_path``,
    a fused view's ``query_batch`` -> ``query_multi``) the self-time
    rule keeps the sum right.
    """
    from repro.backend import protocol
    from repro.core import index as index_module
    from repro.core.cache import ICCache
    from repro.core.cluster import ClusterDeployment
    from repro.core.metrics import MetricsRecorder
    from repro.net.link import Link
    from repro.net.topology import Topology
    from repro.net.transport import Rpc
    from repro.vision.features import EmbeddingSpace

    for attr in ("shortest_path", "path_links"):
        tracer.wrap(Topology, attr, "topology.route")
    tracer.wrap(Link, "transfer", "link.transfer")
    for attr in ("send", "call", "respond"):
        tracer.wrap(Rpc, attr, "transport.send")
    tracer.wrap(ICCache, "lookup", "cache.lookup")
    tracer.wrap(ICCache, "lookup_batch", "cache.lookup",
                weigh=lambda args, result: len(result))
    tracer.wrap(ICCache, "insert", "cache.insert")
    tracer.wrap(ICCache, "insert_batch", "cache.insert",
                weigh=lambda args, result: len(result))
    for cls in _index_classes():
        for attr in ("query", "query_batch"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, "index.query")
    # ``ICCache.lookup_batch`` calls the fused core directly, past any
    # index class.  Looked up, like the index classes above, rather
    # than imported by name: a change that claims a gain may not edit
    # the benchmark, and ROADMAP wants index.py's class list shortened.
    fused = getattr(index_module, "FusedLinearCore", None)
    if fused is not None:
        tracer.wrap(fused, "query_multi", "index.query")
    tracer.wrap(EmbeddingSpace, "observe", "features.observe")
    tracer.wrap(MetricsRecorder, "record", "metrics.record")
    tracer.wrap_generator(ClusterDeployment, "handoff", "cluster.handoff")
    # write_frame/read_frame/call look these up in the module at call
    # time, so patching the module attribute reaches every caller.
    tracer.wrap(protocol, "encode_frame", "protocol.encode",
                weigh=lambda args, result: len(result))
    tracer.wrap(protocol, "decode_body", "protocol.decode",
                weigh=lambda args, result: len(args[0]))


def self_us(spans: dict[str, SpanTotals]) -> float:
    """Microseconds inside wrapped callables, children excluded."""
    return sum(s.self_ns for s in spans.values()) / 1e3


def ledger_rows(spans: dict[str, SpanTotals],
                requests: int) -> dict[str, float]:
    """The span-derived ledger rows, per completed request.

    Times are self times, so the rows add up; the driver appends its
    backend's remainder row (wall per request minus :func:`self_us`).
    A layer the window never entered reads 0.
    """
    none = SpanTotals()

    def calls(name: str) -> float:
        return spans.get(name, none).count / requests

    def own_us(name: str) -> float:
        return spans.get(name, none).self_ns / 1e3 / requests

    lookup = spans.get("cache.lookup", none)
    encode = spans.get("protocol.encode", none)
    decode = spans.get("protocol.decode", none)
    return {
        "topology.route_calls_per_req": calls("topology.route"),
        "topology.route_us_per_req": own_us("topology.route"),
        "link.transfers_per_req": calls("link.transfer"),
        "link.transfer_us_per_req": own_us("link.transfer"),
        "transport.sends_per_req": calls("transport.send"),
        "transport.send_us_per_req": own_us("transport.send"),
        "cache.lookup_calls_per_req": calls("cache.lookup"),
        "cache.queries_per_lookup_call":
            lookup.weight / lookup.count if lookup.count else 0.0,
        "cache.lookup_self_us_per_req": own_us("cache.lookup"),
        "cache.insert_calls_per_req": calls("cache.insert"),
        "cache.insert_us_per_req": own_us("cache.insert"),
        "index.query_us_per_req": own_us("index.query"),
        "features.observe_calls_per_req": calls("features.observe"),
        "features.observe_us_per_req": own_us("features.observe"),
        "metrics.record_us_per_req": own_us("metrics.record"),
        "protocol.encode_us": own_us("protocol.encode"),
        "protocol.decode_us": own_us("protocol.decode"),
        "protocol.frames_per_req": calls("protocol.encode")
        + calls("protocol.decode"),
        "protocol.bytes_per_req":
            (encode.weight + decode.weight) / requests,
    }
