"""A real edge process for the real execution backend.

Each edge in the scenario becomes one :class:`EdgeService`: an asyncio
socket server holding a *real* :class:`~repro.core.cache.ICCache`
(whatever index tier and storage dtype the spec configured) and the
same deterministic embedding geometry the simulation uses.  A
``recognize`` frame is served exactly like the simulated fast path:

1. observe the capture (``EmbeddingSpace.observe`` keyed by the
   frame's ``capture_id`` — deterministic, so both backends derive the
   identical descriptor from the identical capture),
2. a real vectorized cache lookup under the scenario's match
   threshold — a hit returns the cached label straight off the box,
3. a miss escalates to the cloud stub over its own socket, then
   inserts the resolved result so the next nearby capture hits.

Robustness mirrors the simulated overload layer: with the policy's
``admission="shed"`` a saturated edge refuses work with a
``retry_after_s`` drain hint instead of queueing without bound, and a
``shutdown`` frame drains in-flight requests before the process exits
(the graceful half of the fault-injection story — the *un*graceful
half is ``SIGKILL`` in the fault tests).

The service is deliberately dependency-free of the simulation kernel:
everything it needs from the scenario arrives as one JSON-safe payload
dict (:func:`build_edge_payload` in :mod:`repro.backend.runner`), so
the same class runs inline (hermetic tests, coverage) or as a spawned
OS process (the deployment mode).
"""

from __future__ import annotations

import asyncio

from repro.backend.protocol import ProtocolError, call
from repro.backend.server import FrameServer
from repro.core.cache import ICCache
from repro.core.descriptors import VectorDescriptor
from repro.core.index import DEFAULT_DTYPE
from repro.core.policies import make_policy
from repro.core.tasks import KIND_RECOGNITION
from repro.vision.features import EmbeddingSpace
from repro.vision.recognition import RecognitionResult


class EdgeService(FrameServer):
    """One edge site: real cache, real sockets, shimmed cloud behind.

    Args:
        payload: JSON-safe construction dict (see
            ``runner.build_edge_payload``): ``name``, ``recognition``
            (embedding geometry + threshold), ``cache`` (capacity,
            policy, index tier, dtype, ttl), ``warm_classes``,
            ``admission``/``queue_limit`` (overload policy),
            ``cloud`` (host/port of the cloud stub, or None),
            ``extraction_s`` (optional edge-compute sleep shim).
    """

    def __init__(self, payload: dict):
        super().__init__()
        self.ops["recognize"] = (self._recognize_fields, self._recognize)
        self.name = payload["name"]
        rec = payload["recognition"]
        self.space = EmbeddingSpace(
            dim=int(rec["descriptor_dim"]),
            n_classes=int(rec["n_classes"]),
            viewpoint_scale=float(rec["viewpoint_scale"]),
            noise_sigma=float(rec["noise_sigma"]),
            seed=int(rec["seed"]))
        if rec.get("threshold") is not None:
            self.match_threshold = float(rec["threshold"])
        else:
            self.match_threshold = self.space.suggest_threshold(
                float(rec["max_viewpoint_delta"]))
        cache = payload["cache"]
        self.cache = ICCache(
            capacity_bytes=int(cache["capacity_bytes"]),
            policy=make_policy(cache["policy"]),
            vector_index=cache["vector_index"],
            metric=cache["metric"],
            ttl_s=cache.get("ttl_s"),
            vector_dtype=cache.get("vector_dtype", DEFAULT_DTYPE))
        for cls in payload.get("warm_classes", ()):
            result = RecognitionResult(label=int(cls), confidence=0.97)
            self.cache.insert(
                VectorDescriptor(kind=KIND_RECOGNITION,
                                 vector=self.space.observe(int(cls),
                                                           0.0).vector),
                result, result.size_bytes)
        self.admission = payload.get("admission", "none")
        self.queue_limit = payload.get("queue_limit")
        self.extraction_s = float(payload.get("extraction_s", 0.0))
        self.cloud_addr: tuple[str, int] | None = None
        if payload.get("cloud") is not None:
            self.cloud_addr = (payload["cloud"]["host"],
                               int(payload["cloud"]["port"]))
        #: Serving counters, reported by ``stats`` and ``bye`` frames
        #: (``served`` there is ``hits + misses``: requests that reached
        #: an outcome; a request the cloud leg failed is an ``error``
        #: reply and counts as neither).
        self.hits = 0
        self.misses = 0
        self.shed_count = 0
        self.active = 0
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._cloud_lock = asyncio.Lock()
        self._cloud_streams: tuple | None = None

    # -- lifecycle -----------------------------------------------------------

    async def stop(self) -> None:
        """Close the cloud leg, then stop accepting."""
        if self._cloud_streams is not None:
            self._cloud_streams[1].close()
            self._cloud_streams = None
        await super().stop()

    async def drain(self, timeout_s: float = 10.0) -> None:
        """Wait (bounded) until no request is mid-service."""
        self._draining = True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout_s)
        except asyncio.TimeoutError:
            pass

    def counters(self) -> dict:
        return {"edge": self.name, "served": self.hits + self.misses,
                "hits": self.hits, "misses": self.misses,
                "shed": self.shed_count,
                "cache_entries": len(self.cache)}

    # -- serving -------------------------------------------------------------

    async def _shutdown(self) -> dict:
        await self.drain()
        return await super()._shutdown()

    @staticmethod
    def _recognize_fields(message: dict) -> tuple[int, float, int, int]:
        return (int(message["object_class"]),
                float(message.get("viewpoint", 0.0)),
                int(message["capture_id"]),
                int(message.get("input_bytes", 0)))

    def _overloaded(self) -> bool:
        return (self.admission == "shed"
                and self.queue_limit is not None
                and self.active > int(self.queue_limit))

    async def _recognize(self, object_class: int, viewpoint: float,
                         capture_id: int, input_bytes: int) -> dict:
        if self._draining or self._overloaded():
            # Mirror the simulated admission controller: refuse with a
            # drain hint proportional to the backlog rather than queue
            # without bound (or accept work we are about to abandon).
            self.shed_count += 1
            backlog = max(1, self.active)
            return {"op": "result", "outcome": "shed",
                    "served_by": self.name,
                    "retry_after_s": 0.05 * backlog}
        self.active += 1
        self._idle.clear()
        try:
            loop = asyncio.get_running_loop()
            if self.extraction_s > 0.0:
                await asyncio.sleep(self.extraction_s)
            observation = self.space.observe(object_class, viewpoint,
                                             noise_key=capture_id)
            descriptor = VectorDescriptor(kind=KIND_RECOGNITION,
                                          vector=observation.vector)
            entry = self.cache.lookup(descriptor, now=loop.time(),
                                      threshold=self.match_threshold)
            if entry is not None:
                self.hits += 1
                return {"op": "result", "outcome": "hit",
                        "label": int(entry.result.label),
                        "served_by": self.name}
            started = loop.time()
            try:
                label = await self._resolve_via_cloud(
                    object_class, capture_id, input_bytes)
            except (ProtocolError, OSError) as exc:
                # A dead cloud costs this request an error reply, not
                # the client its connection — what the simulated edge
                # does with an RpcError from its cloud call.
                return {"op": "error",
                        "error": f"cloud unreachable: {exc}",
                        "served_by": self.name}
            result = RecognitionResult(label=label, confidence=0.97)
            self.cache.insert(descriptor, result, result.size_bytes,
                              now=loop.time(),
                              cost_s=loop.time() - started)
            self.misses += 1
            return {"op": "result", "outcome": "miss", "label": label,
                    "served_by": self.name}
        finally:
            self.active -= 1
            if self.active == 0:
                self._idle.set()

    async def _resolve_via_cloud(self, object_class: int, capture_id: int,
                                 input_bytes: int) -> int:
        """Escalate one miss over the persistent cloud connection."""
        if self.cloud_addr is None:
            # Cloudless fallback (protocol tests): the edge itself is
            # the oracle, with no latency shim.
            return object_class
        request = {"op": "resolve", "object_class": object_class,
                   "capture_id": capture_id, "input_bytes": input_bytes}
        async with self._cloud_lock:
            for attempt in (0, 1):
                if self._cloud_streams is None:
                    self._cloud_streams = await asyncio.open_connection(
                        *self.cloud_addr)
                try:
                    reader, cloud_writer = self._cloud_streams
                    reply = await call(reader, cloud_writer, request)
                    return int(reply["label"])
                except (ProtocolError, ConnectionError):
                    # One reconnect: the stub may have restarted.
                    self._cloud_streams[1].close()
                    self._cloud_streams = None
                    if attempt:
                        raise
        raise ProtocolError("unreachable")  # pragma: no cover
