"""A real edge process for the real execution backend.

Each edge in the scenario becomes one :class:`EdgeService`: an asyncio
socket server around the simulator's own
:class:`~repro.core.edge.EdgeNode`, built from the same spec and config
— cache tier and dtype, embedding geometry, match threshold and the
policy's stage chain.  :func:`~repro.backend.protocol.decode_request`
turns a ``recognize`` frame into the ``ic_request`` message that
``EdgeNode._handle`` serves through :func:`repro.backend.runtime.start`;
the reply frame the chain's response produced is written back — inside
the socket's read callback when the request never waited (a hit, a
shed), from a task when it did (a miss's cloud leg).  No request
handling lives here.

A ``shutdown`` frame drains first — an admit stage that sheds every
recognition request heads the chain (in place of the policy's own) and
in-flight requests finish —
then answers ``bye`` with the counters (the graceful half of the
fault-injection story; the *un*graceful half is ``SIGKILL``).  The
same class runs inline (hermetic tests) or as a spawned OS process.
"""

from __future__ import annotations

import asyncio

from repro.backend import runtime
from repro.backend.protocol import decode_request
from repro.backend.server import FrameServer
from repro.core.cluster import edge_cache, embedding_space, prototype_items
from repro.core.edge import EdgeNode
from repro.core.metrics import OUTCOME_HIT, OUTCOME_MISS, OUTCOME_SHED
from repro.core.pipeline import (
    AdmissionControlStage,
    Pipeline,
    build_pipeline,
)
from repro.core.scenario import EdgePolicySpec
from repro.net.message import Message
from repro.net.topology import Host
from repro.render.loader import EDGE_GPU_2018, ModelLoader
from repro.vision.model_zoo import EDGE_CPU_2018, get_network
from repro.vision.recognition import Recognizer

#: The admit stage of a draining edge: every recognition request sheds.
_SHED_ALL = AdmissionControlStage(EdgePolicySpec(admission="shed",
                                                 queue_limit=0))


class EdgeService(FrameServer):
    """One edge site: the simulator's edge, real sockets, stub cloud.

    Args:
        payload: ``runner.build_edge_payload``'s dict: ``name``,
            ``spec``, ``config`` and ``cloud`` (``(host, port)`` of the
            cloud stub, or None).
    """

    def __init__(self, payload: dict):
        super().__init__()
        self.ops["recognize"] = (self._decode, self._recognize)
        self.name = payload["name"]
        spec, config = payload["spec"], payload["config"]
        rec = config.recognition
        if rec.speculative_forward:
            raise ValueError("speculative_forward runs on the simulator only")
        space = embedding_space(config)
        env = runtime.Env()
        self.rpc = runtime.Rpc(payload["cloud"])
        self.edge = EdgeNode(
            env, self.rpc, Host(env, self.name),
            cache=edge_cache(spec.edge(self.name), config.cache),
            config=config,
            recognizer=Recognizer(get_network(
                rec.network, descriptor_dim=rec.descriptor_dim),
                EDGE_CPU_2018, space),
            loader=ModelLoader(EDGE_GPU_2018),
            pipeline=build_pipeline(spec.policy),
            compute=runtime.Compute(config.edge_workers))
        self.cache = self.edge.cache
        self._n_classes, self._dim = rec.n_classes, rec.descriptor_dim
        warmup = spec.warmup
        if warmup is not None and (warmup.edges is None
                                   or self.name in warmup.edges):
            # Streamed, one insert each: holding 10^4 warm-up rows at
            # once (a list, a batch) shows up as the process's peak RSS.
            for item in prototype_items(space, warmup.classes):
                self.cache.insert(*item, now=env.now)
        self.active = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # -- lifecycle -----------------------------------------------------------

    async def stop(self) -> None:
        """Close the cloud leg, then stop accepting."""
        self.rpc.close()
        await super().stop()

    async def drain(self, timeout_s: float = 10.0) -> None:
        """Shed new work, then wait (bounded) until none is mid-service."""
        self.edge.pipeline = Pipeline([
            _SHED_ALL, *(stage for stage in self.edge.pipeline.stages
                         if stage.name != _SHED_ALL.name)])
        try:
            await asyncio.wait_for(self._idle.wait(), timeout_s)
        except asyncio.TimeoutError:
            pass

    @property
    def shed_count(self) -> int:
        return self.edge.counts[OUTCOME_SHED]

    def counters(self) -> dict:
        """The edge's :attr:`EdgeNode.counts`, plus ``cache_entries`` and
        the totals the wire has always carried: ``served`` is hits +
        misses, ``hits`` / ``misses`` / ``shed`` the outcome counts."""
        counts = self.edge.counts
        hits, misses = counts[OUTCOME_HIT], counts[OUTCOME_MISS]
        return {"edge": self.name, **counts, "served": hits + misses,
                "hits": hits, "misses": misses, "shed": self.shed_count,
                "cache_entries": len(self.cache)}

    # -- serving -------------------------------------------------------------

    async def _shutdown(self) -> dict:
        await self.drain()
        return super()._shutdown()

    def _decode(self, frame: dict) -> tuple[Message]:
        return (decode_request(frame, self._n_classes, self._dim),)

    def _recognize(self, msg: Message):
        """The reply frame, or a coroutine of it when the request waits."""
        rest = runtime.start(self.edge._handle(msg))
        if rest is None:
            return self.rpc.replies.pop(msg.msg_id)
        return self._finish(rest, msg.msg_id)

    async def _finish(self, rest: runtime.Waiting, msg_id: int) -> dict:
        self.active += 1
        self._idle.clear()
        try:
            await rest
        finally:
            self.active -= 1
            if self.active == 0:
                self._idle.set()
        return self.rpc.replies.pop(msg_id)
