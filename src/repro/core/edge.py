"""The edge node: descriptor lookup, cache serving, cloud forwarding.

This is CoIC's contribution in executable form (Figure 1, middle box).
Request handling is organized as an explicit stage chain — lookup ->
resolve -> respond, behind an admit stage when the policy gates
admission — defined in :mod:`repro.core.pipeline`; the default chain
reproduces the paper's edge:

1. receive an IC request (with or without a pre-computed descriptor),
2. extract the feature descriptor if the client didn't,
3. look the descriptor up in the IC cache,
4. on a hit, return the cached result immediately,
5. on a miss, forward the request to the cloud, insert the result into
   the cache on the way back, and return it.

Also implemented, because a real edge needs them:

* request coalescing — concurrent misses on the same content hash share
  one cloud fetch instead of stampeding;
* asynchronous parse-and-insert for 3D models — the client gets the raw
  file at Origin speed while the edge prepares the loaded form for future
  hits in the background;
* a bounded worker pool, so descriptor extraction contends like it would
  on a real box.

Overload behaviour (admission shed/redirect, peer offload) is *not*
baked in here: put an admit stage
(:class:`~repro.core.pipeline.AdmissionControlStage`) at the head of
the pipeline and this node
sheds, redirects, or borrows a neighbour without touching the code
below.  Nor is the miss order (peers, then cloud): that belongs to
:class:`~repro.core.pipeline.ResolveStage`.  This module keeps the
primitive operations the stages compose — extraction, the charged cache
lookup, the cloud forward, the charged insert, response sending (every
response is tagged with the serving edge id in ``served_by``) — and
answers the edge-to-edge messages: ``cache_summary``, ``prewarm_push``
and, for any edge, a peer's ``peer_lookup`` probe (the asking side is
:mod:`repro.core.federation`).
"""

from __future__ import annotations

import collections
import typing

from repro.core.cache import ICCache
from repro.core.descriptors import Descriptor, HashDescriptor, VectorDescriptor
from repro.core.tasks import (
    ModelLoadResult,
    ModelLoadTask,
    RecognitionTask,
    Task,
)
from repro.net.message import Message
from repro.net.transport import RpcError
from repro.sim.events import Event
from repro.sim.kernel import Environment
from repro.sim.resources import Resource

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import CoICConfig
    from repro.core.market import FederationBroker
    from repro.core.pipeline import Pipeline
    from repro.net.topology import Host
    from repro.net.transport import Rpc
    from repro.render.loader import ModelLoader
    from repro.vision.recognition import Recognizer


def _abandon(event: Event) -> None:
    """Stop caring about a pending call: failures must not crash the run."""
    if event.processed:
        if not event.ok:
            event.defuse()
        return

    def swallow(ev: Event) -> None:
        if not ev.ok:
            ev.defuse()

    event.callbacks.append(swallow)


class EdgeNode:
    """The CoIC edge service.

    Args:
        env: Simulation environment.
        rpc: Transport endpoint.
        host: The edge's network host.
        cache: The IC cache instance.
        config: Deployment configuration.
        recognizer: Edge-device recognizer (descriptor extraction).
        loader: Edge-device model loader (background parse on miss).
        cloud_name: Host name requests are forwarded to.
        workers: Parallel compute slots for extraction work.
        pipeline: Stage chain to serve requests with; None selects
            :func:`~repro.core.pipeline.build_pipeline`'s default (the
            paper's edge, no overload management).
        peers: Host names of cooperating edges whose caches a miss
            consults before the cloud, tried in order (put the nearest
            first).  Empty — the default — is the paper's isolated edge.
        peer_timeout_s: Per-peer deadline for a lookup round trip; a slow
            peer must not cost more than it saves.  The default budgets
            for multi-megabyte loaded-model transfers over a metro link,
            still far below a cloud-backhaul fetch.
        broker: Marketplace broker of a multi-operator scenario: filters
            consent-denied and over-budget peers out of every probe
            round and settles cross-operator hits on the ledger.  None
            is the single-administrative-domain model.
        compute: The worker pool, if not a simulated ``Resource`` of
            ``workers`` slots (the real backend's asyncio one).
    """

    def __init__(self, env: Environment, rpc: "Rpc", host: "Host",
                 cache: ICCache, config: "CoICConfig",
                 recognizer: "Recognizer", loader: "ModelLoader",
                 cloud_name: str = "cloud", workers: int = 4,
                 pipeline: "Pipeline | None" = None,
                 peers: typing.Sequence[str] = (),
                 peer_timeout_s: float = 1.0,
                 broker: "FederationBroker | None" = None,
                 compute: typing.Any = None):
        if peer_timeout_s <= 0:
            raise ValueError("peer_timeout_s must be > 0")
        self.env = env
        self.rpc = rpc
        self.host = host
        self.cache = cache
        self.config = config
        self.recognizer = recognizer
        self.loader = loader
        self.cloud_name = cloud_name
        self.compute = (compute if compute is not None
                        else Resource(env, capacity=workers))
        if pipeline is None:
            from repro.core.pipeline import build_pipeline

            pipeline = build_pipeline()
        self.pipeline = pipeline
        self.peers = [p for p in peers if p != host.name]
        self.peer_timeout_s = peer_timeout_s
        self.broker = broker
        rec = config.recognition
        #: Vector-descriptor match threshold: the configured one, else
        #: derived once from the embedding geometry (both are fixed for
        #: the edge's lifetime).
        self.match_threshold: float = (
            rec.threshold if rec.threshold is not None
            else recognizer.space.suggest_threshold(rec.max_viewpoint_delta))
        #: Every tally this edge keeps, by name: the outcome of each
        #: reply that ends a request (``hit``, ``miss``, ``partial``,
        #: ``shed``, ``error``) plus the federation, overload,
        #: layer-reuse and gossip counters.  The table of names, what
        #: increments each and its owner is in docs/real_backend.md.
        self.counts: collections.Counter = collections.Counter()
        #: Federation message log: one ``(time_s, peer)`` row per
        #: peer_lookup actually sent — what the consent fault-path
        #: tests assert against ("a denied peer is never probed").
        self.probe_log: list[tuple[float, str]] = []
        #: digest -> completion event, for miss coalescing on hash tasks.
        self._inflight: dict[str, Event] = {}
        #: Layer-cache manager over this edge's cache, installed by the
        #: deployment when the scenario policy ships or serves layer
        #: activations; the pipeline's layer-reuse stage plans against
        #: it.  None on the paper's plain edge.
        self.layer_manager = None
        #: Latest gossiped CacheSummary per neighbour edge (affinity
        #: offload reads this; stale by up to the gossip interval).
        self.peer_summaries: dict[str, typing.Any] = {}

    # -- load ----------------------------------------------------------------

    @property
    def load(self) -> int:
        """Busy plus queued compute slots (what admission control reads)."""
        return self.compute.count + self.compute.queue_length

    @property
    def coarse_hit_ratio(self) -> float:
        """Observed hit ratio of coarse recognition lookups on this edge."""
        lookups = self.counts["coarse_lookups"]
        return self.counts["coarse_hits"] / lookups if lookups else 0.0

    # -- responses ----------------------------------------------------------------

    def _respond(self, msg: Message, size_bytes: int,
                 payload: typing.Any = None, kind: str = "reply",
                 headers: dict | None = None) -> typing.Generator:
        """``rpc.respond`` with the serving edge id stamped into headers.

        The ``served_by`` tag is what lets the metrics layer attribute
        offloaded and post-handoff requests to the edge that actually
        did the work.  Every reply but ``need_input`` ends its request
        and is counted here under its ``outcome`` header once it is
        sent — on both backends, since the real edge runs this code
        too.  A reply that cannot be sent raises and is not counted:
        :meth:`_handle` counts the request once, as ``responses_dropped``,
        if its ``error`` reply cannot be sent either.
        """
        tagged = {"served_by": self.host.name}
        if headers:
            tagged.update(headers)
        yield from self.rpc.respond(msg, size_bytes=size_bytes,
                                    payload=payload, kind=kind, headers=tagged)
        if kind != "need_input":
            self.counts[tagged["outcome"]] += 1

    # -- cache lookup / insert ----------------------------------------------------

    def _lookup(self, descriptor: Descriptor,
                threshold: float | None = None):
        """Charge one lookup's simulated cost, then probe the cache.

        Pay-then-probe: expiry and recency are judged at the instant
        the lookup completes, not when it was requested.
        """
        yield self.cache.lookup_cost_s(descriptor.kind)
        return self.cache.lookup(descriptor, now=self.env.now,
                                 threshold=threshold)

    def _insert(self, descriptor: Descriptor, result: typing.Any,
                size_bytes: int, *, since: float | None = None,
                cost_s: float | None = None):
        """Charge one insert's bookkeeping cost, then cache ``result``.

        ``cost_s`` is what cost-aware eviction values the entry at: give
        it outright, or give ``since`` — the instant the fetch began —
        for the time elapsed once the charge is paid.
        """
        yield self.config.cache.insert_ms / 1e3
        if cost_s is None:
            cost_s = self.env.now - since
        self.cache.insert(descriptor, result, size_bytes,
                          now=self.env.now, cost_s=cost_s)

    # -- cloud forward ------------------------------------------------------------

    def _cloud_call(self, task: Task) -> Event:
        """Forward ``task`` to the cloud; the pending call for its result.

        A relayed frame travels with 64 B of request framing; hash-keyed
        fetches forward the compact reference as is.
        """
        framing = 64 if isinstance(task, RecognitionTask) else 0
        forward = Message(size_bytes=task.input_bytes + framing,
                          kind="cloud_request", payload=task,
                          src=self.host.name, dst=self.cloud_name)
        return self.rpc.call(forward, timeout=self.config.request_timeout_s)

    # -- serve loop ----------------------------------------------------------------

    def _serve(self):
        """The simulator's accept loop, started by the deployment."""
        while True:
            msg = yield self.rpc.serve(self.host)
            self.env.process(self._handle(msg))

    def _handle(self, msg: Message):
        if msg.kind == "cache_summary":
            # Affinity gossip: a neighbour's cache summary.  Pure
            # bookkeeping — overwrite the previous snapshot, no
            # simulated compute (the transfer already paid its bytes).
            self.peer_summaries[msg.src] = msg.payload
            self.counts["summaries_received"] += 1
            return
        if msg.kind == "prewarm_push":
            # One-way replication from a peer edge ahead of a handoff;
            # not a client request, so it does not count as served.
            yield from self._handle_prewarm(msg)
            return
        if msg.kind == "peer_lookup":
            yield from self._handle_peer_lookup(msg)
            self.counts["requests_served"] += 1
            return
        try:
            yield from self.pipeline.process(self, msg)
        except RpcError as exc:
            # Cloud unreachable or deadline blown: tell the client rather
            # than dying silently; the client surfaces OUTCOME_ERROR.
            try:
                yield from self._respond(
                    msg, size_bytes=128, payload=str(exc), kind="error",
                    headers={"outcome": "error"})
            except RpcError:
                # The client itself is unreachable — it abandoned the
                # request and its access link is already torn down.
                self.counts["responses_dropped"] += 1
        self.counts["requests_served"] += 1

    def _handle_prewarm(self, msg: Message):
        """Absorb a peer's pre-warm batch: one bookkeeping charge, one
        ``insert_batch`` (items carry their original ``cost_s``)."""
        yield self.config.cache.insert_ms / 1e3
        inserted = self.cache.insert_batch(msg.payload, now=self.env.now)
        self.counts["prewarm_received"] += sum(1 for entry in inserted
                                               if entry is not None)

    def _handle_peer_lookup(self, msg: Message):
        """Answer another edge's cache probe (descriptor only)."""
        descriptor: Descriptor = msg.payload
        entry = yield from self._lookup(descriptor, self.match_threshold)
        result = None if entry is None else entry.result
        size = 96 if result is None else result.size_bytes
        try:
            yield from self.rpc.respond(
                msg, size_bytes=size, payload=result, kind="peer_result")
        except RpcError:
            # The asking edge is cut off: its probe times out over there.
            self.counts["responses_dropped"] += 1

    # -- extraction -----------------------------------------------------------------

    def _extract_descriptor(self, task: RecognitionTask, observation=None):
        """Edge-side extraction from the uploaded frame (worker pool).

        ``observation`` short-circuits the host-side ``extract`` call
        when a deterministic observation of the same frame is already
        in hand (the layer-reuse stage computes one for its sketch);
        the simulated cost — worker slot plus extraction time — is paid
        either way.
        """
        slot = self.compute.request()
        yield slot
        try:
            yield self.recognizer.extraction_time()
            if observation is None:
                observation = self.recognizer.extract(task.frame)
        finally:
            self.compute.release(slot)
        return VectorDescriptor(kind=task.kind, vector=observation.vector)

    # -- hash-keyed fetches: background parse, in-flight marker ------------------------

    def _parse_and_insert(self, task: ModelLoadTask,
                          descriptor: HashDescriptor, fetch_cost: float,
                          done: Event):
        """Background: parse the fetched model, cache the loaded form."""
        try:
            slot = self.compute.request()
            yield slot
            try:
                yield self.loader.parse_time(task.file_bytes)
            finally:
                self.compute.release(slot)
            loaded = ModelLoadResult(digest=task.digest,
                                     payload_bytes=task.loaded_bytes,
                                     parsed=True)
            yield from self._insert(
                descriptor, loaded, loaded.payload_bytes,
                cost_s=fetch_cost + self.loader.parse_time(task.file_bytes))
        finally:
            self._finish_inflight(descriptor, done)

    def _finish_inflight(self, descriptor: HashDescriptor,
                         done: Event) -> None:
        """Release coalesced waiters and retire the in-flight marker."""
        if not done.triggered:
            done.succeed()
        if self._inflight.get(descriptor.digest) is done:
            del self._inflight[descriptor.digest]
