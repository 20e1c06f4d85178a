"""The edge request pipeline: explicit stages plus an overload layer.

Every request an edge serves flows through a chain of stages that map
onto Figure 1 of the paper (the middle "MEC platform" box).  The chain
is built once per policy from only the stages that can act
(:func:`build_pipeline`); the default — the paper's edge — is
``lookup -> resolve -> respond``:

* **receive IC request** — :meth:`Pipeline.process` itself determines
  the task family (vector-matched recognition vs hash-keyed
  model/panorama fetch) and pulls the client-supplied descriptor and
  ``force_forward`` out of the headers before any stage runs.
* **admit** (only when ``EdgePolicySpec.gates_admission``) — the
  overload layer's front door, :class:`AdmissionControlStage`, first in
  the chain: it can *shed* (refuse outright), *cloud-redirect* (relay
  to the cloud without spending edge compute — Figure 1's fallback
  path from the MEC platform to the cloud service), or *peer-offload*
  (forward to a less-loaded neighbouring edge over the inter-edge
  backhaul — the cooperation arrow between MEC sites).  The paper's
  edge accepts everything, so without a gating policy there is no
  admit stage at all.
* **layer_reuse** (only with ``EdgePolicySpec.layer_reuse``) — just
  before lookup, :class:`LayerReuseStage` plans partial inference from
  the edge's cached DNN-layer activations (paper §4 / Potluck) and,
  when resuming beats full inference, serves the request for the
  remaining layers' compute only — the ``partial`` outcome.
* **lookup** — "Extract IC Feature" + "IC cache lookup": edge-side
  descriptor extraction on the bounded worker pool when the client
  sent only the frame, then the cache probe.
* **resolve** — the hit/miss fork of Figure 1, and the only place
  that knows the miss order: local hit -> awaited speculative result
  -> ``need_input`` -> peer edges (when the edge has any) -> cloud;
  whatever is fetched is inserted into the cache on the way back.
* **respond** — "send IC result": the one place an ``ic_result``
  leaves the edge, tagged with the serving edge id.  Every stage that
  produces a result (resolve, an admission redirect, partial
  inference) only fills ``ctx.result`` / ``ctx.outcome`` /
  ``ctx.extra_headers``; :meth:`Pipeline.process` then skips straight
  here.

The default chain reproduces the historical ``EdgeNode`` behaviour
*byte-identically* — same simulated yields in the same order — which
the golden-digest tests in ``tests/core/test_cluster.py`` /
``tests/core/test_pipeline.py`` pin down.

Stages are small objects with a generator ``run(edge, ctx)``; the
:class:`Pipeline` drives them in order until one of them responds (the
non-result replies — ``need_input``, ``shed``, a relayed offload — are
sent by the stage that decides them).  The
:class:`RequestContext` is the only mutable state handed between stages,
so custom chains (micro-benchmark harnesses, fault injectors, future
QoE schedulers) can be assembled from the same parts.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.edge import _abandon
from repro.core.federation import peer_hit_headers, query_peers
from repro.core.metrics import (
    OUTCOME_HIT,
    OUTCOME_MISS,
    OUTCOME_PARTIAL,
    OUTCOME_SHED,
)
from repro.core.tasks import ModelLoadTask, PanoramaTask, RecognitionTask
from repro.net.message import Message

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.balancer import PeerLoadBalancer
    from repro.core.edge import EdgeNode
    from repro.core.scenario import EdgePolicySpec
    from repro.sim.events import Event


@dataclasses.dataclass(slots=True)
class RequestContext:
    """Mutable per-request state threaded through the pipeline stages.

    Attributes:
        msg: The incoming request message.
        task: ``msg.payload`` (a recognition / model-load / panorama task).
        family: ``"recognition"`` or ``"hash"``, set by
            :meth:`Pipeline.process`.
        descriptor: The lookup key (client-supplied or edge-extracted).
        skip_lookup: Client re-sent input after ``need_input``: go
            straight to the miss path.
        entry: The cache entry on a hit, else None.
        speculative: In-flight hedged cloud call (speculative forward).
        spec_started: Simulated time the speculative call started.
        layer_sketch: The request's cheap input sketch, set by the
            layer-reuse stage (even when it declines to serve) so the
            lookup stage can seed the layer cache with the taps its
            extraction computes anyway.  None under the default chain.
        layer_observation: The deterministic observation the layer-reuse
            stage extracted for its sketch, reused by the lookup stage's
            extraction so the same frame is not re-embedded host-side.
        result: The IC result to return; once a stage sets it the
            pipeline driver skips to the respond stage.
        outcome: Outcome header value for the respond stage.
        extra_headers: Extra response headers (e.g. ``coalesced``,
            ``federated``, ``redirected``, ``resume_layer``).
        responded: A stage already sent a reply; the pipeline driver
            stops.
    """

    msg: Message
    task: typing.Any
    family: str
    descriptor: typing.Any = None
    skip_lookup: bool = False
    entry: typing.Any = None
    speculative: "Event | None" = None
    spec_started: float = 0.0
    layer_sketch: typing.Any = None
    layer_observation: typing.Any = None
    result: typing.Any = None
    outcome: str = ""
    extra_headers: dict = dataclasses.field(default_factory=dict)
    responded: bool = False


class Stage:
    """One pipeline step.  ``run`` is a simulation generator."""

    name = "stage"

    def run(self, edge: "EdgeNode", ctx: RequestContext):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class LayerReuseStage(Stage):
    """Serve recognition by partial inference from cached DNN layers.

    The missing half of the Potluck-style reuse loop (paper §4): handoff
    pre-warm *transports* ``layer:*`` activation entries between edges,
    and this stage is what reads them on the serving path.
    This stage sits just before lookup when
    ``EdgePolicySpec.layer_reuse`` is set and short-circuits the
    expensive extract -> lookup -> cloud-forward path whenever a cached
    intermediate is close enough to resume from:

    1. Compute the request's cheap input sketch (milliseconds, not a
       backbone pass) — or reuse the ``sketch`` header affinity-enabled
       clients already attach.
    2. Walk the taps deep-to-shallow
       (:meth:`~repro.core.layer_cache.LayerCacheManager.probe_sequence`)
       against the edge's layer cache, paying one lookup per probed tap;
       the deepest servable match picks the plan
       (:meth:`~repro.core.layer_cache.LayerCacheManager.plan_for`).
    3. If the plan resumes at some layer and saves at least
       ``layer_plan_margin_s`` versus full inference on this device,
       run only the remaining layers on the worker pool and answer with
       the ``partial`` outcome (headers carry ``resume_layer`` and
       ``saved_s``).  The freshly computed activations — and, when the
       resume point is shallower than the feature tap, the resulting
       descriptor + result — are inserted back into the caches so reuse
       compounds across drift chains.
    4. Otherwise decline: the request continues down the default chain
       unchanged, except that the sketch is left on the context so the
       lookup stage's extraction seeds the layer cache for next time.

    Both edge-extracted and client-computed-descriptor requests are
    planned: a client descriptor folds to the same sketch the edge
    would have computed (deterministic captures), so it probes the
    layer cache without a backbone pass.  Client-descriptor traffic
    only *consumes* layer entries — the edge never runs the layers
    that would seed them.  Planning requires the frame to have crossed
    the access link (``has_input``) — resuming layers needs the input.
    """

    name = "layer_reuse"

    def __init__(self, spec: "EdgePolicySpec"):
        self.spec = spec

    def __repr__(self) -> str:
        return (f"LayerReuseStage("
                f"margin_s={self.spec.layer_plan_margin_s!r})")

    def run(self, edge: "EdgeNode", ctx: RequestContext):
        manager = edge.layer_manager
        if (manager is None or not isinstance(ctx.task, RecognitionTask)
                or ctx.skip_lookup
                or not ctx.msg.headers.get("has_input", False)):
            return
        from repro.core.descriptors import VectorDescriptor
        from repro.core.sketch import SKETCH_COST_S, input_sketch

        observation = None
        sketch = ctx.msg.headers.get("sketch")
        if sketch is None:
            if ctx.descriptor is not None:
                # Client-computed descriptor: fold the vector the client
                # already shipped into sketch space.  Extraction is a
                # function of the frame, so it is the same sketch the
                # edge's own extraction would yield, for only the
                # projection's cost — no backbone pass.
                if not getattr(ctx.descriptor, "is_vector", False):
                    return
                yield SKETCH_COST_S
                sketch = input_sketch(ctx.descriptor.vector)
            else:
                # The edge pays the perceptual-sketch pass itself;
                # clients running affinity offload shipped one already.
                yield SKETCH_COST_S
                observation = edge.recognizer.extract(ctx.task.frame)
                sketch = input_sketch(observation.vector)
                ctx.layer_observation = observation
        ctx.layer_sketch = sketch
        # Walk the taps deep-to-shallow, one charged lookup per probed
        # tap (the manager plans over this edge's own cache); the
        # deepest acceptable match wins.
        resume_after = None
        matched = None
        for name, kind, threshold in manager.probe_sequence():
            found = yield from edge._lookup(
                VectorDescriptor(kind=kind, vector=sketch), threshold)
            if found is None or not manager.servable(name, found):
                # No match — or a marker-only final-tap entry with no
                # result to return — keep walking; a shallower tap can
                # still resume the pass.
                continue
            matched, resume_after = found, name
            break
        plan = manager.plan_for(resume_after)
        if plan.resume_after is None:
            return
        partial_s = manager.compute_time(plan, edge.recognizer.device)
        full_s = edge.recognizer.inference_time()
        # Reported savings stay measured against a full inference pass
        # (the historical ``saved_s`` semantics every metric reads), but
        # the serve/decline margin compares against the *expected
        # default-chain* cost: when a cheap coarse hit was likely, the
        # chain being replaced costs far less than full inference, and
        # a partial serve must beat that, not the worst case.
        saved_s = full_s - partial_s
        baseline_s = manager.default_chain_cost_s(
            ctx.task.kind,
            extraction_s=edge.recognizer.extraction_time(),
            lookup_s=manager.cache.lookup_cost_s(ctx.task.kind),
            hit_ratio=edge.coarse_hit_ratio,
            full_s=full_s)
        if baseline_s - partial_s < self.spec.layer_plan_margin_s:
            return
        yield from self._serve_partial(edge, ctx, manager, plan, matched,
                                       partial_s, saved_s, observation)

    def _serve_partial(self, edge: "EdgeNode", ctx: RequestContext,
                       manager, plan, matched, partial_s: float,
                       saved_s: float, observation=None):
        """Run the remaining layers, refresh the caches, set the result."""
        # The key of the matched entry, read before the pass yields: the
        # entry may be evicted while the pass runs.
        matched_key = (None if plan.full_result
                       else edge.cache.descriptor(matched))
        if partial_s > 0:
            # Full-result reuse runs no layers at all, so it must not
            # queue behind the extraction backlog — zero compute takes
            # zero slot time, exactly when the edge is busiest.
            slot = edge.compute.request()
            yield slot
            try:
                yield partial_s
            finally:
                edge.compute.release(slot)
        # Full-result reuse returns what the cache actually holds — the
        # result stored with the final-layer entry (the probe walk only
        # accepts final-tap matches that carry one) — so a false sketch
        # match is scored incorrect, exactly like a false coarse hit.
        if plan.full_result:
            result = manager.cached_result(matched)
        else:
            # A resumed pass rides the *cached* input's shallow
            # activations.  Within the coarse match threshold the two
            # inputs are interchangeable and the resume reproduces the
            # oracle answer; past it, the stale features dominate and
            # the pass lands on the cached input's class — which the
            # client then scores against ground truth, exactly like
            # full-result reuse.  Entries that never recorded a source
            # class (legacy inserts) keep the oracle behaviour.
            result = edge.recognizer.recognize(ctx.task.frame)
            source = manager.source_class(matched)
            if source is not None and ctx.layer_sketch is not None:
                from repro.core.distance import pairwise

                drift = pairwise(ctx.layer_sketch, matched_key.vector)
                if drift > edge.match_threshold:
                    result = dataclasses.replace(result,
                                                 label=int(source))
        if not plan.full_result:
            # Re-cache what the resumed pass actually computed: the taps
            # after the resume point under *this* input's sketch, plus —
            # when the pass re-ran the feature tap — the descriptor and
            # result, so near-identical recaptures hit the coarse cache.
            yield edge.config.cache.insert_ms / 1e3
            taps = manager.layers_after(plan.resume_after)
            # Custom tap subsets may omit the final layer; the result
            # can only ride a final-layer entry.
            attach = (result if manager.network.layers[-1].name in taps
                      else None)
            # The re-cached taps were computed from this pass's output,
            # so they carry *its* label — a drift chain that went stale
            # propagates the stale class, it does not launder it.
            manager.insert(ctx.layer_sketch, now=edge.env.now,
                           layers=taps, result=attach,
                           source_class=result.label)
            network = manager.network
            if (network.layer_index(plan.resume_after)
                    < network.layer_index(network.feature_layer)):
                from repro.core.descriptors import VectorDescriptor

                if observation is None:
                    observation = edge.recognizer.extract(ctx.task.frame)
                descriptor = VectorDescriptor(kind=ctx.task.kind,
                                              vector=observation.vector)
                edge.cache.insert(descriptor, result, result.size_bytes,
                                  now=edge.env.now, cost_s=partial_s)
        edge.counts["partial_saved_s"] += saved_s
        ctx.result = result
        ctx.outcome = OUTCOME_PARTIAL
        ctx.extra_headers.update(resume_layer=plan.resume_after,
                                 saved_s=saved_s)


class LookupStage(Stage):
    """Descriptor extraction (if needed) and the cache probe."""

    name = "lookup"

    def run(self, edge: "EdgeNode", ctx: RequestContext):
        if ctx.skip_lookup:
            return
        if ctx.family == "recognition":
            yield from self._recognition_lookup(edge, ctx)
        else:
            yield from self._hash_lookup(edge, ctx)

    def _recognition_lookup(self, edge: "EdgeNode", ctx: RequestContext):
        if (edge.config.recognition.speculative_forward
                and ctx.msg.headers.get("has_input", False)):
            # Hedge: start the cloud round trip now; a hit abandons it, a
            # miss overlaps extraction+lookup with the forward.
            ctx.spec_started = edge.env.now
            ctx.speculative = edge._cloud_call(ctx.task)
        if ctx.descriptor is None:
            ctx.descriptor = yield from edge._extract_descriptor(
                ctx.task, observation=ctx.layer_observation)
            if ctx.layer_sketch is not None and edge.layer_manager is not None:
                # Layer reuse is on and the backbone just ran: cache the
                # taps it computed (input .. feature layer) under this
                # request's sketch, so the *next* drifted capture can
                # resume mid-network instead of recomputing.
                yield edge.config.cache.insert_ms / 1e3
                manager = edge.layer_manager
                edge.counts["layer_seeded"] += manager.insert(
                    ctx.layer_sketch, now=edge.env.now,
                    layers=manager.layers_through(
                        manager.network.feature_layer),
                    source_class=ctx.task.frame.object_class)
        ctx.entry = yield from edge._lookup(ctx.descriptor,
                                            edge.match_threshold)
        # Per-edge coarse hit evidence: what the layer-reuse stage's
        # default-chain baseline reads.  Deliberately *not* the cache's
        # global stats — layer-tap probes would drown the signal.
        edge.counts["coarse_lookups"] += 1
        if ctx.entry is not None:
            edge.counts["coarse_hits"] += 1

    def _hash_lookup(self, edge: "EdgeNode", ctx: RequestContext):
        ctx.entry = yield from edge._lookup(ctx.descriptor)
        while ctx.entry is None:
            pending = edge._inflight.get(ctx.descriptor.digest)
            if pending is None:
                # Nothing in flight: fetch afresh in the resolve stage.
                return
            # Coalesce: ride the in-flight fetch (peer probes and cloud
            # leg alike).  A fetch that fails, or whose entry is evicted
            # at once, releases its waiters together: the first to run
            # registers a fresh fetch and the rest ride that one.
            yield pending
            ctx.entry = edge.cache.lookup(ctx.descriptor, now=edge.env.now)
            if ctx.entry is not None:
                ctx.extra_headers["coalesced"] = True


class ResolveStage(Stage):
    """The hit/miss fork, and the one place that knows the miss order.

    Local hit -> awaited speculative result -> ``need_input`` -> peer
    edges (when ``edge.peers`` is non-empty) -> cloud.  Whatever is
    fetched is inserted locally; the stage only fills ``ctx.result`` /
    ``ctx.outcome`` / ``ctx.extra_headers`` for the respond stage.
    """

    name = "resolve"

    def run(self, edge: "EdgeNode", ctx: RequestContext):
        if ctx.entry is not None:
            if ctx.speculative is not None:
                _abandon(ctx.speculative)
            ctx.result = ctx.entry.result
            ctx.outcome = OUTCOME_HIT
        elif ctx.family == "recognition":
            yield from self._recognition_miss(edge, ctx)
        else:
            yield from self._hash_miss(edge, ctx)

    def _from_peers(self, edge: "EdgeNode", ctx: RequestContext):
        """The peer leg of a miss; True when a peer's copy now serves it.

        A federated hit is inserted locally, valued at the probe round
        trip it actually cost rather than the cloud fetch it avoided.
        """
        if not edge.peers:
            return False
        started = edge.env.now
        result, peer = yield from query_peers(edge, ctx.descriptor)
        if result is None:
            return False
        yield from edge._insert(
            ctx.descriptor, result,
            getattr(result, "payload_bytes", result.size_bytes),
            since=started)
        ctx.result = result
        ctx.outcome = OUTCOME_HIT
        ctx.extra_headers.update(peer_hit_headers(edge, peer))
        return True

    def _recognition_miss(self, edge: "EdgeNode", ctx: RequestContext):
        # The branches below *are* the miss order.
        if ctx.speculative is not None:
            # The hedged forward has been in flight since before
            # extraction: its answer is nearer than any peer's.
            started = ctx.spec_started
            response = yield ctx.speculative
        elif not (ctx.skip_lookup
                  or ctx.msg.headers.get("has_input", False)):
            # Client kept the frame; ask for it (extra round trip)
            # before spending backhaul on probes or a forward.
            yield from edge._respond(
                ctx.msg, size_bytes=128, payload=None, kind="need_input",
                headers={"outcome": OUTCOME_MISS})
            ctx.responded = True
            return
        elif (ctx.descriptor is not None
              and (yield from self._from_peers(edge, ctx))):
            return
        else:
            started = edge.env.now
            response = yield edge._cloud_call(ctx.task)
        ctx.result = response.payload
        ctx.outcome = OUTCOME_MISS
        if ctx.descriptor is not None:
            # No descriptor (a re-sent frame the edge never extracted):
            # nothing to key the result under, so nothing is cached.
            yield from edge._insert(ctx.descriptor, ctx.result,
                                    ctx.result.size_bytes, since=started)

    def _hash_miss(self, edge: "EdgeNode", ctx: RequestContext):
        task, descriptor = ctx.task, ctx.descriptor
        # Registered before the first probe, so peers + cloud leg are
        # one coalesced fetch: requests for the same digest arriving
        # meanwhile wait on the marker (LookupStage) instead of probing
        # and fetching again.
        done = edge._inflight[descriptor.digest] = edge.env.event()
        try:
            if (yield from self._from_peers(edge, ctx)):
                edge._finish_inflight(descriptor, done)
                return
            started = edge.env.now
            response = yield edge._cloud_call(task)
            fetch_cost = edge.env.now - started
        except Exception:
            # Fetch failed: wake coalesced waiters (they will re-miss and
            # retry their own fetch) and re-raise into the handler.
            edge._finish_inflight(descriptor, done)
            raise
        ctx.result = result = response.payload
        ctx.outcome = OUTCOME_MISS
        if isinstance(task, ModelLoadTask):
            # Reply with the raw file now; parse into the cacheable loaded
            # form in the background.  Waiters are released only once the
            # loaded form is actually in the cache.
            edge.env.process(edge._parse_and_insert(
                task, descriptor, fetch_cost, done))
        else:
            yield from edge._insert(descriptor, result, result.size_bytes,
                                    cost_s=fetch_cost)
            edge._finish_inflight(descriptor, done)


class RespondStage(Stage):
    """Send the IC result — the edge's only ``ic_result`` send site."""

    name = "respond"

    def run(self, edge: "EdgeNode", ctx: RequestContext):
        headers = {"outcome": ctx.outcome}
        headers.update(ctx.extra_headers)
        yield from edge._respond(
            ctx.msg, size_bytes=ctx.result.size_bytes, payload=ctx.result,
            kind="ic_result", headers=headers)
        ctx.responded = True


class Pipeline:
    """An ordered stage chain; drives a request until a stage replies."""

    def __init__(self, stages: typing.Sequence[Stage]):
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages = list(stages)

    @property
    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]

    def process(self, edge: "EdgeNode", msg: Message):
        """Simulation process: run ``msg`` through the stage chain.

        "Receive IC request" happens here, before any stage: the task
        family and the header descriptor (and, for recognition,
        ``force_forward``) go onto a fresh :class:`RequestContext`.
        Once a stage has produced ``ctx.result``, every stage but the
        one named ``respond`` is skipped; a stage that replied itself
        (``ctx.responded``) ends the chain.
        """
        task, headers = msg.payload, msg.headers
        if isinstance(task, RecognitionTask):
            ctx = RequestContext(msg, task, "recognition",
                                 headers.get("descriptor"),
                                 bool(headers.get("force_forward")))
        elif isinstance(task, (ModelLoadTask, PanoramaTask)):
            ctx = RequestContext(msg, task, "hash", headers["descriptor"])
        else:
            raise TypeError(f"edge cannot serve {task!r}")
        for stage in self.stages:
            if ctx.result is not None and stage.name != RespondStage.name:
                continue  # a result exists: all that is left is sending it
            yield from stage.run(edge, ctx)
            if ctx.responded:
                break
        return ctx

    def __repr__(self) -> str:
        return f"Pipeline({' -> '.join(self.stage_names)})"


# -- overload layer -----------------------------------------------------------


class AdmissionControlStage(Stage):
    """Overload-aware front door: shed, cloud-redirect, or peer-offload.

    Heads the chain when the scenario's
    :class:`~repro.core.scenario.EdgePolicySpec` gates admission (the
    paper's edge, which admits everything, has no admit stage).  Only
    recognition tasks are gated — they are the compute-heavy family
    contending for the worker pool; hash-keyed fetches are
    transfer-bound and pass through.  Requests another edge already
    offloaded here are always accepted (no ping-pong).

    Decision order under overload: peer-offload if a sufficiently less
    loaded neighbour exists (chosen least-loaded or affinity-scored per
    ``EdgePolicySpec.offload``), else the configured admission action.
    """

    name = "admit"

    def __init__(self, spec: "EdgePolicySpec",
                 balancer: "PeerLoadBalancer | None" = None):
        self.spec = spec
        self.balancer = balancer

    def __repr__(self) -> str:
        return (f"AdmissionControlStage(admission={self.spec.admission!r}, "
                f"offload={self.spec.offload!r})")

    def overloaded(self, edge: "EdgeNode") -> bool:
        """Is the worker pool's backlog at the policy's ``queue_limit``?"""
        limit = self.spec.queue_limit
        return limit is not None and edge.compute.queue_length >= limit

    def run(self, edge: "EdgeNode", ctx: RequestContext):
        if not isinstance(ctx.task, RecognitionTask):
            return
        if ctx.msg.headers.get("offloaded"):
            edge.counts["offloaded_in"] += 1
            return
        if not self.overloaded(edge):
            return
        if self.spec.offload != "none" and self.balancer is not None:
            target = self.balancer.pick(edge.host.name,
                                        key=self._affinity_key(ctx))
            if target is not None:
                yield from self._offload(edge, ctx, target)
                return
        if self.spec.admission == "shed":
            yield from edge._respond(
                ctx.msg, size_bytes=96, payload=None, kind="shed",
                headers={"outcome": OUTCOME_SHED,
                         "retry_after_s": self.retry_after_s(edge)})
            ctx.responded = True
        elif self.spec.admission == "redirect":
            if not ctx.msg.headers.get("has_input", False):
                # The frame never crossed the access link: the edge
                # cannot relay bytes it does not hold.  Ask for the
                # input first — the same two-phase exchange every other
                # miss path pays — and redirect the re-send instead.
                yield from edge._respond(
                    ctx.msg, size_bytes=128, payload=None,
                    kind="need_input", headers={"outcome": OUTCOME_MISS})
                ctx.responded = True
            else:
                # Relay to the cloud and spend no edge compute: unlike a
                # resolve-stage miss this never extracts or inserts —
                # the point is to protect a saturated worker pool, so
                # the edge acts as the dumb relay of the paper's Origin
                # baseline for this one request.
                edge.counts["redirects"] += 1
                response = yield edge._cloud_call(ctx.task)
                ctx.result = response.payload
                ctx.outcome = OUTCOME_MISS
                ctx.extra_headers["redirected"] = True
        # admission == "none": admit despite the backlog (offload-only
        # policies fall back to queueing when every peer is busy too).

    @staticmethod
    def retry_after_s(edge: "EdgeNode") -> float:
        """Queue-drain estimate shipped with every shed response.

        How long until a worker slot frees up given the current backlog
        — a deterministic service-time model — so clients can back off
        for roughly one drain period instead of guessing.
        """
        backlog = edge.compute.queue_length
        per_slot = edge.recognizer.extraction_time()
        return ((backlog + 1) / edge.compute.capacity) * per_slot

    @staticmethod
    def _affinity_key(ctx: RequestContext):
        """The request's affinity key: input sketch or descriptor vector.

        Clients attach a cheap perceptual ``sketch`` header when the
        scenario runs affinity offload; descriptor-computing clients
        already ship the full vector.  Either folds to the same
        signature space; None means "no signal" (the balancer falls
        back to least-loaded).
        """
        sketch = ctx.msg.headers.get("sketch")
        if sketch is not None:
            return sketch
        descriptor = ctx.msg.headers.get("descriptor")
        if descriptor is not None and getattr(descriptor, "is_vector",
                                              False):
            return descriptor.vector
        return None

    def _offload(self, edge: "EdgeNode", ctx: RequestContext, target: str):
        """Relay the request to ``target`` and its response to the client."""
        edge.counts["offloaded_out"] += 1
        headers: dict = {"offloaded": True, "origin_edge": edge.host.name}
        for key in ("descriptor", "has_input", "force_forward", "sketch"):
            if key in ctx.msg.headers:
                headers[key] = ctx.msg.headers[key]
        forward = Message(size_bytes=ctx.msg.size_bytes,
                          kind="offload_request", payload=ctx.task,
                          src=edge.host.name, dst=target, headers=headers)
        self.balancer.note_dispatch(target)
        try:
            response = yield edge.rpc.call(
                forward, timeout=edge.config.request_timeout_s)
        finally:
            self.balancer.note_done(target)
        relay = {key: value for key, value in response.headers.items()
                 if key not in ("in_reply_to", "rpc_id")}
        broker = getattr(self.balancer, "broker", None)
        if broker is not None:
            # Bill the completed job: the consumer operator pays the
            # provider's quoted price on the simulated ledger.  Pure
            # bookkeeping — no simulated time, no extra messages.
            from repro.core.market import LEDGER_OFFLOAD

            charge = broker.settle(LEDGER_OFFLOAD, edge.host.name, target,
                                   now=edge.env.now,
                                   detail={"user": ctx.msg.src})
            if charge is not None:
                relay["billed_to"], relay["price"] = charge
        yield from edge.rpc.respond(
            ctx.msg, size_bytes=response.size_bytes,
            payload=response.payload, kind=response.kind, headers=relay)
        ctx.responded = True


def build_pipeline(policy: "EdgePolicySpec | None" = None,
                   balancer: "PeerLoadBalancer | None" = None) -> Pipeline:
    """The stage chain for a scenario's edge policy, built from only the
    stages that can act: ``lookup -> resolve -> respond`` (the paper's
    edge) when ``policy`` is None or inert, admission control first when
    it gates admission, layer reuse just before lookup when it is on."""
    stages: list[Stage] = []
    if policy is not None and policy.gates_admission:
        stages.append(AdmissionControlStage(policy, balancer=balancer))
    if policy is not None and policy.layer_reuse:
        stages.append(LayerReuseStage(policy))
    return Pipeline([*stages, LookupStage(), ResolveStage(), RespondStage()])
