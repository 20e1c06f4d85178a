"""ClusterDeployment: build any scenario; move users between edges.

The builder layer of the scenario architecture (see
:mod:`repro.core.scenario` for the layering overview).  One constructor
covers the paper's single testbed edge, isolated or federated multi-edge
clusters, and mobile metro scenarios where clients hand off between
edges mid-run:

* topology wiring is driven entirely by the spec — access links per
  client, one shaped backhaul per edge, and an arbitrary inter-edge
  graph routed by :class:`~repro.net.topology.Topology` (no star
  assumption anywhere);
* client↔edge attachment is a first-class *mutable* association:
  :meth:`handoff` re-points a :class:`~repro.core.client.CoICClient` at
  a new edge with configurable dead time, keeping the old WiFi link up
  until the client's in-flight requests drain (make-before-break), then
  tearing it down;
* :meth:`start_mobility` replays
  :class:`~repro.workload.mobility.RandomWaypointUser` itineraries and
  hands each client to its nearest edge as it moves;
* cache warm-up stores its burst through ``ICCache.insert_batch``, a
  loop over the cache's one write path, ``ICCache.insert``.

Inter-edge messages and what they cost
======================================
Beyond client traffic, the deployment moves three kinds of edge-to-edge
messages, all routed over the spec's inter-edge backhaul graph (multi-
hop via Dijkstra when the graph is not a full mesh; via the cloud WAN
when no metro path exists) and all paying real transfer time for their
``size_bytes``:

* ``prewarm_push`` (:meth:`ClusterDeployment.prewarm`) — one-way batch
  of ``(descriptor, result, size_bytes, cost_s)`` tuples: the source
  edge's ``prewarm_top_k`` hottest IC results plus, with
  ``EdgePolicySpec.prewarm_layers``, its hottest ``layer:*``
  activation entries.  Wire size is 256 B framing plus the *sum of all
  entry payloads* — raw activation bytes included, which is exactly why
  shipping layer state is a policy decision and not free.  The receiver
  stores the batch through ``ICCache.insert_batch`` (entries keep their
  original ``cost_s`` for cost-aware eviction) and logs a
  :class:`PrewarmEvent` carrying the bytes paid.
* ``cache_summary`` (:meth:`ClusterDeployment._gossip_summaries`) — the
  affinity gossip: a :class:`~repro.core.cache.CacheSummary` snapshot
  (per-kind entry counts + signature sketches, a few hundred bytes)
  pushed to each neighbour every ``EdgePolicySpec.summary_refresh_s``.
  The receiving edge stores it in ``EdgeNode.peer_summaries``; the
  affinity balancer scores offload targets against this *stale* view.
* ``offload_request`` (:class:`~repro.core.pipeline.
  AdmissionControlStage`) — a relayed client request (original request
  bytes) whose response is relayed back; in-flight offloads count
  against the target's load.

``peer_lookup`` probes (federation) are documented in
:mod:`repro.core.federation`.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import itertools
import typing

from repro.core.balancer import AffinityLoadBalancer, PeerLoadBalancer
from repro.core.baselines import LocalClient, OriginClient
from repro.core.cache import ICCache
from repro.core.client import CoICClient
from repro.core.cloud import CloudNode
from repro.core.config import CacheConfig, CoICConfig
from repro.core.descriptors import HashDescriptor, VectorDescriptor
from repro.core.edge import EdgeNode
from repro.core.layer_cache import LAYER_KIND_PREFIX, LayerCacheManager
from repro.core.metrics import MetricsRecorder
from repro.core.pipeline import build_pipeline
from repro.core.policies import make_policy
from repro.core.scenario import (
    EdgeSpec,
    ScenarioSpec,
    WarmupSpec,
)
from repro.core.tasks import (
    KIND_MODEL_LOAD,
    KIND_RECOGNITION,
    ModelLoadResult,
    ModelLoadTask,
    PanoramaTask,
    RecognitionTask,
)
from repro.net.message import Message
from repro.net.topology import Topology
from repro.net.transport import Rpc
from repro.render.loader import (
    EDGE_GPU_2018,
    MOBILE_GPU_2018,
    ModelLoader,
)
from repro.render.panorama import Panorama
from repro.sim.kernel import Environment
from repro.sim.rng import RngStreams
from repro.vision.features import EmbeddingSpace
from repro.vision.image import CameraFrame, RESOLUTIONS
from repro.vision.model_zoo import (
    CLOUD_GPU_2018,
    EDGE_CPU_2018,
    MOBILE_SOC_2018,
    get_network,
)
from repro.vision.recognition import RecognitionResult, Recognizer

if typing.TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.net.link import Link
    from repro.workload.mobility import World

CLOUD = "cloud"


def edge_cache(edge: EdgeSpec, cache: CacheConfig) -> ICCache:
    """``edge``'s IC cache, on either backend.

    The one place that knows the precedence: the site's ``cache_mb``
    overrides the deployment's ``CacheConfig.capacity_bytes``.
    """
    return ICCache(
        capacity_bytes=(int(edge.cache_mb * 1e6) if edge.cache_mb is not None
                        else cache.capacity_bytes),
        policy=make_policy(cache.policy),
        vector_index=cache.vector_index,
        vector_dtype=cache.vector_dtype)


def embedding_space(config: CoICConfig) -> EmbeddingSpace:
    """The deployment's embedding geometry, on either backend."""
    rec = config.recognition
    return EmbeddingSpace(
        dim=rec.descriptor_dim, n_classes=rec.n_classes,
        viewpoint_scale=rec.viewpoint_scale, noise_sigma=rec.noise_sigma,
        seed=config.seed)


def prototype_items(space: EmbeddingSpace,
                    classes: typing.Iterable[int]) -> typing.Iterator[tuple]:
    """Warm-up ``(descriptor, result, size_bytes)`` triples for classes.

    Each descriptor is ``space.observe(cls, 0.0).vector``, taken from
    :meth:`EmbeddingSpace.prototypes`, which derives a run of
    consecutive classes a block at a time.
    """
    classes = tuple(classes)
    for cls, vector in zip(classes, space.prototypes(classes)):
        result = RecognitionResult(label=cls, confidence=0.97)
        yield (VectorDescriptor(kind=KIND_RECOGNITION, vector=vector),
               result, result.size_bytes)


def client_options(spec: ScenarioSpec, config: CoICConfig,
                   rng: RngStreams, name: str) -> dict:
    """The ``CoICClient`` arguments the policy gives client ``name``, on
    either backend: the input sketch an affinity balancer scores (with
    edge-side extraction; a client descriptor is its own key), and the
    shed-retry budget with a per-client jitter stream, so a refused
    crowd does not re-stampede in lockstep (zero retries wire none)."""
    policy = spec.policy
    shed_retries = policy.shed_retries if policy is not None else 0
    return {"attach_sketch": (policy is not None
                              and policy.offload == "affinity"
                              and config.recognition.descriptor_source
                              == "edge"),
            "shed_retries": shed_retries,
            "backoff_rng": (rng.stream(f"client.backoff.{name}")
                            if shed_retries > 0 else None)}


@dataclasses.dataclass(frozen=True)
class HandoffEvent:
    """One completed client migration between edges."""

    started_s: float
    completed_s: float
    client: str
    src_edge: str
    dst_edge: str


@dataclasses.dataclass(frozen=True)
class PrewarmEvent:
    """One predictive pre-warm push ahead of a client's handoff.

    Attributes:
        time_s: Simulated time the push *completed* (transfer included).
        client: The client whose handoff triggered the push.
        src_edge / dst_edge: The edges the entries moved between.
        pushed: IC-result entries delivered (``prewarm_top_k`` budget).
        layer_entries: DNN-layer activation entries delivered in the
            same push (``prewarm_layers`` budget).
        size_bytes: Wire size of the push — result payloads plus raw
            activation bytes plus framing — i.e. the backhaul cost the
            transfer actually paid.
    """

    time_s: float
    client: str
    src_edge: str
    dst_edge: str
    pushed: int
    layer_entries: int = 0
    size_bytes: int = 0


class ClusterDeployment:
    """A fully wired cluster built from a :class:`ScenarioSpec`.

    Args:
        spec: The scenario to build.
        config: Deployment parameters (``CoICConfig()`` if None).

    Attributes:
        env: The simulation environment (drive with ``env.run``).
        edges: Edge nodes, in spec order.
        caches: Each edge's IC cache, in spec order.
        clients_by_edge: ``clients_by_edge[k][i]`` is the i-th client
            initially attached to edge k.
        all_clients: Every CoIC client, flattened in spec order.
        cloud: The shared cloud node.
        recorder: Shared metrics recorder for all clients.
        handoff_log: Completed :class:`HandoffEvent` s, in time order.
    """

    def __init__(self, spec: ScenarioSpec,
                 config: CoICConfig | None = None):
        self.spec = spec
        self.config = config if config is not None else CoICConfig()
        cfg = self.config

        self.env = Environment()
        self.rng = RngStreams(cfg.seed)
        self.topology = Topology(self.env)
        #: Link-rate changes the background load curve has applied.
        self.rate_changes = 0
        self.rpc = Rpc(self.env, self.topology)
        self.recorder = MetricsRecorder()
        self._capture_ids = itertools.count(1)

        # -- network ---------------------------------------------------------
        net = cfg.network
        self.edge_names = spec.edge_names
        self.backhaul: dict[str, tuple["Link", "Link"]] = {}
        #: client name -> access technology ("wifi" | "lte"); handoffs
        #: re-create the same kind of link at the new edge.
        self.client_access: dict[str, str] = {
            cspec.name: cspec.access
            for espec in spec.edges for cspec in espec.clients}
        for espec in spec.edges:
            for cspec in espec.clients:
                self._add_access(cspec.name, espec.name,
                                 stream=cspec.wifi_stream or None)
            jitter_s = (net.backhaul_jitter_ms / 1e3
                        if spec.impairments else 0.0)
            loss_rate = net.loss_rate if spec.impairments else 0.0
            self.backhaul[espec.name] = self.topology.add_duplex(
                espec.name, CLOUD, net.backhaul_mbps * 1e6,
                propagation_s=net.backhaul_delay_ms / 1e3,
                jitter_s=jitter_s, loss_rate=loss_rate,
                rng=self._link_rng(jitter_s, loss_rate,
                                   espec.backhaul_stream
                                   or f"net.backhaul.{espec.name}"))
        self.inter_edge_links: dict[tuple[str, str], tuple["Link", "Link"]] = {}
        for lspec in spec.inter_edge:
            self.inter_edge_links[(lspec.a, lspec.b)] = \
                self.topology.add_duplex(
                    lspec.a, lspec.b, lspec.mbps * 1e6,
                    propagation_s=lspec.delay_ms / 1e3)

        # -- background cross-traffic ----------------------------------------
        # One driver process re-shapes the affected links along the
        # spec's diurnal load curve for the life of the simulation (so
        # drive background scenarios with run_for(), not a bare run()).
        if spec.background is not None:
            self.env.process(self._background_traffic())

        # -- vision ----------------------------------------------------------
        rec = cfg.recognition
        self.space = embedding_space(cfg)
        self._network = get_network(rec.network,
                                    descriptor_dim=rec.descriptor_dim)
        self.mobile_recognizer = Recognizer(
            self._network, MOBILE_SOC_2018, self.space)
        self.cloud_recognizer = Recognizer(
            self._network, CLOUD_GPU_2018, self.space)

        # -- rendering -------------------------------------------------------
        self.mobile_loader = ModelLoader(MOBILE_GPU_2018)
        self.edge_loader = ModelLoader(EDGE_GPU_2018)
        #: model_id -> (digest, file_bytes): the world's model catalog.
        self.catalog: dict[int, tuple[str, int]] = {}
        for model_id, size_kb in enumerate(cfg.rendering.catalog_sizes_kb):
            digest = hashlib.sha256(
                f"model:{model_id}:{size_kb}:{cfg.seed}".encode()).hexdigest()
            self.catalog[model_id] = (digest, int(size_kb * 1024))

        # -- nodes -----------------------------------------------------------
        self.cloud = CloudNode(
            self.env, self.rpc, self.topology.hosts[CLOUD],
            recognizer=self.cloud_recognizer, config=cfg,
            workers=cfg.cloud_workers)

        # -- overload layer --------------------------------------------------
        # One shared pipeline per deployment: the stages are stateless
        # (per-request state lives in the RequestContext, counters on the
        # edge), so every edge can run the same chain.  The balancer is
        # registered as edges come up; its neighbour map is the spec's
        # inter-edge backhaul graph.
        # -- federation marketplace ------------------------------------------
        # Control-plane broker for multi-operator scenarios: consent,
        # auctions and ledger settlement for every cross-domain offload,
        # peer probe and pre-warm push.  None without operators — and
        # pure bookkeeping with them, so an all-free open market stays
        # byte-identical to the single-domain deployment.
        self.broker = None
        if spec.operators:
            from repro.core.market import FederationBroker

            self.broker = FederationBroker(spec, self.recorder,
                                           seed=cfg.seed)

        self.balancer: PeerLoadBalancer | None = None
        if spec.policy is not None and spec.policy.offload != "none":
            balancer_cls = (AffinityLoadBalancer
                            if spec.policy.offload == "affinity"
                            else PeerLoadBalancer)
            self.balancer = balancer_cls(margin=spec.policy.offload_margin,
                                         broker=self.broker)
        self.pipeline = build_pipeline(spec.policy, self.balancer)
        neighbours: dict[str, list[str]] = {n: [] for n in self.edge_names}
        for lspec in spec.inter_edge:
            neighbours[lspec.a].append(lspec.b)
            neighbours[lspec.b].append(lspec.a)

        self.edges: list[EdgeNode] = []
        self.caches: list[ICCache] = []
        self.edge_recognizers: list[Recognizer] = []
        for espec in spec.edges:
            cache = edge_cache(espec, cfg.cache)
            self.caches.append(cache)
            recognizer = Recognizer(self._network, EDGE_CPU_2018, self.space)
            self.edge_recognizers.append(recognizer)
            # Federation is data, not a node type: an edge with no peers
            # never probes (the node drops its own name from the list).
            peers = espec.peers if espec.peers is not None else self.edge_names
            node = EdgeNode(
                self.env, self.rpc, self.topology.hosts[espec.name],
                cache=cache, config=cfg, recognizer=recognizer,
                loader=self.edge_loader, workers=cfg.edge_workers,
                pipeline=self.pipeline,
                peers=peers if spec.federate else (),
                peer_timeout_s=spec.peer_timeout_s, broker=self.broker)
            self.env.process(node._serve())
            if self.balancer is not None:
                self.balancer.register(espec.name, node,
                                       neighbours[espec.name])
            self.edges.append(node)
        self.edge_by_name = dict(zip(self.edge_names, self.edges))
        self.cache_by_name = dict(zip(self.edge_names, self.caches))

        # -- affinity gossip -------------------------------------------------
        # Each edge pushes a CacheSummary snapshot to every backhaul
        # neighbour on the policy's refresh interval.  The processes run
        # for the life of the simulation, so drive affinity scenarios
        # with run_for()/run_tasks(), never a bare env.run().
        if isinstance(self.balancer, AffinityLoadBalancer):
            for espec in spec.edges:
                if neighbours[espec.name]:
                    self.env.process(self._gossip_summaries(
                        espec.name, tuple(neighbours[espec.name])))

        # -- layer caches ----------------------------------------------------
        #: Per-edge LayerCacheManager over the edge's own ICCache (one
        #: shared byte budget), built when the policy ships layer
        #: entries (``prewarm_layers``) or serves them
        #: (``layer_reuse``); ``layer_managers[edge_name].insert/plan``
        #: is how workloads populate and consume partial-inference
        #: state, and each edge node carries its own manager so the
        #: pipeline's layer-reuse stage can plan against it — prewarmed
        #: and federated ``layer:*`` entries become servable.
        self.layer_managers: dict[str, LayerCacheManager] = {}
        if spec.policy is not None and spec.policy.uses_layer_cache:
            # Reuse thresholds scale with the recognition geometry: the
            # shallowest tap tolerates twice the drift the coarse
            # descriptor threshold accepts, the deepest tap (full-result
            # reuse) is stricter than it — sketch-keyed whole results
            # must not be easier to reuse than descriptor-matched ones.
            for name, cache, node in zip(self.edge_names, self.caches,
                                         self.edges):
                manager = LayerCacheManager(
                    self._network, cache,
                    base_threshold=2.0 * node.match_threshold,
                    device=node.recognizer.device)
                self.layer_managers[name] = manager
                node.layer_manager = manager

        # -- clients ---------------------------------------------------------
        self.clients_by_edge: list[list[CoICClient]] = []
        for espec in spec.edges:
            row = [CoICClient(self.env, self.rpc, cspec.name, cfg,
                              recognizer=self.mobile_recognizer,
                              loader=self.mobile_loader,
                              recorder=self.recorder, edge_name=espec.name,
                              **client_options(spec, cfg, self.rng,
                                               cspec.name))
                   for cspec in espec.clients]
            self.clients_by_edge.append(row)
        self.all_clients = [c for row in self.clients_by_edge for c in row]
        self.client_names = [c.name for c in self.all_clients]
        self.client_by_name = {c.name: c for c in self.all_clients}
        self.origin_clients: list[OriginClient] = []
        self.local_clients: list[LocalClient] = []
        if spec.baselines:
            self.origin_clients = [
                OriginClient(self.env, self.rpc, name, cfg,
                             loader=self.mobile_loader,
                             recorder=self.recorder, cloud_name=CLOUD)
                for name in self.client_names]
            self.local_clients = [
                LocalClient(self.env, name, cfg,
                            recognizer=self.mobile_recognizer,
                            recorder=self.recorder)
                for name in self.client_names]

        # -- mobility / handoff ---------------------------------------------
        self.handoff_log: list[HandoffEvent] = []
        self.prewarm_log: list[PrewarmEvent] = []
        self.world: "World | None" = None
        self.itineraries: dict[str, list[tuple[float, int]]] = {}
        self.client_places: dict[str, int] = {}
        if spec.mobility is not None:
            self._build_world()

        # -- warm-up ---------------------------------------------------------
        if spec.warmup is not None:
            self.warm_caches(spec.warmup)

    # -- task factories ------------------------------------------------------

    def recognition_task(self, object_class: int, viewpoint: float = 0.0,
                         user: str = "", seq: int = 0) -> RecognitionTask:
        """A recognition task over a fresh camera capture."""
        rec = self.config.recognition
        frame = CameraFrame(
            object_class=object_class, viewpoint=viewpoint,
            resolution=RESOLUTIONS[rec.resolution], quality=rec.quality,
            user=user, seq=seq, capture_id=next(self._capture_ids))
        return RecognitionTask(frame=frame)

    def model_load_task(self, model_id: int) -> ModelLoadTask:
        """A load task for a catalog model."""
        digest, file_bytes = self.catalog[model_id]
        return ModelLoadTask(model_id=model_id, digest=digest,
                             file_bytes=file_bytes)

    def panorama_task(self, content_id: int, segment: int,
                      pose_cell: int = 0) -> PanoramaTask:
        """A panorama fetch for one (content, segment, pose cell)."""
        vr = self.config.vr
        pano = Panorama(content_id=content_id, segment=segment,
                        pose_cell=pose_cell,
                        resolution=RESOLUTIONS[vr.resolution],
                        quality=vr.quality)
        return PanoramaTask(panorama=pano)

    # -- access-link management ---------------------------------------------

    def _link_rng(self, jitter_s: float, loss_rate: float,
                  name: str) -> np.random.Generator | None:
        """A link's draw stream, or None for a link that never draws (no
        jitter, no loss).  A stream depends only on ``(seed, name)``, so
        skipping one moves no other draw."""
        if jitter_s > 0 or loss_rate > 0:
            return self.rng.stream(name)
        return None

    def _add_access(self, client_name: str, edge_name: str,
                    stream: str | None = None) -> None:
        """Attach the client to the edge, unless it is already attached.

        The link pair matches the client's configured access technology:
        a symmetric 802.11ac WiFi duplex, or an asymmetric LTE EPC pair
        (uplink client->edge, downlink edge->client) with the core
        network's extra forwarding latency.  A pair is held only while
        the client is attached or still draining (see
        :meth:`_retire_access`), so a return to a past edge builds a
        fresh one; its link stream continues, being cached by name.
        """
        leaf = self.topology.leaves.get(client_name)
        if leaf is not None and edge_name in leaf.attachments:
            return
        net = self.config.network
        impaired = self.spec.impairments
        loss_rate = net.loss_rate if impaired else 0.0
        if self.client_access.get(client_name, "wifi") == "lte":
            kind, jitter_ms = "lte", net.lte_jitter_ms
            uplink, downlink = net.lte_uplink_mbps, net.lte_downlink_mbps
            # Radio hop plus EPC core, each in seconds before the sum.
            delay_s = (net.lte_radio_delay_ms / 1e3
                       + net.lte_core_delay_ms / 1e3)
        else:
            kind, jitter_ms = "wifi", net.wifi_jitter_ms
            uplink = downlink = net.wifi_mbps
            delay_s = net.wifi_delay_ms / 1e3
        jitter_s = jitter_ms / 1e3 if impaired else 0.0
        self.topology.attach(
            client_name, edge_name, uplink * 1e6, downlink * 1e6,
            propagation_s=delay_s, jitter_s=jitter_s, loss_rate=loss_rate,
            rng=self._link_rng(jitter_s, loss_rate, stream
                               or f"net.{kind}.{client_name}.{edge_name}"))

    # -- handoff -------------------------------------------------------------

    def handoff(self, client: CoICClient, new_edge: str,
                latency_s: float | None = None):
        """Simulation process: migrate ``client`` to ``new_edge``.

        The client spends ``latency_s`` re-associating: new requests
        stall at the client's attach gate (their wait counts against
        their latency), while requests already in flight keep completing
        against the old edge over its still-up link.  After the dead
        time the client attaches to the new edge; the old WiFi link is
        torn down only once the in-flight requests drain, so no request
        is ever stranded mid-response.
        """
        if new_edge not in self.edge_by_name:
            raise KeyError(f"unknown edge {new_edge!r}")
        old_edge = client.edge_name
        if old_edge == new_edge:
            return
        if latency_s is None:
            latency_s = (self.spec.mobility.handoff_latency_s
                         if self.spec.mobility is not None else 0.05)
        started = self.env.now
        client.detach()
        if latency_s > 0:
            yield latency_s
        self._add_access(client.name, new_edge)
        client.attach(new_edge, now=self.env.now)
        self.handoff_log.append(HandoffEvent(
            started_s=started, completed_s=self.env.now, client=client.name,
            src_edge=old_edge, dst_edge=new_edge))
        self.env.process(self._retire_access(client, old_edge))

    def _retire_access(self, client: CoICClient, old_edge: str):
        """Remove the old duplex once the client's in-flight work drains.

        A no-op if the client is back on ``old_edge`` by then, or if an
        earlier retire already removed the pair.
        """
        while client.inflight:
            yield client.drained()
        if client.edge_name == old_edge:
            return
        if old_edge in self.topology.leaves[client.name].attachments:
            self.topology.detach(client.name, old_edge)

    # -- background cross-traffic --------------------------------------------

    def _background_traffic(self):
        """Simulation process: diurnal cross-traffic on backhaul links.

        Every ``background.update_s`` the links in scope are re-shaped
        to the residual capacity the background load curve leaves free
        (each change counts in ``rate_changes``).  Nominal capacities are
        the spec's — the curve modulates, never compounds.
        """
        bg = self.spec.background
        targets: list[tuple["Link", float]] = []
        if bg.scope in ("backhaul", "all"):
            for pair in self.backhaul.values():
                targets.extend((link, link.bandwidth_bps) for link in pair)
        if bg.scope in ("inter_edge", "all"):
            for pair in self.inter_edge_links.values():
                targets.extend((link, link.bandwidth_bps) for link in pair)
        if not targets:
            return
        while True:
            residual = 1.0 - bg.peak_util * bg.level(self.env.now)
            for link, nominal in targets:
                link.set_bandwidth(nominal * residual)
            self.rate_changes += len(targets)
            yield bg.update_s

    # -- mobility ------------------------------------------------------------

    def _build_world(self) -> None:
        from repro.workload.mobility import World

        m = self.spec.mobility
        self.world = World(
            n_places=m.n_places, n_classes=self.config.recognition.n_classes,
            objects_per_place=m.objects_per_place,
            rng=self.rng.stream("mobility.world"),
            extent_m=m.extent_m, popularity_alpha=m.popularity_alpha)

    def nearest_edge_name(self, place_id: int) -> str:
        """The edge closest to a world place (ties go to spec order)."""
        return self._edge_of_place[place_id]

    @functools.cached_property
    def _edge_of_place(self) -> list[str]:
        """Each world place's nearest edge, scanned once."""
        edges = self.spec.edges
        table = []
        for place in self.world.places:
            best, best_d2 = None, float("inf")
            for espec in edges:
                d2 = (espec.x - place.x) ** 2 + (espec.y - place.y) ** 2
                if d2 < best_d2:
                    best, best_d2 = espec.name, d2
            table.append(best)
        return table

    @functools.cached_property
    def _home_of_edge(self) -> dict[str, int]:
        """Each edge's nearest world place (ties go to place order)."""
        table = {}
        for espec in self.spec.edges:
            best, best_d2 = 0, float("inf")
            for place in self.world.places:
                d2 = (espec.x - place.x) ** 2 + (espec.y - place.y) ** 2
                if d2 < best_d2:
                    best, best_d2 = place.place_id, d2
            table[espec.name] = best
        return table

    def _home_place(self, client: CoICClient) -> int:
        """The world place nearest the client's initial edge."""
        return self._home_of_edge[client.edge_name]

    def start_mobility(self, duration_s: float | None = None
                       ) -> dict[str, list[tuple[float, int]]]:
        """Replay a random-waypoint itinerary per client, handing off.

        Each client starts at the place nearest its configured edge,
        hops between places with exponential dwell (gravity-biased when
        the spec carries ``bias``/``bias_schedule``), and is re-attached
        to the nearest edge after every hop (a no-op when the nearest
        edge did not change).  Returns the itineraries, which are fully
        determined by the scenario seed.  A client's mobility stream is
        taken, not kept: it and its walker are freed once the itinerary
        is drawn.
        """
        from repro.workload.mobility import Gravity, RandomWaypointUser

        if self.spec.mobility is None:
            raise ValueError("scenario has no mobility spec")
        if self.itineraries:
            raise RuntimeError("mobility already started")
        m = self.spec.mobility
        duration = m.duration_s if duration_s is None else duration_s
        # One gravity timetable for the whole crowd: weights checked
        # once, draw rows built once per (segment, place).
        gravity = (None if m.bias is None and m.bias_schedule is None
                   else Gravity(m.n_places, m.bias, m.bias_schedule))
        for client in self.all_clients:
            itinerary = RandomWaypointUser(
                client.name, self.world,
                self.rng.take(f"mobility.user.{client.name}"),
                mean_dwell_s=m.mean_dwell_s,
                home_place=self._home_place(client),
                gravity=gravity).itinerary(duration)
            self.itineraries[client.name] = itinerary
            self.client_places[client.name] = itinerary[0][1]
            self.env.process(self._replay(client, itinerary))
        return self.itineraries

    def _replay(self, client: CoICClient,
                itinerary: list[tuple[float, int]]):
        for arrival, place_id in itinerary:
            if arrival > self.env.now:
                yield arrival - self.env.now
            self.client_places[client.name] = place_id
            target = self.nearest_edge_name(place_id)
            if target != client.edge_name:
                self._maybe_prewarm(client, client.edge_name, target)
                yield from self.handoff(client, target)

    # -- affinity gossip ------------------------------------------------------

    def _gossip_summaries(self, name: str, peers: tuple[str, ...]):
        """Simulation process: periodic cache-summary gossip from one edge.

        Every ``policy.summary_refresh_s`` the edge snapshots its cache
        (:meth:`ICCache.summary`) and pushes one ``cache_summary``
        message per backhaul neighbour, in spec order, paying the
        summary's ``size_bytes`` over the routed inter-edge path.  The
        receiving edge overwrites its previous snapshot of this sender,
        so a peer's view is stale by at most one interval plus the
        transfer time — the staleness the affinity balancer is designed
        to tolerate.
        """
        from repro.net.transport import RpcError

        interval = self.spec.policy.summary_refresh_s
        while True:
            yield interval
            summary = self.cache_by_name[name].summary(
                exclude_prefix=LAYER_KIND_PREFIX)
            for peer in peers:
                push = Message(size_bytes=summary.size_bytes,
                               kind="cache_summary", payload=summary,
                               src=name, dst=peer)
                try:
                    yield from self.rpc.send(push)
                except RpcError:
                    # No route / link down: this round's summary is
                    # lost; the peer keeps scoring the stale snapshot.
                    continue
                self.edge_by_name[name].counts["summaries_sent"] += 1

    # -- predictive handoff pre-warm -----------------------------------------

    def _maybe_prewarm(self, client: CoICClient, src_edge: str,
                       dst_edge: str) -> None:
        """Itinerary hook: pre-warm ``dst_edge`` if the policy asks."""
        policy = self.spec.policy
        if policy is None or (policy.prewarm_top_k <= 0
                              and policy.prewarm_layers <= 0):
            return
        self.prewarm(src_edge, dst_edge, client_name=client.name)

    def prewarm(self, src_edge: str, dst_edge: str,
                client_name: str = "") -> bool:
        """Push the source edge's hottest entries to ``dst_edge``.

        Driven by the mobility itinerary (which the driver knows ahead
        of the radio), or callable directly for scripted migrations:
        the old edge batch-pushes its ``prewarm_top_k`` hottest IC
        results — plus, when ``prewarm_layers`` is set, its hottest
        ``layer:*`` activation entries — as one ``prewarm_push`` message
        over the backhaul.  The transfer pays real routed link time for
        the full payload (result bytes and raw activation bytes alike;
        the metro graph when it connects the two sites, the cloud WAN
        otherwise, exactly like federation peer probes), so the
        client's first requests after re-attachment land on a warm
        cache — and, with layer entries aboard, partial inference can
        resume mid-network instead of recomputing from the input.

        Entries the destination already holds are skipped; each entry
        travels with its original ``cost_s`` so cost-aware eviction at
        the destination sees the true fetch cost.  Returns True when a
        push was scheduled.
        """
        if self.broker is not None and not self.broker.admissible(src_edge,
                                                                  dst_edge):
            # Cross-operator pre-warm needs the destination operator's
            # consent (and an affordable quote): the departing user's
            # operator is buying cache placement on another domain's
            # box.  Denied or over-budget: no push, handoff unaffected.
            return False
        policy = self.spec.policy
        top_k = policy.prewarm_top_k if policy is not None else 0
        layer_k = policy.prewarm_layers if policy is not None else 0
        src_cache = self.cache_by_name[src_edge]
        dst_cache = self.cache_by_name[dst_edge]
        hottest = src_cache.hottest(top_k, exclude_prefix=LAYER_KIND_PREFIX)
        hottest += src_cache.hottest(layer_k, kind_prefix=LAYER_KIND_PREFIX)
        items = []
        n_layers = 0
        for entry in dst_cache.missing(src_cache, hottest):
            items.append((src_cache.descriptor(entry), entry.result,
                          entry.size_bytes, entry.cost_s))
            if entry.kind.startswith(LAYER_KIND_PREFIX):
                n_layers += 1
        if not items:
            return False
        self.env.process(self._push_prewarm(client_name, src_edge,
                                            dst_edge, items, n_layers))
        return True

    def _push_prewarm(self, client_name: str, src_edge: str,
                      dst_edge: str, items: list[tuple], n_layers: int = 0):
        """Simulation process: ship one pre-warm batch edge-to-edge."""
        from repro.net.transport import RpcError

        size = 256 + sum(item[2] for item in items)
        push = Message(size_bytes=size, kind="prewarm_push", payload=items,
                       src=src_edge, dst=dst_edge)
        try:
            yield from self.rpc.send(push)
        except RpcError:
            # No backhaul route (or link down): the push is dropped, the
            # handoff itself is unaffected.
            return
        if self.broker is not None:
            from repro.core.market import LEDGER_PREWARM

            # The departing user's operator pays for delivered placement
            # (dropped pushes bill nothing).
            self.broker.settle(LEDGER_PREWARM, src_edge, dst_edge,
                               now=self.env.now,
                               detail={"client": client_name,
                                       "entries": len(items)})
        self.prewarm_log.append(PrewarmEvent(
            time_s=self.env.now, client=client_name, src_edge=src_edge,
            dst_edge=dst_edge, pushed=len(items) - n_layers,
            layer_entries=n_layers, size_bytes=size))

    def counts(self) -> collections.Counter:
        """Every edge's :attr:`EdgeNode.counts`, summed."""
        total: collections.Counter = collections.Counter()
        for edge in self.edges:
            total.update(edge.counts)
        return total

    def visible_classes(self, client: CoICClient) -> tuple:
        """Object classes at the client's current place (mobility only)."""
        if self.world is None:
            raise ValueError("scenario has no mobility spec")
        return self.world.place(self.client_places[client.name]).object_classes

    # -- cache warm-up ---------------------------------------------------------

    def warm_caches(self, warmup: WarmupSpec) -> int:
        """Pre-populate edge caches through ``ICCache.insert_batch``.

        Recognition classes are inserted as their noise-free prototype
        descriptors (what a zero-viewpoint capture embeds to); models as
        their parsed, engine-ready form, each through ``ICCache.insert``.
        Returns the number of entries inserted.
        """
        targets = (warmup.edges if warmup.edges is not None
                   else self.edge_names)
        items = list(prototype_items(self.space, warmup.classes))
        for model_id in warmup.models:
            task = self.model_load_task(model_id)
            loaded = ModelLoadResult(digest=task.digest,
                                     payload_bytes=task.loaded_bytes,
                                     parsed=True)
            descriptor = HashDescriptor(kind=KIND_MODEL_LOAD,
                                        digest=task.digest)
            items.append((descriptor, loaded, loaded.payload_bytes))
        inserted = 0
        for name in targets:
            entries = self.cache_by_name[name].insert_batch(
                items, now=self.env.now)
            inserted += sum(1 for e in entries if e is not None)
        return inserted

    # -- running -------------------------------------------------------------

    def run_for(self, duration_s: float) -> None:
        """Advance the simulation clock by ``duration_s`` seconds."""
        self.env.run(until=self.env.now + duration_s)

    def run_tasks(self, client: typing.Any,
                  tasks: typing.Sequence, spacing_s: float = 0.0) -> list:
        """Run ``tasks`` sequentially on ``client``; return their records.

        ``spacing_s`` inserts think-time between consecutive requests.
        Drains the simulation before returning.
        """
        records: list = []

        def driver():
            for task in tasks:
                record = yield self.env.process(client.perform(task))
                records.append(record)
                if spacing_s > 0:
                    yield spacing_s

        proc = self.env.process(driver())
        self.env.run(until=proc)
        return records

    def run_concurrent(self, plan: typing.Sequence[tuple]) -> None:
        """Run a multi-client plan of ``(delay_s, client, task)`` triples.

        Each triple starts an independent request ``delay_s`` after the
        current simulation time.  Returns once everything completes.
        """

        def launcher(delay: float, client, task):
            yield delay
            yield self.env.process(client.perform(task))

        procs = [self.env.process(launcher(d, c, t)) for d, c, t in plan]

        def barrier():
            for proc in procs:
                yield proc

        self.env.run(until=self.env.process(barrier()))

    def __repr__(self) -> str:
        return (f"ClusterDeployment({len(self.edges)} edges, "
                f"{len(self.all_clients)} clients, "
                f"federate={self.spec.federate}, "
                f"mobility={self.spec.mobility is not None})")
