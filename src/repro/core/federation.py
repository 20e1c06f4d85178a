"""Multi-edge federation: cooperation *between* edges.

The paper's single testbed edge already shares results between its own
users; the framework's name — a *cooperative* framework — points at the
natural next hop: edges covering adjacent areas (neighbouring cells,
cafes on one street) consult each other's IC caches before paying the
cloud backhaul.  A federated miss costs one metro-link round trip
(milliseconds, high bandwidth) instead of a WAN fetch; a federated hit
is also *inserted locally*, so popular content diffuses through the
federation once instead of per-edge.

Protocol (all on the existing RPC substrate):

1. local lookup misses;
2. the edge sends ``peer_lookup`` (descriptor only) to each peer in
   order, stopping at the first positive answer;
3. a peer that holds a fresh entry responds with the result bytes;
4. the asking edge inserts the result into its own cache and serves the
   client; if no peer helps, the request falls through to the cloud
   exactly as in the single-edge design.

Peer queries carry the descriptor, never the user's input — the same
privacy boundary the client/edge hop has.

Message formats and backhaul cost
=================================
* ``peer_lookup`` — request: the descriptor alone, so the probe costs
  ``descriptor.size_bytes`` on the routed inter-edge path (a few
  hundred bytes for a 128-d vector); the asked edge charges and runs
  one cache lookup per probe, like a local request.
* ``peer_result`` — response: 96 B for a miss; the *full result bytes*
  for a hit (recognition annotations, loaded model geometry, panorama
  frames — megabytes for the latter two, which is why
  ``peer_timeout_s`` budgets for multi-megabyte metro transfers).  A
  hit is inserted locally with ``cost_s`` = the measured probe round
  trip, so cost-aware eviction values federated copies at what they
  actually cost to obtain, not at the cloud fetch they avoided.

Every byte rides the scenario's inter-edge links (or the cloud WAN
when no metro path exists) with real serialization + propagation time;
nothing about federation is free.  Bulk state movement between edges —
handoff pre-warm pushes, affinity cache-summary gossip, and the
out-of-band ``sync_federation`` bootstrap — is owned by
:mod:`repro.core.cluster`, whose module docstring specifies those
message formats and their cost accounting.
"""

from __future__ import annotations

import typing

from repro.core.cache import ICCache
from repro.core.cluster import ClusterDeployment
from repro.core.descriptors import Descriptor
from repro.core.edge import EdgeNode
from repro.core.sketch import AffinitySketch
from repro.core.metrics import OUTCOME_HIT
from repro.core.scenario import ScenarioSpec
from repro.net.message import Message
from repro.net.transport import RpcError
from repro.sim.kernel import Environment

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import CoICConfig
    from repro.core.pipeline import Pipeline
    from repro.net.topology import Host
    from repro.net.transport import Rpc
    from repro.render.loader import ModelLoader
    from repro.vision.recognition import Recognizer

#: Shared signature sketch for scoring peer probes against gossiped
#: cache summaries.  AffinitySketch hyperplanes are deterministic from
#: the module seed, so every edge (and every gossiped summary) agrees
#: on bucket keys; one instance serves all nodes since signature() is
#: read-only.
_QUERY_SKETCH = AffinitySketch()


class FederatedEdgeNode(EdgeNode):
    """An edge that consults peer edges' caches before the cloud.

    Args:
        peers: Host names of cooperating edges, tried in order (put the
            nearest first).
        peer_timeout_s: Per-peer deadline for a lookup round trip; a slow
            peer must not cost more than it saves.  The default budgets
            for multi-megabyte loaded-model transfers over a metro link,
            still far below a cloud-backhaul fetch.
        Remaining args as :class:`~repro.core.edge.EdgeNode`.
    """

    def __init__(self, env: Environment, rpc: "Rpc", host: "Host",
                 cache: ICCache, config: "CoICConfig",
                 recognizer: "Recognizer", loader: "ModelLoader",
                 cloud_name: str = "cloud", workers: int = 4,
                 peers: typing.Sequence[str] = (),
                 peer_timeout_s: float = 1.0,
                 pipeline: "Pipeline | None" = None):
        super().__init__(env, rpc, host, cache, config, recognizer,
                         loader, cloud_name=cloud_name, workers=workers,
                         pipeline=pipeline)
        if peer_timeout_s <= 0:
            raise ValueError("peer_timeout_s must be > 0")
        self.peers = [p for p in peers if p != host.name]
        self.peer_timeout_s = peer_timeout_s
        self.peer_hits = 0
        self.peer_misses = 0
        #: Total peer_lookup probes sent (backhaul messages); with
        #: affinity-ordered probing this drops relative to spec-order
        #: probing because likely holders are asked first.
        self.peer_probes = 0
        #: Marketplace broker (set by the cluster builder when the
        #: scenario declares operators).  Filters consent-denied and
        #: over-budget peers out of every probe round and settles
        #: cross-operator hits on the ledger.
        self.broker = None
        #: Federation message log: one ``(time_s, peer)`` row per
        #: peer_lookup actually sent — what the consent fault-path
        #: tests assert against ("a denied peer is never probed").
        self.probe_log: list[tuple[float, str]] = []

    # -- serve loop: add the peer protocol -------------------------------------

    def _handle(self, msg: Message):
        if msg.kind == "peer_lookup":
            yield from self._handle_peer_lookup(msg)
            self.requests_served += 1
            return
        yield from super()._handle(msg)

    def _handle_peer_lookup(self, msg: Message):
        """Answer another edge's cache probe (descriptor only)."""
        descriptor: Descriptor = msg.payload
        entry = yield from self._lookup(descriptor, self.match_threshold)
        headers = None
        extra_bytes = 0
        if self.summary_piggyback:
            # Delta gossip on the probe traffic itself: the asking edge
            # refreshes its affinity view of us with every peer_result,
            # paying the summary's wire bytes on the same reply.
            from repro.core.layer_cache import LAYER_KIND_PREFIX

            summary = self.cache.summary(exclude_prefix=LAYER_KIND_PREFIX)
            headers = {"peer_summary": summary}
            extra_bytes = summary.size_bytes
        result = None if entry is None else entry.result
        size = 96 if result is None else result.size_bytes
        try:
            yield self.rpc.respond(msg, size_bytes=size + extra_bytes,
                                   payload=result, kind="peer_result",
                                   headers=headers)
        except RpcError:
            # The asking edge is cut off: its probe times out over there.
            self.responses_dropped += 1

    # -- the federated miss path -------------------------------------------------

    def _probe_order(self, descriptor: Descriptor) -> list[str]:
        """Peers in probe order: likeliest holder first.

        When affinity gossip is running (``EdgePolicySpec.offload=
        "affinity"``), each peer's last :class:`~repro.core.cache
        .CacheSummary` sits in ``peer_summaries``; a vector probe is
        scored against every snapshot's signature sketch and peers are
        sorted by descending expected-hit probability.  The sort is
        stable, so peers without summaries — and all peers on hash
        probes or when no gossip has arrived — keep the configured
        spec order (nearest first), which is exactly the historical
        behaviour.
        """
        peers = self._consented_peers()
        if not descriptor.is_vector or not self.peer_summaries:
            return peers
        signature = _QUERY_SKETCH.signature(descriptor.vector)
        scores = {
            peer: summary.expected_hit(descriptor.kind, signature)
            for peer, summary in self.peer_summaries.items()}
        return sorted(peers,
                      key=lambda peer: -scores.get(peer, 0.0))

    def _consented_peers(self) -> list[str]:
        """Peers the marketplace allows us to probe at all.

        Without a broker (no operators declared) this is every
        configured peer — the historical single-domain behaviour.
        With one, consent-denied and over-budget providers are
        excluded *before* any probe message exists: a denied peer is
        never even asked (asserted via :attr:`probe_log`).
        """
        if self.broker is None:
            return self.peers
        return [peer for peer in self.peers
                if self.broker.admissible(self.host.name, peer)]

    def _query_peers(self, descriptor: Descriptor):
        """Ask peers, likeliest holder first; return the first result.

        Returns ``(result, peer)`` for a hit — the serving peer is who
        the marketplace bills — or ``(None, None)`` when every probe
        misses or errors.
        """
        for peer in self._probe_order(descriptor):
            probe = Message(size_bytes=descriptor.size_bytes,
                            kind="peer_lookup", payload=descriptor,
                            src=self.host.name, dst=peer)
            self.peer_probes += 1
            self.probe_log.append((self.env.now, peer))
            try:
                response = yield self.rpc.call(
                    probe, timeout=self.peer_timeout_s)
            except RpcError:
                continue  # peer slow or unreachable: fall through
            summary = response.headers.get("peer_summary")
            if summary is not None:
                # Piggybacked gossip: even a peer miss refreshes our
                # view of that peer's cache for the next probe ordering.
                self.peer_summaries[peer] = summary
                self.summaries_received += 1
            if response.payload is not None:
                self.peer_hits += 1
                return response.payload, peer
        self.peer_misses += 1
        return None, None

    def _federated_headers(self, peer: str) -> dict:
        """Response headers for a peer-served hit, billing included."""
        headers = {"outcome": OUTCOME_HIT, "federated": True}
        if self.broker is not None:
            from repro.core.market import LEDGER_FEDERATION

            charge = self.broker.settle(LEDGER_FEDERATION, self.host.name,
                                        peer, now=self.env.now,
                                        detail={"kind": "peer_lookup"})
            if charge is not None:
                headers["billed_to"], headers["price"] = charge
        return headers

    def _recognition_miss(self, msg, task, descriptor):
        if descriptor is not None:
            started = self.env.now
            result, peer = yield from self._query_peers(descriptor)
            if result is not None:
                yield self.config.cache.insert_ms / 1e3
                self.cache.insert(descriptor, result, result.size_bytes,
                                  now=self.env.now,
                                  cost_s=self.env.now - started)
                yield self._respond(
                    msg, size_bytes=result.size_bytes, payload=result,
                    kind="ic_result",
                    headers=self._federated_headers(peer))
                return
        yield from super()._recognition_miss(msg, task, descriptor)

    def _hash_task_miss(self, msg, task, descriptor):
        started = self.env.now
        result, peer = yield from self._query_peers(descriptor)
        if result is not None:
            yield self.config.cache.insert_ms / 1e3
            self.cache.insert(descriptor, result,
                              getattr(result, "payload_bytes",
                                      result.size_bytes),
                              now=self.env.now,
                              cost_s=self.env.now - started)
            yield self._respond(
                msg, size_bytes=result.size_bytes, payload=result,
                kind="ic_result",
                headers=self._federated_headers(peer))
            return
        yield from super()._hash_task_miss(msg, task, descriptor)


class FederatedDeployment(ClusterDeployment):
    """A multi-edge CoIC system: K edges, each with its own clients,
    one shared cloud, metro links between edges.

    A thin facade over :class:`~repro.core.cluster.ClusterDeployment`:
    it builds ``ScenarioSpec.federated(...)`` (full metro mesh, legacy
    stream names) and keeps the historical nested ``clients`` shape and
    seed-identical metrics.

    Args:
        config: Per-edge CoIC configuration (network section describes
            each edge's WiFi and backhaul).
        n_edges: Number of cooperating edges.
        clients_per_edge: Mobile hosts attached to each edge.
        metro_mbps / metro_delay_ms: The inter-edge links.
        federate: Build federated edges (True) or isolated ones (False,
            the baseline for the A9 ablation).
    """

    def __init__(self, config: "CoICConfig | None" = None, n_edges: int = 2,
                 clients_per_edge: int = 1, metro_mbps: float = 1000.0,
                 metro_delay_ms: float = 2.0, federate: bool = True):
        if n_edges < 1:
            raise ValueError("n_edges must be >= 1")
        if clients_per_edge < 1:
            raise ValueError("clients_per_edge must be >= 1")
        super().__init__(
            ScenarioSpec.federated(
                n_edges=n_edges, clients_per_edge=clients_per_edge,
                metro_mbps=metro_mbps, metro_delay_ms=metro_delay_ms,
                federate=federate),
            config=config)
        #: clients[k][i]: the i-th client attached to edge k.
        self.clients = self.clients_by_edge
