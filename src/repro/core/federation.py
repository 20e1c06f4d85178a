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
3. a peer that holds a fresh entry responds with the result bytes
   (``yield from rpc.respond(...)``, inside the process that handled it);
4. the asking edge inserts the result into its own cache and serves the
   client; if no peer helps, the request falls through to the cloud
   exactly as in the single-edge design.

Peer queries carry the descriptor, never the user's input — the same
privacy boundary the client/edge hop has.

There is one edge class.  Every :class:`~repro.core.edge.EdgeNode`
answers a ``peer_lookup`` and carries the federation state (``peers``,
``peer_timeout_s``, ``broker``, the ``peer_hits`` / ``peer_misses``
counts and ``probe_log``, one row per probe sent);
an edge built with no peers simply never asks.  This module is the
asking side — probe order, the probe loop, settlement of a hit — and
:class:`~repro.core.pipeline.ResolveStage` decides when to ask: after a
local miss, before the cloud.

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
handoff pre-warm pushes and affinity cache-summary gossip — is owned by
:mod:`repro.core.cluster`, whose module docstring specifies those
message formats and their cost accounting.
"""

from __future__ import annotations

import typing

from repro.core.balancer import hit_scores
from repro.core.descriptors import Descriptor
from repro.core.metrics import LEDGER_FEDERATION
from repro.net.message import Message
from repro.net.transport import RpcError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.edge import EdgeNode

def probe_order(edge: "EdgeNode", descriptor: Descriptor) -> list[str]:
    """``edge``'s admissible peers in probe order: likeliest holder first.

    With a marketplace broker, consent-denied and over-budget providers
    are excluded *before* any probe message exists: a denied peer is
    never even asked (asserted via ``EdgeNode.probe_log``).  Without one
    (no operators declared) every configured peer is admissible.

    When affinity gossip is running (``EdgePolicySpec.offload=
    "affinity"``), each peer's last :class:`~repro.core.cache
    .CacheSummary` sits in ``peer_summaries``; a vector probe is
    scored against every snapshot's signature sketch and peers are
    sorted by descending expected-hit probability.  The sort is
    stable, so peers without summaries — and all peers on hash
    probes or when no gossip has arrived — keep the configured
    spec order (nearest first).
    """
    peers = edge.peers
    if edge.broker is not None:
        peers = [peer for peer in peers
                 if edge.broker.admissible(edge.host.name, peer)]
    if not descriptor.is_vector or not edge.peer_summaries:
        return peers
    scores = hit_scores(edge.peer_summaries, descriptor.kind,
                        descriptor.vector)
    return sorted(peers, key=lambda peer: -scores.get(peer, 0.0))


def query_peers(edge: "EdgeNode", descriptor: Descriptor):
    """Ask ``edge``'s peers, likeliest holder first; the first result.

    Returns ``(result, peer)`` for a hit — the serving peer is who
    the marketplace bills — or ``(None, None)`` when every probe
    misses or errors.
    """
    for peer in probe_order(edge, descriptor):
        probe = Message(size_bytes=descriptor.size_bytes,
                        kind="peer_lookup", payload=descriptor,
                        src=edge.host.name, dst=peer)
        edge.probe_log.append((edge.env.now, peer))
        try:
            response = yield edge.rpc.call(
                probe, timeout=edge.peer_timeout_s)
        except RpcError:
            continue  # peer slow or unreachable: fall through
        if response.payload is not None:
            edge.counts["peer_hits"] += 1
            return response.payload, peer
    edge.counts["peer_misses"] += 1
    return None, None


def peer_hit_headers(edge: "EdgeNode", peer: str) -> dict:
    """Extra response headers for a hit ``peer`` served, billing included."""
    headers: dict = {"federated": True}
    if edge.broker is not None:
        charge = edge.broker.settle(LEDGER_FEDERATION, edge.host.name,
                                    peer, now=edge.env.now,
                                    detail={"kind": "peer_lookup"})
        if charge is not None:
            headers["billed_to"], headers["price"] = charge
    return headers
