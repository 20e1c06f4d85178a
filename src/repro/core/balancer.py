"""Neighbour ranking: the one place that answers "which peer should?".

A cooperative edge asks that question twice — *whom do I offload this
request to?* (the overload layer's balancers) and *whom do I probe
first for this content?* (:func:`repro.core.federation.probe_order`) —
and both are answered here.

Every offload pick is an auction.  Each admissible neighbour becomes a
:class:`~repro.core.market.Bid` carrying the balancer's performance
rank, and :meth:`FederationBroker.auction
<repro.core.market.FederationBroker.auction>` takes the ``(rank, price,
order)`` minimum.  Without a broker every neighbour is admissible and
every bid is free, so the winner is simply the best rank in
registration order; a :class:`~repro.core.market.FederationBroker` only
*filters* (consent, budget) and *prices* — it never re-ranks, which is
what makes an all-free open market decision-identical to no market.

Both questions score gossiped :class:`~repro.core.cache.CacheSummary`
snapshots with the same :func:`hit_scores`, so the peer probed first
for a vector is the peer an affinity offload of that vector targets at
equal loads.
"""

from __future__ import annotations

import typing

from repro.core.market import Bid, FederationBroker
from repro.core.sketch import AffinitySketch

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.edge import EdgeNode

#: Signature-only sketch.  AffinitySketch hyperplanes are deterministic
#: from the module seed, so every edge (and every gossiped summary)
#: agrees on bucket keys; ``signature()`` is read-only, so one instance
#: serves every node.
_SKETCH = AffinitySketch()


def hit_scores(summaries: typing.Mapping[str, typing.Any], kind: str,
               key: typing.Any) -> dict[str, float]:
    """Expected-hit probability of vector ``key`` per summarised peer."""
    signature = _SKETCH.signature(key)
    return {peer: summary.expected_hit(kind, signature)
            for peer, summary in summaries.items()}


class PeerLoadBalancer:
    """Least-loaded neighbour selection over the inter-edge graph.

    Holds a registry of edge nodes and their backhaul neighbours (the
    scenario's ``inter_edge`` adjacency) and answers "who should take
    this request instead of me?".  Load reads model the out-of-band load
    reports real balancers gossip; in-flight offloads are counted
    against the target immediately, so a same-tick burst does not herd
    onto one momentarily idle peer.

    Args:
        margin: A peer is only chosen if its load is at least this much
            below the asking edge's (hysteresis against ping-ponging
            work between two equally busy sites).
        broker: Optional :class:`~repro.core.market.FederationBroker`:
            inadmissible peers (consent denied, or quoted over the
            consumer's budget) never bid, the others bid at the
            provider operator's quoted price, and a broker timeout is a
            no-bid round (pick returns None).
    """

    def __init__(self, margin: int = 1,
                 broker: FederationBroker | None = None):
        if margin < 0:
            raise ValueError("margin must be >= 0")
        self.margin = margin
        self.broker = broker
        self._edges: dict[str, "EdgeNode"] = {}
        self._neighbours: dict[str, tuple[str, ...]] = {}
        self._pending: dict[str, int] = {}

    def register(self, name: str, edge: "EdgeNode",
                 neighbours: typing.Sequence[str]) -> None:
        self._edges[name] = edge
        self._neighbours[name] = tuple(n for n in neighbours if n != name)

    def load_of(self, name: str) -> int:
        """Busy + queued compute slots plus offloads already in flight."""
        return self._edges[name].load + self._pending.get(name, 0)

    def pick(self, src: str, key: "typing.Any | None" = None) -> str | None:
        """The neighbour of ``src`` worth offloading to, or None.

        One auction round per call.  ``key`` is the request's affinity
        key; load is the only signal this balancer reads, so it is
        ignored here (see :class:`AffinityLoadBalancer`).
        """
        if self.broker is not None and not self.broker.begin_round():
            return None
        return self._choose(src, key)

    def _choose(self, src: str, key: "typing.Any | None") -> str | None:
        """The least-loaded neighbour at least ``margin`` below ``src``.

        Ties break in registration (spec) order.
        """
        winner = self._select(src, lambda name, load: (load,))
        if winner is None or winner.rank[0] + self.margin > self._own(src):
            return None
        return winner.provider

    def _own(self, src: str) -> int:
        return self.load_of(src) if src in self._edges else 0

    def _select(self, src: str,
                rank: typing.Callable[[str, int], tuple],
                eligible: typing.Callable[[int], bool] | None = None
                ) -> Bid | None:
        """Auction over ``src``'s admissible neighbours; the winning bid.

        ``rank(name, load)`` is the bid's performance rank (smaller is
        better); ``eligible(load)`` keeps a neighbour out of the round.
        """
        broker = self.broker
        consumer = broker.domain(src) if broker is not None else ""
        bids = []
        for order, name in enumerate(self._neighbours.get(src, ())):
            if broker is None:
                operator, price = "", 0.0
            elif broker.admissible(src, name):
                operator = broker.domain(name)
                price = broker.quote(consumer, operator)
            else:
                continue
            load = self.load_of(name)
            if eligible is None or eligible(load):
                bids.append(Bid(provider=name, operator=operator,
                                rank=rank(name, load), price=price,
                                order=order))
        budget, seed = ((broker.budget_of(consumer), broker.seed)
                        if broker is not None else (None, 0))
        return FederationBroker.auction(bids, budget, seed=seed)

    def note_dispatch(self, name: str) -> None:
        self._pending[name] = self._pending.get(name, 0) + 1

    def note_done(self, name: str) -> None:
        self._pending[name] = max(0, self._pending.get(name, 0) - 1)


class AffinityLoadBalancer(PeerLoadBalancer):
    """Cache-affinity neighbour selection: who is likely to *hit*?

    The least-loaded balancer moves raw load; this one moves load toward
    reusable state.  Each edge gossips a compact
    :class:`~repro.core.cache.CacheSummary` of its contents to its
    backhaul neighbours (see ``ClusterDeployment``'s gossip driver); the
    asking edge's admission stage hands this balancer the request's
    affinity key — the client-supplied input sketch, or the descriptor
    vector when the client computed one — and each eligible neighbour is
    scored as

        ``expected_hit(summary, key)  x  1 / (1 + load)``

    i.e. hit probability weighted by load headroom.  The highest score
    wins, the less-loaded peer on equal scores; the all-zero case (no
    key, no summaries yet, or nobody plausibly holds the content) falls
    back to the least-loaded choice, so with gossip silent this balancer
    is decision-identical to :class:`PeerLoadBalancer`.  The margin
    hysteresis is unchanged: only neighbours at least ``margin`` below
    the asking edge's load are eligible at all — affinity re-orders
    eligible peers, it never overloads a busy one.

    Args:
        margin, broker: As :class:`PeerLoadBalancer`.
        kind: Descriptor kind whose summaries are scored.
    """

    def __init__(self, margin: int = 1, kind: str = "recognition",
                 broker: FederationBroker | None = None):
        super().__init__(margin=margin, broker=broker)
        self.kind = kind

    def _choose(self, src: str, key: "typing.Any | None") -> str | None:
        """The eligible neighbour with the best hit x headroom score.

        Each pick is counted on the asking edge, as ``affinity_picks``
        (a summary predicted a hit) or ``fallback_picks`` (least-loaded).
        """
        if key is not None:
            own = self._own(src)
            asking = self._edges.get(src)
            scores = hit_scores(getattr(asking, "peer_summaries", {}),
                                self.kind, key)
            winner = self._select(
                src,
                lambda name, load: (
                    -(scores.get(name, 0.0) * (1.0 / (1.0 + load))), load),
                eligible=lambda load: load + self.margin <= own)
            if winner is not None and winner.rank[0] < 0.0:
                self._edges[src].counts["affinity_picks"] += 1
                return winner.provider
        fallback = super()._choose(src, key)
        if fallback is not None:
            self._edges[src].counts["fallback_picks"] += 1
        return fallback
