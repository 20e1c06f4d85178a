"""Property tests for the federation marketplace (PR 9).

Pins the market layer's contracts under arbitrary inputs: the ledger
conserves credits (double entry means balances always sum to zero),
the auction never awards a bid above the consumer's budget, the
auction is a pure order-insensitive function of its inputs, and
degenerate markets — one operator, or an all-zero-price open market —
reduce the balancers' decisions bit-identically to the broker-less
picks.  The selection rule itself is stated once more without
``core/balancer.py`` — every pick, either balancer, with or without a
broker, equals a brute-force ``min()`` written here — and the probe
order is checked to rank peers by the scores the affinity pick uses.
Runs under the derandomized ``tier1`` profile.
"""

import collections

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.market import Bid, FederationBroker
from repro.core.metrics import LEDGER_OFFLOAD, MetricsRecorder
from repro.core.balancer import AffinityLoadBalancer, PeerLoadBalancer
from repro.core.scenario import EdgeSpec, OperatorSpec, ScenarioSpec

EDGES = ("a", "b", "c", "d")
OPS = ("op0", "op1", "op2")

price = st.floats(min_value=0.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
budget = st.one_of(st.none(), price)


def _broker(operators, by_edge, recorder=None):
    spec = ScenarioSpec(edges=tuple(EdgeSpec(name=n) for n in by_edge))
    spec = spec.with_operators(operators, dict(by_edge))
    return FederationBroker(spec, recorder or MetricsRecorder())


# -- credit conservation ------------------------------------------------------


@given(prices=st.lists(price, min_size=len(OPS), max_size=len(OPS)),
       assignment=st.lists(st.integers(min_value=-1,
                                       max_value=len(OPS) - 1),
                           min_size=len(EDGES), max_size=len(EDGES)),
       pairs=st.lists(st.tuples(
           st.integers(min_value=0, max_value=len(EDGES) - 1),
           st.integers(min_value=0, max_value=len(EDGES) - 1)),
           min_size=0, max_size=40))
@settings(max_examples=60)
def test_credit_conservation(prices, assignment, pairs):
    """Any settle sequence leaves operator balances summing to zero,
    and the summary's total earned equals its total spent."""
    operators = tuple(OperatorSpec(name=op, price=p)
                      for op, p in zip(OPS, prices))
    by_edge = {edge: (OPS[k] if k >= 0 else "")
               for edge, k in zip(EDGES, assignment)}
    recorder = MetricsRecorder()
    broker = _broker(operators, by_edge, recorder)
    posted = 0
    for i, j in pairs:
        charge = broker.settle(LEDGER_OFFLOAD, EDGES[i], EDGES[j],
                               now=float(posted))
        if charge is not None:
            posted += 1
            consumer, paid = charge
            assert paid == broker.price_between(EDGES[i], EDGES[j])
            assert consumer == by_edge[EDGES[i]]
    assert len(recorder.ledger) == posted
    assert broker.settled == posted
    balances = recorder.operator_balances()
    assert abs(sum(balances.values())) < 1e-9
    summary = recorder.settlement_summary()
    total_earned = sum(s.earned for s in summary.values())
    total_spent = sum(s.spent for s in summary.values())
    assert total_earned == total_spent
    assert abs(sum(s.net for s in summary.values())) < 1e-9


# -- the auction --------------------------------------------------------------


bids = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9),   # rank load
              price),
    min_size=0, max_size=8).map(
        lambda rows: [Bid(provider=f"p{i}", operator=f"op{i}",
                          rank=(load,), price=p, order=i)
                      for i, (load, p) in enumerate(rows)])


@given(bids=bids, budget=budget)
@settings(max_examples=80)
def test_winner_never_exceeds_budget(bids, budget):
    winner = FederationBroker.auction(bids, budget)
    if winner is None:
        # None only when every bid was unaffordable (or there were none).
        assert all(budget is not None and b.price > budget for b in bids)
    else:
        assert budget is None or winner.price <= budget
        # And the winner is undominated: no affordable bid beats it on
        # the (rank, price, order) total order.
        for b in bids:
            if budget is None or b.price <= budget:
                assert (winner.rank, winner.price, winner.order) <= \
                    (b.rank, b.price, b.order)


@given(bids=bids, budget=budget,
       seeds=st.tuples(st.integers(min_value=0, max_value=2**31),
                       st.integers(min_value=0, max_value=2**31)),
       shuffle_seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80)
def test_auction_pure_and_order_insensitive(bids, budget, seeds,
                                            shuffle_seed):
    """Same (seed, bids, budget) -> same winner; the seed is inert and
    the bid list's order never matters (``order`` is a field, not a
    position)."""
    first = FederationBroker.auction(bids, budget, seed=seeds[0])
    again = FederationBroker.auction(bids, budget, seed=seeds[0])
    other_seed = FederationBroker.auction(bids, budget, seed=seeds[1])
    shuffled = list(bids)
    np.random.Generator(np.random.PCG64(shuffle_seed)).shuffle(shuffled)
    reordered = FederationBroker.auction(shuffled, budget, seed=seeds[0])
    assert first == again == other_seed == reordered


# -- degenerate markets reduce to the broker-less balancers -------------------


class _FakeEdge:
    def __init__(self, load, summaries=None):
        self.load = load
        self.peer_summaries = summaries or {}
        self.counts = collections.Counter()


def _free_market():
    """All-zero-price, all-consenting three-operator market."""
    return _broker(tuple(OperatorSpec(name=op) for op in OPS),
                   {"a": OPS[0], "b": OPS[1], "c": OPS[2]})


def _single_operator(op_price, op_budget):
    """Everyone in one domain: prices and budgets can never apply."""
    return _broker((OperatorSpec(name="solo", price=op_price,
                                 budget=op_budget),),
                   {"a": "solo", "b": "solo", "c": "solo"})


loads = st.tuples(st.integers(min_value=0, max_value=9),
                  st.integers(min_value=0, max_value=9),
                  st.integers(min_value=0, max_value=9))


@given(loads=loads, margin=st.integers(min_value=0, max_value=3),
       op_price=price, op_budget=budget)
@settings(max_examples=60)
def test_degenerate_markets_match_least_loaded(loads, margin, op_price,
                                               op_budget):
    def register(balancer):
        balancer.register("a", _FakeEdge(loads[0]), ["b", "c"])
        balancer.register("b", _FakeEdge(loads[1]), ["a"])
        balancer.register("c", _FakeEdge(loads[2]), ["a"])

    plain = PeerLoadBalancer(margin=margin)
    register(plain)
    expected = plain.pick("a")
    for broker in (_free_market(),
                   _single_operator(op_price, op_budget)):
        market = PeerLoadBalancer(margin=margin, broker=broker)
        register(market)
        assert market.pick("a") == expected


@given(loads=loads, margin=st.integers(min_value=0, max_value=3),
       holders=st.sets(st.sampled_from(("b", "c"))),
       content_seed=st.integers(min_value=0, max_value=50),
       with_key=st.booleans())
@settings(max_examples=60)
def test_degenerate_markets_match_affinity(loads, margin, holders,
                                           content_seed, with_key):
    """With arbitrary gossip state: the market-mode affinity pick in a
    free or single-operator market equals the broker-less pick."""
    from repro.core.cache import CacheSummary
    from repro.core.sketch import AffinitySketch

    rng = np.random.Generator(np.random.PCG64(content_seed))
    content = rng.normal(size=128)
    content /= np.linalg.norm(content)

    def summary_holding(v):
        sketch = AffinitySketch()
        sketch.add(v)
        return CacheSummary(kinds={"recognition": 1},
                            sketches={"recognition": sketch.summary()})

    summaries = {name: summary_holding(content) for name in holders}
    key = content if with_key else None

    def register(balancer):
        balancer.register("a", _FakeEdge(loads[0], dict(summaries)),
                          ["b", "c"])
        balancer.register("b", _FakeEdge(loads[1]), ["a"])
        balancer.register("c", _FakeEdge(loads[2]), ["a"])

    plain = AffinityLoadBalancer(margin=margin)
    register(plain)
    expected = plain.pick("a", key=key)
    for broker in (_free_market(), _single_operator(5.0, None)):
        market = AffinityLoadBalancer(margin=margin, broker=broker)
        register(market)
        assert market.pick("a", key=key) == expected


# -- the selection rule, stated without balancer.py ----------------------------

PEERS = ("b", "c", "d")
# Repeats weight the draw towards priced, consenting cross-domain peers
# (where the price tie-break and the budget can act).
CONSENT = ("ok", "ok", "ok", "provider_denies", "consumer_denies",
           "not_allowed")

# Copies of the requested content / of unrelated content behind a peer's
# gossiped summary; (0, 0) = no summary has arrived.
holds = st.sampled_from(((0, 0), (0, 0), (0, 2), (1, 0), (1, 1), (1, 3),
                         (3, 1)))

peer_state = st.fixed_dictionaries({
    "load": st.sampled_from((0, 1, 2, 3)),
    "pending": st.integers(min_value=0, max_value=2),
    # "" = unassigned, "opA" = the asking edge's own domain.
    "domain": st.sampled_from(("", "opA", "other", "other", "other")),
    "consent": st.sampled_from(CONSENT),
    "price": st.sampled_from((0.0, 1.0, 2.5)),
    "holds": holds,
})


def _gossip(content_seed, holdings):
    """A content vector, each peer's gossiped summary, its expected hit."""
    from repro.core.cache import CacheSummary
    from repro.core.sketch import AffinitySketch

    rng = np.random.Generator(np.random.PCG64(content_seed))
    content = rng.normal(size=128)
    signature = AffinitySketch().signature(content)
    summaries, hits = {}, {}
    for name, (copies, others) in zip(PEERS, holdings):
        if copies + others:
            sketch = AffinitySketch()
            for vector in [content] * copies + list(
                    rng.normal(size=(others, 128))):
                sketch.add(vector)
            summaries[name] = CacheSummary(
                kinds={"recognition": copies + others},
                sketches={"recognition": sketch.summary()})
            hits[name] = summaries[name].expected_hit("recognition",
                                                      signature)
    return content, summaries, hits


def _brute_force(affinity, own, margin, bidders, hits):
    """``(pick, was it an affinity pick)``.  ``bidders``: admissible
    ``(name, load, price)`` in spec order; ``hits``: expected-hit per
    name, or None when the request has no key."""
    if affinity and hits is not None:
        scored = [((-(hits.get(name, 0.0) * (1.0 / (1.0 + load))), load),
                   cost, order, name)
                  for order, (name, load, cost) in enumerate(bidders)
                  if load + margin <= own]
        if scored and min(scored)[0][0] < 0.0:
            return min(scored)[3], True
    if not bidders:
        return None, False
    load, _, _, name = min((load, cost, order, name) for order,
                           (name, load, cost) in enumerate(bidders))
    return (name if load + margin <= own else None), False


@given(peers=st.tuples(peer_state, peer_state, peer_state),
       own=st.integers(min_value=0, max_value=8),
       margin=st.integers(min_value=0, max_value=3),
       market=st.sampled_from(("none", "unassigned", "assigned",
                               "assigned")),
       consumer_budget=st.sampled_from((None, 1.0, 5.0)),
       affinity=st.booleans(),
       with_key=st.booleans(),
       content_seed=st.integers(min_value=0, max_value=20))
@settings(max_examples=400)
def test_pick_equals_brute_force_minimum(peers, own, margin, market,
                                         consumer_budget, affinity,
                                         with_key, content_seed):
    """Both balancers, with and without a broker: the pick is the
    ``(rank, price, order)`` minimum over admissible neighbours."""
    content, summaries, hits = _gossip(content_seed,
                                       [peer["holds"] for peer in peers])
    key = content if with_key else None

    # The market, and who may bid at what price, from the drawn state.
    broker = None
    bidders = []
    operators = [OperatorSpec(
        name="opA", budget=consumer_budget,
        deny=tuple(f"op_{n}" for n, p in zip(PEERS, peers)
                   if p["consent"] == "consumer_denies"))]
    by_edge = {"a": "opA" if market == "assigned" else ""}
    for name, peer in zip(PEERS, peers):
        load = peer["load"] + peer["pending"]
        cross = (market == "assigned" and peer["domain"] == "other")
        by_edge[name] = (f"op_{name}" if peer["domain"] == "other"
                         else peer["domain"])
        operators.append(OperatorSpec(
            name=f"op_{name}", price=peer["price"],
            deny=("opA",) if peer["consent"] == "provider_denies" else (),
            allow=(() if peer["consent"] == "not_allowed" else None)))
        if not cross:
            bidders.append((name, load, 0.0))
        elif peer["consent"] == "ok" and (
                consumer_budget is None
                or peer["price"] <= consumer_budget):
            bidders.append((name, load, peer["price"]))
    if market != "none":
        broker = _broker(tuple(operators), by_edge)
    expected, by_affinity = _brute_force(affinity, own, margin, bidders,
                                         hits if with_key else None)

    balancer = (AffinityLoadBalancer(margin=margin, broker=broker)
                if affinity else PeerLoadBalancer(margin=margin,
                                                  broker=broker))
    asking = _FakeEdge(own, summaries)
    balancer.register("a", asking, PEERS)
    for name, peer in zip(PEERS, peers):
        balancer.register(name, _FakeEdge(peer["load"]), ["a"])
        for _ in range(peer["pending"]):
            balancer.note_dispatch(name)

    if broker is not None:
        broker.fail_next()
        assert balancer.pick("a", key=key) is None  # a no-bid round
    assert balancer.pick("a", key=key) == expected  # ... and recovers
    assert balancer.pick("a", key=key) == expected
    if broker is not None:
        assert (broker.rounds, broker.timeouts) == (3, 1)
    if affinity:
        picks = 0 if expected is None else 2
        assert (asking.counts["affinity_picks"],
                asking.counts["fallback_picks"]) == (
            (picks, 0) if by_affinity else (0, picks))


@given(holdings=st.tuples(holds, holds, holds),
       load=st.integers(min_value=0, max_value=5),
       content_seed=st.integers(min_value=0, max_value=20))
@settings(max_examples=60)
def test_probe_order_and_affinity_pick_share_scores(holdings, load,
                                                    content_seed):
    """At equal loads, the peer probed first for a vector is the peer an
    affinity offload of that vector targets."""
    import types

    from repro.core.descriptors import VectorDescriptor
    from repro.core.federation import probe_order

    content, summaries, hits = _gossip(content_seed, holdings)
    asking = types.SimpleNamespace(
        load=9, peers=list(PEERS), broker=None, peer_summaries=summaries,
        host=types.SimpleNamespace(name="a"), counts=collections.Counter())
    balancer = AffinityLoadBalancer(margin=0)
    balancer.register("a", asking, PEERS)
    for name in PEERS:
        balancer.register(name, _FakeEdge(load), ["a"])
    order = probe_order(asking, VectorDescriptor(kind="recognition",
                                                 vector=content))
    assert sorted(order) == sorted(PEERS)
    assert order == sorted(PEERS, key=lambda name: -hits.get(name, 0.0))
    assert balancer.pick("a", key=content) == order[0]
