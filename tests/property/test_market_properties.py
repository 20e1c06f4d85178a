"""Property tests for the federation marketplace (PR 9).

Pins the market layer's contracts under arbitrary inputs: the ledger
conserves credits (double entry means balances always sum to zero),
the auction never awards a bid above the consumer's budget, the
auction is a pure order-insensitive function of its inputs, and
degenerate markets — one operator, or an all-zero-price open market —
reduce the balancers' decisions bit-identically to the broker-less
code path.  Runs under the derandomized ``tier1`` profile.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.market import Bid, FederationBroker
from repro.core.metrics import LEDGER_OFFLOAD, MetricsRecorder
from repro.core.pipeline import AffinityLoadBalancer, PeerLoadBalancer
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
