"""Tests for the multi-operator federation marketplace (PR 9).

Covers :class:`~repro.core.scenario.OperatorSpec` (policy semantics and
serde), the :class:`~repro.core.market.FederationBroker` (consent,
quotes, the pure auction, round/timeout bookkeeping, ledger
settlement), the market mode of both load balancers (an all-free open
market must select identically to the broker-less code path), and the
deployment-level money trail: offload / federation / pre-warm billing,
broker-timeout fallback with outcome accounting intact, and the
denied-consent guarantee that a refused peer is never even probed.
"""

import collections
import dataclasses

import numpy as np
import pytest

from repro.core.cache import CacheSummary
from repro.core.sketch import AffinitySketch
from repro.core.market import Bid, FederationBroker
from repro.core.metrics import (
    LEDGER_FEDERATION,
    LEDGER_OFFLOAD,
    LEDGER_PREWARM,
    LedgerEntry,
    MetricsRecorder,
    OUTCOME_SHED,
)
from repro.core.balancer import AffinityLoadBalancer, PeerLoadBalancer
from repro.core.scenario import (
    EdgePolicySpec,
    EdgeSpec,
    OperatorSpec,
    ScenarioSpec,
    WarmupSpec,
)

from ordering import recorder_digest


def vec(seed: int, dim: int = 128) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def broker_for(operators, by_edge, recorder=None, seed=0):
    """A broker over a minimal spec: one edge per ``by_edge`` key."""
    edges = tuple(EdgeSpec(name=name) for name in by_edge)
    spec = ScenarioSpec(edges=edges).with_operators(operators,
                                                    dict(by_edge))
    return FederationBroker(spec, recorder or MetricsRecorder(),
                            seed=seed)


# -- OperatorSpec -------------------------------------------------------------


class TestOperatorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            OperatorSpec(name="")
        with pytest.raises(ValueError):
            OperatorSpec(name="op", price=-1.0)
        with pytest.raises(ValueError):
            OperatorSpec(name="op", budget=-0.5)
        with pytest.raises(ValueError):
            OperatorSpec(name="op", agreements=(("peer", 1.0),
                                                ("peer", 2.0)))
        with pytest.raises(ValueError):
            OperatorSpec(name="op", agreements=(("peer", -1.0),))

    def test_quote_prefers_bilateral_agreement(self):
        op = OperatorSpec(name="op", price=5.0,
                          agreements=(("friend", 1.0),))
        assert op.quote_for("friend") == 1.0
        assert op.quote_for("stranger") == 5.0

    def test_consent_semantics(self):
        op = OperatorSpec(name="op", allow=("a", "b"), deny=("b",))
        assert op.consents_to("op")      # self always
        assert op.consents_to("a")
        assert not op.consents_to("b")   # deny beats allow
        assert not op.consents_to("c")   # not on the allow-list
        open_market = OperatorSpec(name="op2", deny=("b",))
        assert open_market.consents_to("a")   # allow None = anyone
        assert not open_market.consents_to("b")

    def test_serde_roundtrip(self):
        op = OperatorSpec(name="op", price=2.5, budget=7.0,
                          allow=("a",), deny=("b",),
                          agreements=(("a", 0.5),))
        assert OperatorSpec.from_dict(op.to_dict()) == op
        free = OperatorSpec(name="free")
        restored = OperatorSpec.from_dict(free.to_dict())
        assert restored == free
        assert restored.budget is None and restored.allow is None


class TestScenarioOperators:
    def test_spec_roundtrip(self):
        spec = ScenarioSpec(edges=(EdgeSpec(name="e0"),
                                   EdgeSpec(name="e1")))
        spec = spec.with_operators(
            (OperatorSpec(name="opA", budget=3.0),
             OperatorSpec(name="opB", price=1.0, deny=("opA",))),
            {"e0": "opA", "e1": "opB"})
        restored = ScenarioSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.edge("e0").operator == "opA"
        assert restored.operator("opB").deny == ("opA",)

    def test_undeclared_operator_references_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(edges=(EdgeSpec(name="e0", operator="ghost"),))
        with pytest.raises(ValueError):
            ScenarioSpec(edges=(EdgeSpec(name="e0"),),
                         operators=(OperatorSpec(name="op",
                                                 deny=("ghost",)),))
        with pytest.raises(ValueError):
            ScenarioSpec(edges=(EdgeSpec(name="e0"),),
                         operators=(OperatorSpec(name="op"),
                                    OperatorSpec(name="op")))

    def test_with_operators_rejects_unknown_edges(self):
        spec = ScenarioSpec(edges=(EdgeSpec(name="e0"),))
        with pytest.raises(ValueError):
            spec.with_operators((OperatorSpec(name="op"),),
                                {"nope": "op"})

    def test_operator_lookup(self):
        spec = ScenarioSpec(edges=(EdgeSpec(name="e0"),),
                            operators=(OperatorSpec(name="op"),))
        assert spec.operator("op").name == "op"
        with pytest.raises(KeyError):
            spec.operator("ghost")


# -- broker: consent, quotes, admissibility -----------------------------------


class TestBrokerConsent:
    def test_same_domain_and_unassigned_always_free(self):
        broker = broker_for((OperatorSpec(name="opA", price=9.0),),
                            {"a": "opA", "b": "opA", "c": ""})
        assert broker.consent("opA", "opA")
        assert broker.quote("opA", "opA") == 0.0
        assert broker.admissible("a", "b")
        # Unassigned edges are outside the market entirely.
        assert broker.admissible("a", "c") and broker.admissible("c", "a")
        assert broker.price_between("a", "c") == 0.0

    def test_provider_deny_blocks(self):
        broker = broker_for(
            (OperatorSpec(name="opA"),
             OperatorSpec(name="opB", deny=("opA",))),
            {"a": "opA", "b": "opB"})
        assert not broker.consent("opA", "opB")
        assert not broker.admissible("a", "b")
        # A deny severs the relationship in both directions: the pair
        # trades nothing, whoever would be paying.
        assert not broker.consent("opB", "opA")
        assert not broker.admissible("b", "a")

    def test_consumer_deny_blocks_too(self):
        # A consumer that denied a provider never buys from it either.
        broker = broker_for(
            (OperatorSpec(name="opA", deny=("opB",)),
             OperatorSpec(name="opB")),
            {"a": "opA", "b": "opB"})
        assert not broker.consent("opA", "opB")
        assert not broker.admissible("a", "b")

    def test_allow_list_restricts(self):
        broker = broker_for(
            (OperatorSpec(name="opA"), OperatorSpec(name="opB"),
             OperatorSpec(name="opC", allow=("opA",))),
            {"a": "opA", "b": "opB", "c": "opC"})
        assert broker.admissible("a", "c")
        assert not broker.admissible("b", "c")

    def test_budget_gates_admissibility(self):
        broker = broker_for(
            (OperatorSpec(name="opA", budget=2.0),
             OperatorSpec(name="opB", price=3.0),
             OperatorSpec(name="opC", price=2.0)),
            {"a": "opA", "b": "opB", "c": "opC"})
        assert not broker.admissible("a", "b")   # 3.0 > budget 2.0
        assert broker.admissible("a", "c")       # 2.0 <= budget 2.0
        # No budget = unlimited willingness to pay.
        no_budget = broker_for(
            (OperatorSpec(name="opA"),
             OperatorSpec(name="opB", price=1e9)),
            {"a": "opA", "b": "opB"})
        assert no_budget.admissible("a", "b")

    def test_agreement_price_used_for_quotes(self):
        broker = broker_for(
            (OperatorSpec(name="opA", budget=1.0),
             OperatorSpec(name="opB", price=5.0,
                          agreements=(("opA", 0.5),))),
            {"a": "opA", "b": "opB"})
        assert broker.price_between("a", "b") == 0.5
        assert broker.admissible("a", "b")   # agreement fits the budget


# -- the auction (pure function) ----------------------------------------------


def bid(provider, rank, price=0.0, order=0, operator="op"):
    return Bid(provider=provider, operator=operator, rank=rank,
               price=price, order=order)


class TestAuction:
    def test_empty_and_unaffordable_rounds_yield_none(self):
        assert FederationBroker.auction([], budget=None) is None
        bids = [bid("b", rank=(1,), price=9.0)]
        assert FederationBroker.auction(bids, budget=5.0) is None

    def test_best_rank_wins_regardless_of_price(self):
        bids = [bid("cheap", rank=(4,), price=0.0, order=0),
                bid("fast", rank=(1,), price=3.0, order=1)]
        winner = FederationBroker.auction(bids, budget=None)
        assert winner.provider == "fast"

    def test_price_breaks_rank_ties(self):
        bids = [bid("dear", rank=(2,), price=3.0, order=0),
                bid("cheap", rank=(2,), price=1.0, order=1)]
        assert FederationBroker.auction(bids, budget=None).provider == \
            "cheap"

    def test_registration_order_breaks_full_ties(self):
        # The pre-market balancers' tie-break: first registered wins.
        bids = [bid("first", rank=(2,), price=1.0, order=0),
                bid("second", rank=(2,), price=1.0, order=1)]
        assert FederationBroker.auction(bids, budget=None).provider == \
            "first"

    def test_budget_filters_before_ranking(self):
        bids = [bid("fast", rank=(0,), price=9.0, order=0),
                bid("slow", rank=(5,), price=1.0, order=1)]
        assert FederationBroker.auction(bids, budget=2.0).provider == \
            "slow"

    def test_exact_budget_is_affordable(self):
        bids = [bid("b", rank=(1,), price=2.0)]
        assert FederationBroker.auction(bids, budget=2.0) is not None
        # A zero-price bid fits even a zero budget.
        assert FederationBroker.auction([bid("b", rank=(1,), price=0.0)],
                                        budget=0.0) is not None

    def test_seed_never_perturbs_the_winner(self):
        bids = [bid("x", rank=(3,), price=1.0, order=0),
                bid("y", rank=(2,), price=2.0, order=1)]
        winners = {FederationBroker.auction(bids, budget=None,
                                            seed=s).provider
                   for s in range(20)}
        assert winners == {"y"}


class TestBrokerRounds:
    def test_rounds_count_and_fail_next(self):
        broker = broker_for((OperatorSpec(name="op"),), {"a": "op"})
        assert broker.begin_round() is True
        broker.fail_next(2)
        assert broker.begin_round() is False
        assert broker.begin_round() is False
        assert broker.begin_round() is True
        assert broker.rounds == 4
        assert broker.timeouts == 2
        with pytest.raises(ValueError):
            broker.fail_next(-1)


# -- settlement and the ledger ------------------------------------------------


class TestSettlement:
    def test_same_domain_and_unassigned_settle_nothing(self):
        recorder = MetricsRecorder()
        broker = broker_for((OperatorSpec(name="op", price=4.0),),
                            {"a": "op", "b": "op", "c": ""},
                            recorder=recorder)
        assert broker.settle(LEDGER_OFFLOAD, "a", "b", now=1.0) is None
        assert broker.settle(LEDGER_OFFLOAD, "a", "c", now=1.0) is None
        assert recorder.ledger == []
        assert broker.settled == 0

    def test_cross_operator_settlement_posts_double_entry(self):
        recorder = MetricsRecorder()
        broker = broker_for(
            (OperatorSpec(name="opA"),
             OperatorSpec(name="opB", price=2.5)),
            {"a": "opA", "b": "opB"}, recorder=recorder)
        charge = broker.settle(LEDGER_FEDERATION, "a", "b", now=3.0,
                               detail={"kind": "peer_lookup"})
        assert charge == ("opA", 2.5)
        assert broker.settled == 1
        entry = recorder.ledger[0]
        assert entry.kind == LEDGER_FEDERATION
        assert (entry.consumer, entry.provider) == ("opA", "opB")
        assert entry.price == 2.5 and entry.time_s == 3.0
        assert entry.detail["src_edge"] == "a"
        assert entry.detail["kind"] == "peer_lookup"
        balances = recorder.operator_balances()
        assert balances == {"opA": -2.5, "opB": 2.5}
        assert sum(balances.values()) == pytest.approx(0.0)

    def test_zero_price_transactions_keep_the_audit_trail(self):
        recorder = MetricsRecorder()
        broker = broker_for(
            (OperatorSpec(name="opA"), OperatorSpec(name="opB")),
            {"a": "opA", "b": "opB"}, recorder=recorder)
        assert broker.settle(LEDGER_PREWARM, "a", "b", now=0.0) == \
            ("opA", 0.0)
        assert len(recorder.ledger) == 1
        assert recorder.operator_balances() == {"opA": 0.0, "opB": 0.0}

    def test_settlement_summary_aggregates(self):
        recorder = MetricsRecorder()
        broker = broker_for(
            (OperatorSpec(name="opA"),
             OperatorSpec(name="opB", price=2.0),
             OperatorSpec(name="opC", price=1.0)),
            {"a": "opA", "b": "opB", "c": "opC"}, recorder=recorder)
        broker.settle(LEDGER_OFFLOAD, "a", "b", now=0.0)
        broker.settle(LEDGER_OFFLOAD, "a", "b", now=1.0)
        broker.settle(LEDGER_FEDERATION, "a", "c", now=2.0)
        summary = recorder.settlement_summary()
        assert list(summary) == ["opA", "opB", "opC"]
        assert summary["opA"].spent == 5.0
        assert summary["opA"].earned == 0.0
        assert summary["opA"].net == -5.0
        assert summary["opB"].earned == 4.0
        assert summary["opB"].transactions == 2
        assert summary["opC"].net == 1.0

    def test_recorder_rejects_malformed_entries(self):
        recorder = MetricsRecorder()
        with pytest.raises(ValueError):
            recorder.post(LedgerEntry(time_s=0.0, consumer="a",
                                      provider="b", price=-1.0, kind="x"))
        with pytest.raises(ValueError):
            recorder.post(LedgerEntry(time_s=0.0, consumer="a",
                                      provider="a", price=1.0, kind="x"))


# -- market mode of the balancers ---------------------------------------------


class _FakeEdge:
    def __init__(self, load, summaries=None):
        self.load = load
        self.peer_summaries = summaries or {}
        self.counts = collections.Counter()


def _summary_holding(v) -> CacheSummary:
    sketch = AffinitySketch()
    sketch.add(v)
    return CacheSummary(kinds={"recognition": 1},
                        sketches={"recognition": sketch.summary()})


LOAD_SWEEP = ((5, 2, 1), (5, 1, 2), (2, 2, 2), (1, 4, 5), (0, 0, 0),
              (4, 3, 3))


def _free_broker():
    return broker_for(
        (OperatorSpec(name="opA"), OperatorSpec(name="opB"),
         OperatorSpec(name="opC")),
        {"a": "opA", "b": "opB", "c": "opC"})


class TestMarketLeastLoaded:
    def _register(self, balancer, loads):
        balancer.register("a", _FakeEdge(loads[0]), ["b", "c"])
        balancer.register("b", _FakeEdge(loads[1]), ["a"])
        balancer.register("c", _FakeEdge(loads[2]), ["a"])

    def test_open_market_identical_to_brokerless(self):
        # Decision identity: an all-free three-operator market must pick
        # exactly what the PR 3 balancer picks, for every load shape
        # and margin — the broker filters, it never re-ranks.
        for margin in (0, 1, 2):
            for loads in LOAD_SWEEP:
                market = PeerLoadBalancer(margin=margin,
                                          broker=_free_broker())
                plain = PeerLoadBalancer(margin=margin)
                self._register(market, loads)
                self._register(plain, loads)
                assert market.pick("a") == plain.pick("a"), (margin, loads)

    def test_denied_provider_never_bids(self):
        broker = broker_for(
            (OperatorSpec(name="opA"), OperatorSpec(name="opB"),
             OperatorSpec(name="opC", deny=("opA",))),
            {"a": "opA", "b": "opB", "c": "opC"})
        balancer = PeerLoadBalancer(margin=1, broker=broker)
        self._register(balancer, (5, 2, 1))
        # Broker-less least-loaded would pick "c" (load 1); the denial
        # removes it from the auction entirely.
        assert balancer.pick("a") == "b"

    def test_over_budget_provider_never_bids(self):
        broker = broker_for(
            (OperatorSpec(name="opA", budget=1.0),
             OperatorSpec(name="opB"),
             OperatorSpec(name="opC", price=2.0)),
            {"a": "opA", "b": "opB", "c": "opC"})
        balancer = PeerLoadBalancer(margin=1, broker=broker)
        self._register(balancer, (5, 2, 1))
        assert balancer.pick("a") == "b"

    def test_everyone_inadmissible_means_no_pick(self):
        broker = broker_for(
            (OperatorSpec(name="opA"),
             OperatorSpec(name="opB", deny=("opA",)),
             OperatorSpec(name="opC", deny=("opA",))),
            {"a": "opA", "b": "opB", "c": "opC"})
        balancer = PeerLoadBalancer(margin=1, broker=broker)
        self._register(balancer, (5, 2, 1))
        assert balancer.pick("a") is None

    def test_timeout_round_picks_nothing(self):
        broker = _free_broker()
        balancer = PeerLoadBalancer(margin=1, broker=broker)
        self._register(balancer, (5, 2, 1))
        broker.fail_next(1)
        assert balancer.pick("a") is None
        assert broker.timeouts == 1
        assert balancer.pick("a") == "c"   # next round recovers


class TestMarketAffinity:
    def test_open_market_identical_to_brokerless(self):
        # With summaries in play: the market-mode affinity pick must
        # equal the broker-less affinity pick for every load shape,
        # with and without an affinity key.
        content = vec(9)
        summaries = {"b": _summary_holding(content)}
        for loads in LOAD_SWEEP:
            market = AffinityLoadBalancer(margin=1,
                                          broker=_free_broker())
            plain = AffinityLoadBalancer(margin=1)
            for balancer in (market, plain):
                balancer.register("a", _FakeEdge(loads[0], summaries),
                                  ["b", "c"])
                balancer.register("b", _FakeEdge(loads[1]), ["a"])
                balancer.register("c", _FakeEdge(loads[2]), ["a"])
            assert market.pick("a", key=content) == \
                plain.pick("a", key=content), loads
            assert market.pick("a", key=None) == \
                plain.pick("a", key=None), loads

    def test_denied_provider_excluded_despite_best_affinity(self):
        content = vec(9)
        broker = broker_for(
            (OperatorSpec(name="opA"), OperatorSpec(name="opB"),
             OperatorSpec(name="opC", deny=("opA",))),
            {"a": "opA", "b": "opB", "c": "opC"})
        asking = _FakeEdge(5, summaries={"c": _summary_holding(content)})
        balancer = AffinityLoadBalancer(margin=1, broker=broker)
        balancer.register("a", asking, ["b", "c"])
        balancer.register("b", _FakeEdge(2), ["a"])
        balancer.register("c", _FakeEdge(1), ["a"])
        # "c" holds the content AND is least loaded, but consent fails:
        # the auction and the fallback both exclude it.
        assert balancer.pick("a", key=content) == "b"


# -- deployment-level: the money trail ----------------------------------------


OFFLOAD_POLICY = EdgePolicySpec(offload="least_loaded", queue_limit=0,
                                offload_margin=0)


def _priced_ops(price=3.0, budget=None, deny=()):
    return (OperatorSpec(name="opA", budget=budget),
            OperatorSpec(name="opB", price=price, deny=deny))


class TestDeploymentWiring:
    def test_no_operators_means_no_broker(self, make_deployment):
        dep = make_deployment(policy=OFFLOAD_POLICY)
        assert dep.broker is None
        assert dep.balancer.broker is None

    def test_operators_wire_the_broker_everywhere(self, make_spec,
                                                  make_deployment):
        spec = make_spec(policy=OFFLOAD_POLICY)
        spec = dataclasses.replace(spec, federate=True)
        spec = spec.with_operators(_priced_ops(),
                                   {"edge0": "opA", "edge1": "opB"})
        dep = make_deployment(spec=spec)
        assert dep.broker is not None
        assert dep.balancer.broker is dep.broker
        assert all(edge.broker is dep.broker for edge in dep.edges)


class TestOffloadBilling:
    def test_cross_operator_offload_is_billed(self, make_spec,
                                              make_deployment):
        spec = make_spec(policy=OFFLOAD_POLICY).with_operators(
            _priced_ops(price=3.0), {"edge0": "opA", "edge1": "opB"})
        dep = make_deployment(spec=spec, seed=1)
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(5)])[0]
        # Served by the neighbour, and the consumer operator paid for it.
        assert record.edge == "edge1"
        assert record.outcome == "miss"
        assert record.billed_to == "opA"
        assert record.price == 3.0
        assert len(dep.recorder.ledger) == 1
        assert dep.recorder.ledger[0].kind == LEDGER_OFFLOAD
        assert dep.recorder.operator_balances() == {"opA": -3.0,
                                                    "opB": 3.0}
        assert dep.broker.settled == 1

    def test_free_market_offload_matches_no_market(self, make_spec,
                                                   make_deployment):
        # Inert-policy equality at offload scale: declaring all-free
        # operators must not move a single byte of telemetry.
        def digest(spec):
            dep = make_deployment(spec=spec, seed=1)
            dep.run_tasks(dep.client_by_name["m0"],
                          [dep.recognition_task(5),
                           dep.recognition_task(6)])
            return recorder_digest(dep.recorder)

        plain = make_spec(policy=OFFLOAD_POLICY)
        market = plain.with_operators(
            (OperatorSpec(name="opA"), OperatorSpec(name="opB")),
            {"edge0": "opA", "edge1": "opB"})
        assert digest(market) == digest(plain)

    def test_same_operator_offload_is_free(self, make_spec,
                                           make_deployment):
        spec = make_spec(policy=OFFLOAD_POLICY).with_operators(
            (OperatorSpec(name="opA", price=9.0),),
            {"edge0": "opA", "edge1": "opA"})
        dep = make_deployment(spec=spec, seed=1)
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(5)])[0]
        assert record.edge == "edge1"
        assert record.billed_to is None and record.price == 0.0
        assert dep.recorder.ledger == []


class TestBrokerTimeoutFallback:
    def test_timeout_falls_back_to_cloud_redirect(self, make_spec,
                                                  make_deployment):
        policy = EdgePolicySpec(offload="least_loaded", queue_limit=0,
                                offload_margin=0, admission="redirect")
        spec = make_spec(policy=policy).with_operators(
            _priced_ops(), {"edge0": "opA", "edge1": "opB"})
        dep = make_deployment(spec=spec, seed=1)
        dep.broker.fail_next(1)
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(3)])[0]
        # No bids this round: the admission policy's cloud redirect
        # runs with its usual accounting — and nothing was billed.
        assert record.outcome == "miss"
        assert record.correct is True
        assert dep.edges[0].counts["redirects"] == 1
        assert dep.edges[0].counts["offloaded_out"] == 0
        assert dep.broker.timeouts == 1
        assert dep.recorder.ledger == []
        # The next round auctions normally again.
        second = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(4)])[0]
        assert second.edge == "edge1"
        assert dep.edges[0].counts["offloaded_out"] == 1

    def test_timeout_falls_back_to_shed(self, make_spec,
                                        make_deployment):
        policy = EdgePolicySpec(offload="least_loaded", queue_limit=0,
                                offload_margin=0, admission="shed")
        spec = make_spec(policy=policy).with_operators(
            _priced_ops(), {"edge0": "opA", "edge1": "opB"})
        dep = make_deployment(spec=spec, seed=1)
        dep.broker.fail_next(1)
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(3)])[0]
        assert record.outcome == OUTCOME_SHED
        assert dep.edges[0].counts["shed"] == 1
        assert dep.recorder.ledger == []


class TestFederationConsentAndBilling:
    def _federated_spec(self, make_spec, operators):
        spec = make_spec(clients=(("m0",), ()),
                         warmup=WarmupSpec(classes=(7,),
                                           edges=("edge1",)))
        spec = dataclasses.replace(spec, federate=True)
        return spec.with_operators(operators,
                                   {"edge0": "opA", "edge1": "opB"})

    def test_denied_peer_is_never_probed(self, make_spec,
                                         make_deployment):
        spec = self._federated_spec(make_spec,
                                    _priced_ops(deny=("opA",)))
        dep = make_deployment(spec=spec)
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(7)])[0]
        # The warm peer would have answered — but consent failed, so
        # the probe was never sent and the miss went to the cloud.
        assert record.outcome == "miss"
        assert record.correct is True
        assert dep.edges[0].probe_log == []
        assert dep.recorder.ledger == []

    def test_consented_probe_hits_and_is_billed(self, make_spec,
                                                make_deployment):
        spec = self._federated_spec(make_spec, _priced_ops(price=2.0))
        dep = make_deployment(spec=spec)
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(7)])[0]
        assert record.outcome == "hit"
        assert record.billed_to == "opA"
        assert record.price == 2.0
        assert [peer for _, peer in dep.edges[0].probe_log] == ["edge1"]
        assert len(dep.recorder.ledger) == 1
        entry = dep.recorder.ledger[0]
        assert entry.kind == LEDGER_FEDERATION
        assert (entry.consumer, entry.provider) == ("opA", "opB")
        assert sum(dep.recorder.operator_balances().values()) == \
            pytest.approx(0.0)

    def test_open_market_probe_is_free(self, make_spec,
                                       make_deployment):
        spec = self._federated_spec(
            make_spec, (OperatorSpec(name="opA"),
                        OperatorSpec(name="opB")))
        dep = make_deployment(spec=spec)
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(7)])[0]
        assert record.outcome == "hit"
        # Zero-price settlement: audit trail yes, credits no.
        assert record.billed_to == "opA" and record.price == 0.0
        assert dep.recorder.ledger[0].price == 0.0
        assert dep.recorder.operator_balances() == {"opA": 0.0,
                                                    "opB": 0.0}


class TestPrewarmConsentAndBilling:
    def _spec(self, make_spec, operators):
        spec = make_spec(clients=(("m0",), ()),
                         policy=EdgePolicySpec(prewarm_top_k=4),
                         warmup=WarmupSpec(classes=(0, 1),
                                           edges=("edge0",)))
        return spec.with_operators(operators,
                                   {"edge0": "opA", "edge1": "opB"})

    def test_denied_destination_refuses_the_push(self, make_spec,
                                                 make_deployment):
        dep = make_deployment(
            spec=self._spec(make_spec, _priced_ops(deny=("opA",))))
        assert dep.prewarm("edge0", "edge1", client_name="m0") is False
        dep.env.run()
        assert sum(p.pushed for p in dep.prewarm_log) == 0
        assert dep.recorder.ledger == []

    def test_delivered_push_bills_the_departing_operator(
            self, make_spec, make_deployment):
        dep = make_deployment(
            spec=self._spec(make_spec, _priced_ops(price=1.5)))
        assert dep.prewarm("edge0", "edge1", client_name="m0") is True
        dep.env.run()
        assert sum(p.pushed for p in dep.prewarm_log) == 2
        assert len(dep.recorder.ledger) == 1
        entry = dep.recorder.ledger[0]
        assert entry.kind == LEDGER_PREWARM
        assert (entry.consumer, entry.provider) == ("opA", "opB")
        assert entry.price == 1.5
        assert entry.detail["client"] == "m0"
        assert entry.detail["entries"] == 2
