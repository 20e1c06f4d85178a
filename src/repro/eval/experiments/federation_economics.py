"""A15 — federation economics: when does buying a peer's cache beat
the cloud?

The marketplace (ROADMAP item 2, :mod:`repro.core.market`) prices
cross-operator cooperation; this experiment asks the only question
that justifies paying at all: *is a priced peer hit ever worth more
than a free cloud round trip?*  The smallest scenario where the answer
is yes:

* ``edge0`` (operator **metroA**) — the consumer: a crowd of
  closed-loop users with Zipf-skewed demand, a street-cabinet cache
  too small to hold the catalog, and a thin 10 Mbps cloud backhaul
  every miss must re-upload the multi-megabyte frame over.
* ``edge1`` (operator **metroB**) — the provider: a metro box warmed
  with the full catalog, one fast metro link away.  A federated probe
  costs descriptor bytes out and result bytes back on that link —
  milliseconds against the cloud's seconds.

Four market regimes, identical data plane:

* ``free`` — open zero-price market: peering costs nothing (the
  classic single-domain federation; the reference the golden tests pin
  bit-identical to no market at all).
* ``paid`` — metroB quotes a per-hit price inside metroA's budget:
  every federated hit posts a ledger settlement, latency unchanged
  from ``free`` (credits move, bytes do not).
* ``over_budget`` — metroB prices itself above metroA's budget: the
  broker filters edge1 out of every probe round and all misses pay
  the cloud.
* ``denied`` — metroB refuses consent outright: same cloud-only data
  plane, by policy instead of price.

The measured claim (seed 0, the bench's full configuration): ``paid``
beats ``denied``/``over_budget`` on mean **and** p99 recognition
latency by a wide margin — buying the neighbour's cache is worth it
whenever the quoted price fits the budget, because the alternative is
the WAN.  The ledger shows exactly what it cost: metroA's spend equals
metroB's earnings (credit conservation), and the ``free`` regime shows
the same latency win for zero credits.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.metrics import LatencySummary, OUTCOME_HIT, OUTCOME_MISS
from repro.core.scenario import (
    ClientSpec,
    EdgeSpec,
    InterEdgeLinkSpec,
    OperatorSpec,
    ScenarioSpec,
    WarmupSpec,
)
from repro.eval.experiments.affinity_exp import drive_zipf

#: Market regimes, in presentation order.
REGIME_NAMES = ("free", "paid", "over_budget", "denied")

CONSUMER_OP = "metroA"
PROVIDER_OP = "metroB"

#: Scenario shape (see the bench for the measured claim).
DEFAULT_CATALOG = 24
DEFAULT_ALPHA = 0.9
DEFAULT_CLIENTS = 8
DEFAULT_INTERVAL_S = 0.25
DEFAULT_DURATION_S = 120.0
#: Consumer-side street cabinet: ~12 results, never holds the catalog.
CABINET_CACHE_MB = 0.026
#: Provider-side metro box: the full catalog with room to spare.
METRO_CACHE_MB = 0.08
#: metroB's per-hit quote in the priced regimes.
ASK_PRICE = 2.0
#: metroA's willingness to pay per job.
BUDGET = 5.0


def market_operators(regime: str) -> tuple[OperatorSpec, OperatorSpec]:
    """The two operators' policies for one market regime."""
    if regime == "free":
        return (OperatorSpec(name=CONSUMER_OP),
                OperatorSpec(name=PROVIDER_OP))
    if regime == "paid":
        return (OperatorSpec(name=CONSUMER_OP, budget=BUDGET),
                OperatorSpec(name=PROVIDER_OP, price=ASK_PRICE))
    if regime == "over_budget":
        return (OperatorSpec(name=CONSUMER_OP, budget=BUDGET),
                OperatorSpec(name=PROVIDER_OP, price=BUDGET * 10))
    if regime == "denied":
        return (OperatorSpec(name=CONSUMER_OP, budget=BUDGET),
                OperatorSpec(name=PROVIDER_OP, price=ASK_PRICE,
                             deny=(CONSUMER_OP,)))
    raise KeyError(f"unknown regime {regime!r}; choose from {REGIME_NAMES}")


@dataclasses.dataclass(frozen=True)
class MarketRow:
    """One regime of the paid-peering vs cloud comparison."""

    regime: str
    requests: int
    served: int
    hit_ratio: float
    peer_probes: int
    peer_hits: int
    mean_ms: float
    p95_ms: float
    p99_ms: float
    credits_spent: float    # metroA's ledger spend
    credits_earned: float   # metroB's ledger earnings
    transactions: int       # cross-operator settlements posted
    balance_sum: float      # sum of all operator balances (always 0)


def build_market_scenario(seed: int = 0, regime: str = "paid",
                          n_clients: int = DEFAULT_CLIENTS,
                          catalog: int = DEFAULT_CATALOG,
                          config: CoICConfig | None = None
                          ) -> ClusterDeployment:
    """The two-operator consumer/provider street.

    ``edge0`` (metroA: cold cabinet, all the clients, thin cloud
    backhaul) federates with ``edge1`` (metroB: warmed metro box) over
    one fast metro link; the regime's operator policies decide whether
    the federation probe is allowed and what a hit costs.
    """
    if config is None:
        config = CoICConfig(seed=seed)
        config.network.wifi_mbps = 100
        # Thin cloud backhaul: every denied/over-budget miss re-uploads
        # the frame to the cloud over this — the round trip a paid peer
        # hit avoids.
        config.network.backhaul_mbps = 10
        config.cache.capacity_mb = CABINET_CACHE_MB
    clients = tuple(ClientSpec(name=f"m{i}") for i in range(n_clients))
    spec = ScenarioSpec(
        edges=(EdgeSpec(name="edge0", clients=clients,
                        cache_mb=CABINET_CACHE_MB),
               EdgeSpec(name="edge1", cache_mb=METRO_CACHE_MB)),
        inter_edge=(InterEdgeLinkSpec(a="edge0", b="edge1"),),
        federate=True,
        warmup=WarmupSpec(classes=tuple(range(catalog)),
                          edges=("edge1",)))
    spec = spec.with_operators(market_operators(regime),
                               {"edge0": CONSUMER_OP,
                                "edge1": PROVIDER_OP})
    return ClusterDeployment(spec, config=config)


def _summarize(deployment: ClusterDeployment, regime: str) -> MarketRow:
    recorder = deployment.recorder
    records = recorder.select(task_kind="recognition")
    served = [r for r in records if r.outcome in (OUTCOME_HIT, OUTCOME_MISS)]
    summary = LatencySummary.of([r.latency_s for r in served])
    settlements = recorder.settlement_summary()
    consumer = settlements.get(CONSUMER_OP)
    provider = settlements.get(PROVIDER_OP)
    consumer_edge = deployment.edge_by_name["edge0"]
    return MarketRow(
        regime=regime,
        requests=len(records), served=len(served),
        hit_ratio=recorder.hit_ratio(task_kind="recognition"),
        peer_probes=len(consumer_edge.probe_log),
        peer_hits=consumer_edge.counts["peer_hits"],
        mean_ms=summary.mean * 1e3, p95_ms=summary.p95 * 1e3,
        p99_ms=summary.p99 * 1e3,
        credits_spent=consumer.spent if consumer is not None else 0.0,
        credits_earned=provider.earned if provider is not None else 0.0,
        transactions=len(recorder.ledger),
        balance_sum=sum(recorder.operator_balances().values()))


def run_federation_economics(regimes: typing.Sequence[str] = REGIME_NAMES,
                             n_clients: int = DEFAULT_CLIENTS,
                             catalog: int = DEFAULT_CATALOG,
                             alpha: float = DEFAULT_ALPHA,
                             duration_s: float = DEFAULT_DURATION_S,
                             request_interval_s: float = DEFAULT_INTERVAL_S,
                             seed: int = 0) -> list[MarketRow]:
    """Run the market-regime ladder over the consumer/provider street."""
    rows = []
    for regime in regimes:
        deployment = build_market_scenario(seed=seed, regime=regime,
                                           n_clients=n_clients,
                                           catalog=catalog)
        drive_zipf(deployment, duration_s, request_interval_s,
                   catalog=catalog, alpha=alpha,
                   stream_prefix="workload.market")
        rows.append(_summarize(deployment, regime))
    return rows
