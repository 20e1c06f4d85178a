"""A9 — edge federation: cooperation between edges.

One edge's users warm its cache; users behind a *different* edge then
request the same content.  Isolated edges pay the cloud backhaul again;
federated edges fetch from their neighbour over the metro link.  The
sweep varies the metro-link delay to find where federation stops paying.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.scenario import ScenarioSpec

DEFAULT_METRO_DELAYS_MS = (1.0, 5.0, 20.0)


@dataclasses.dataclass(frozen=True)
class FederationRow:
    """One metro-delay setting."""

    metro_delay_ms: float
    isolated_ms: float
    federated_ms: float
    peer_hit_ratio: float

    @property
    def reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.federated_ms / self.isolated_ms)


def _run_cross_edge_loads(federate: bool, metro_delay_ms: float,
                          n_models: int, seed: int) -> tuple[float, float]:
    """Mean latency of second-edge loads; peer hit ratio of its edge."""
    config = CoICConfig(seed=seed)
    config.network.wifi_mbps = 100
    config.network.backhaul_mbps = 10
    deployment = ClusterDeployment(
        ScenarioSpec.federated(n_edges=2, clients_per_edge=1,
                               metro_delay_ms=metro_delay_ms,
                               federate=federate),
        config=config)

    # Warm edge0 through its own user.
    for model_id in range(n_models):
        deployment.run_tasks(deployment.clients_by_edge[0][0],
                             [deployment.model_load_task(model_id)])
    deployment.env.run()  # drain background parses

    # Same content requested behind edge1.
    latencies = []
    for model_id in range(n_models):
        record = deployment.run_tasks(
            deployment.clients_by_edge[1][0],
            [deployment.model_load_task(model_id)])[0]
        latencies.append(record.latency_s)
        deployment.env.run()
    mean_ms = sum(latencies) / len(latencies) * 1e3

    counts = deployment.edges[1].counts
    rounds = counts["peer_hits"] + counts["peer_misses"]  # 0 when isolated
    ratio = counts["peer_hits"] / rounds if rounds else 0.0
    return mean_ms, ratio


def run_federation(metro_delays_ms: typing.Sequence[float]
                   = DEFAULT_METRO_DELAYS_MS,
                   n_models: int = 4, seed: int = 0) -> list[FederationRow]:
    """Compare isolated vs federated edges across metro delays."""
    if not metro_delays_ms:
        raise ValueError("need at least one metro delay")
    isolated_ms, _ = _run_cross_edge_loads(False, metro_delays_ms[0],
                                           n_models, seed)
    rows = []
    for delay in metro_delays_ms:
        federated_ms, ratio = _run_cross_edge_loads(True, delay,
                                                    n_models, seed)
        rows.append(FederationRow(
            metro_delay_ms=delay, isolated_ms=isolated_ms,
            federated_ms=federated_ms, peer_hit_ratio=ratio))
    return rows
