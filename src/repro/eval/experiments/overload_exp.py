"""A11 — rush hour at the hot cell: overload policies under offered load.

The ROADMAP's scale story stalls where one edge saturates: a stadium
cell at match time receives most of the metro's users while neighbour
cells idle.  This experiment builds exactly that — a grid of edges, a
gravity-biased crowd concentrating on one hot cell, closed-loop
recognition traffic — and sweeps the offered load against four overload
policies built from the request pipeline's admission layer:

* ``none`` — the paper's accept-everything edge: every request queues
  for the saturated worker pool; the tail explodes.
* ``shed`` — admission control refuses work past the queue threshold;
  served requests stay fast, refused ones are counted (shed rate).
* ``offload`` — excess recognition work is forwarded to the
  least-loaded neighbouring edge over the inter-edge backhaul; total
  work is preserved, the tail pays one metro hop instead of the queue.
* ``offload+prewarm`` — offload plus predictive handoff pre-warm: the
  mobility itinerary pushes each edge's hottest cache entries to the
  next edge before the crowd re-attaches, so post-handoff requests hit
  instead of re-fetching from the cloud.

Per-edge attribution (the ``served_by`` tag on every response) shows
where the work actually landed once policies start moving it around.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.metrics import (
    LatencySummary,
    OUTCOME_HIT,
    OUTCOME_MISS,
    OUTCOME_SHED,
)
from repro.core.scenario import (
    ClientSpec,
    EdgePolicySpec,
    EdgeSpec,
    InterEdgeLinkSpec,
    MobilitySpec,
    ScenarioSpec,
)
from repro.eval.experiments.mobility_exp import drive_scenario

#: Policy ladder of the experiment, in presentation order.
POLICY_NAMES = ("none", "shed", "offload", "offload+prewarm")

DEFAULT_INTERVALS_S = (1.0, 0.5, 0.25)


def policy_spec(name: str, queue_limit: int = 2,
                prewarm_top_k: int = 12) -> EdgePolicySpec | None:
    """The :class:`EdgePolicySpec` for one ladder rung (None = no policy)."""
    if name == "none":
        return None
    if name == "shed":
        return EdgePolicySpec(admission="shed", queue_limit=queue_limit)
    if name == "offload":
        return EdgePolicySpec(offload="least_loaded",
                              queue_limit=queue_limit, offload_margin=2)
    if name == "offload+prewarm":
        return EdgePolicySpec(offload="least_loaded",
                              queue_limit=queue_limit, offload_margin=2,
                              prewarm_top_k=prewarm_top_k)
    raise KeyError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")


@dataclasses.dataclass(frozen=True)
class OverloadRow:
    """One (policy, offered load) cell of the sweep."""

    policy: str
    interval_s: float
    offered_rps: float
    requests: int
    served: int
    shed: int
    shed_rate: float
    offloaded: int
    offload_rate: float
    handoffs: int
    prewarm_pushed: int
    hit_ratio: float
    mean_ms: float
    p95_ms: float
    p99_ms: float
    hot_edge: str
    hot_share: float


def build_rush_hour(seed: int = 0, policy: EdgePolicySpec | None = None,
                    n_edges: int = 4, hot_clients: int = 8,
                    cold_clients: int = 1, extent_m: float = 1000.0,
                    mean_dwell_s: float = 20.0, duration_s: float = 120.0,
                    hot_bias: float = 10.0,
                    config: CoICConfig | None = None) -> ClusterDeployment:
    """A metro grid with a gravity hotspot and a crowded starting cell.

    ``hot_clients`` users start attached to ``edge0``; everyone's
    waypoint selection is biased so the first two places carry
    ``hot_bias`` times the weight of the rest — one cell runs hot while
    its neighbours idle, which is the regime the overload policies
    exist for.  Edges are isolated (no federation) so the measured
    differences come from the overload layer alone.
    """
    if config is None:
        config = CoICConfig(seed=seed)
        config.network.wifi_mbps = 100
        # A fat-enough backhaul that the cloud path is not the choke
        # point: what saturates at rush hour is the hot edge's *compute*
        # (every recognition needs an extraction slot), which is the
        # resource admission control gates.
        config.network.backhaul_mbps = 100
        config.edge_workers = 2
    side = 1
    while side * side < n_edges:
        side += 1
    cell = extent_m / side
    edges = []
    for k in range(n_edges):
        row, col = divmod(k, side)
        n_here = hot_clients if k == 0 else cold_clients
        clients = tuple(ClientSpec(name=f"mobile{k}_{i}")
                        for i in range(n_here))
        edges.append(EdgeSpec(name=f"edge{k}", clients=clients,
                              x=(col + 0.5) * cell, y=(row + 0.5) * cell))
    names = [e.name for e in edges]
    inter = tuple(InterEdgeLinkSpec(a=a, b=b)
                  for i, a in enumerate(names) for b in names[i + 1:])
    n_places = 3 * n_edges
    bias = tuple(hot_bias if i < 2 else 1.0 for i in range(n_places))
    mobility = MobilitySpec(n_places=n_places, objects_per_place=4,
                            extent_m=extent_m, mean_dwell_s=mean_dwell_s,
                            duration_s=duration_s, bias=bias)
    spec = ScenarioSpec(edges=tuple(edges), inter_edge=inter,
                        federate=False, mobility=mobility, policy=policy)
    return ClusterDeployment(spec, config=config)


def _summarize(deployment: ClusterDeployment, policy: str,
               interval_s: float) -> OverloadRow:
    recorder = deployment.recorder
    records = recorder.select(task_kind="recognition")
    served = [r for r in records if r.outcome in (OUTCOME_HIT, OUTCOME_MISS)]
    shed = len(recorder.select(task_kind="recognition",
                               outcome=OUTCOME_SHED))
    summary = LatencySummary.of([r.latency_s for r in served])
    offloaded = deployment.counts()["offloaded_out"]
    per_edge: dict[str, int] = {}
    for record in served:
        per_edge[record.edge] = per_edge.get(record.edge, 0) + 1
    hot_edge, hot_count = "", 0
    for name, count in sorted(per_edge.items()):
        if count > hot_count:
            hot_edge, hot_count = name, count
    n_clients = len(deployment.all_clients)
    return OverloadRow(
        policy=policy, interval_s=interval_s,
        offered_rps=n_clients / interval_s,
        requests=len(records), served=len(served), shed=shed,
        shed_rate=shed / len(records) if records else 0.0,
        offloaded=offloaded,
        offload_rate=offloaded / len(records) if records else 0.0,
        handoffs=len(deployment.handoff_log),
        prewarm_pushed=sum(p.pushed for p in deployment.prewarm_log),
        hit_ratio=recorder.hit_ratio(task_kind="recognition"),
        mean_ms=summary.mean * 1e3, p95_ms=summary.p95 * 1e3,
        p99_ms=summary.p99 * 1e3,
        hot_edge=hot_edge,
        hot_share=hot_count / len(served) if served else 0.0)


def run_overload(intervals_s: typing.Sequence[float] = DEFAULT_INTERVALS_S,
                 policies: typing.Sequence[str] = POLICY_NAMES,
                 n_edges: int = 4, hot_clients: int = 8,
                 cold_clients: int = 1, duration_s: float = 120.0,
                 mean_dwell_s: float = 20.0, queue_limit: int = 2,
                 prewarm_top_k: int = 12,
                 seed: int = 0) -> list[OverloadRow]:
    """Sweep (policy, offered load) over the rush-hour scenario.

    Rows are ordered interval-major, policy-minor; offered load is
    ``clients / interval`` requests per second (closed loop).
    """
    rows = []
    for interval_s in intervals_s:
        for name in policies:
            deployment = build_rush_hour(
                seed=seed,
                policy=policy_spec(name, queue_limit=queue_limit,
                                   prewarm_top_k=prewarm_top_k),
                n_edges=n_edges, hot_clients=hot_clients,
                cold_clients=cold_clients, mean_dwell_s=mean_dwell_s,
                duration_s=duration_s)
            drive_scenario(deployment, duration_s,
                           request_interval_s=interval_s)
            rows.append(_summarize(deployment, name, interval_s))
    return rows
