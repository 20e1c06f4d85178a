"""A10 — mobile multi-edge metro: handoff rate vs federation policy.

The paper's cooperative framework ultimately serves *moving* users: a
player walks from one cell to the next and their requests follow them to
a new edge whose cache has never seen them.  This experiment drives a
4-edge metro grid with random-waypoint users and closed-loop recognition
traffic, sweeping the WiFi handoff dead time and the federation switch:

* isolated edges re-learn every user after every handoff — the hit
  ratio pays for mobility;
* federated edges answer the new edge's misses from the previous edge's
  cache over the metro link, so content follows the user;
* handoff dead time stalls the requests issued mid-migration, trading
  attachment optimality against request latency.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.scenario import MobilitySpec, ScenarioSpec

DEFAULT_HANDOFF_LATENCIES_MS = (0.0, 50.0, 250.0)


@dataclasses.dataclass(frozen=True)
class MobilityRow:
    """One (federation policy, handoff latency) setting."""

    federate: bool
    handoff_latency_ms: float
    requests: int
    handoffs: int
    min_handoffs_per_client: int
    hit_ratio: float
    mean_ms: float
    p95_ms: float
    peer_hit_ratio: float


def build_metro(seed: int = 0, federate: bool = True,
                handoff_latency_ms: float = 50.0, n_edges: int = 4,
                clients_per_edge: int = 2, mean_dwell_s: float = 15.0,
                duration_s: float = 180.0,
                config: CoICConfig | None = None) -> ClusterDeployment:
    """A 4-edge (by default) metro grid with moving users."""
    if config is None:
        config = CoICConfig(seed=seed)
        config.network.wifi_mbps = 100
        config.network.backhaul_mbps = 10
    mobility = MobilitySpec(
        n_places=4 * n_edges, objects_per_place=4,
        mean_dwell_s=mean_dwell_s, duration_s=duration_s,
        handoff_latency_s=handoff_latency_ms / 1e3)
    spec = ScenarioSpec.metro(
        n_edges=n_edges, clients_per_edge=clients_per_edge,
        federate=federate, mobility=mobility)
    return ClusterDeployment(spec, config=config)


def drive_scenario(deployment: ClusterDeployment,
                   duration_s: float | None = None,
                   request_interval_s: float = 2.0) -> None:
    """Run a scenario end-to-end: mobility replay + closed-loop traffic.

    Starts the deployment's mobility driver (when the scenario has one)
    and one request loop per client: each client repeatedly recognizes
    an object visible at its current place (or a uniformly random class
    for immobile scenarios), waits ``request_interval_s``, and repeats
    until ``duration_s`` of simulated time has elapsed.
    """
    if duration_s is None:
        duration_s = (deployment.spec.mobility.duration_s
                      if deployment.spec.mobility is not None else 60.0)
    if deployment.spec.mobility is not None and not deployment.itineraries:
        deployment.start_mobility(duration_s)
    for client in deployment.all_clients:
        rng = deployment.rng.stream(f"workload.mobile.{client.name}")
        deployment.env.process(
            _request_loop(deployment, client, request_interval_s, rng))
    deployment.run_for(duration_s)


def _request_loop(deployment: ClusterDeployment, client,
                  interval_s: float, rng):
    n_classes = deployment.config.recognition.n_classes
    seq = 0
    while True:
        if deployment.world is not None:
            classes = deployment.visible_classes(client)
            object_class = int(classes[rng.integers(len(classes))])
        else:
            object_class = int(rng.integers(n_classes))
        viewpoint = float(rng.uniform(-0.5, 0.5))
        task = deployment.recognition_task(
            object_class, viewpoint=viewpoint, user=client.name, seq=seq)
        seq += 1
        yield deployment.env.process(client.perform(task))
        yield interval_s


def _summarize(deployment: ClusterDeployment, federate: bool,
               handoff_latency_ms: float) -> MobilityRow:
    recorder = deployment.recorder
    summary = recorder.summary(task_kind="recognition")
    per_client = {name: 0 for name in deployment.client_names}
    for event in deployment.handoff_log:
        per_client[event.client] += 1
    counts = deployment.counts()
    peer_hits = counts["peer_hits"]
    probes = peer_hits + counts["peer_misses"]
    return MobilityRow(
        federate=federate, handoff_latency_ms=handoff_latency_ms,
        requests=summary.n, handoffs=len(deployment.handoff_log),
        min_handoffs_per_client=min(per_client.values()),
        hit_ratio=recorder.hit_ratio(task_kind="recognition"),
        mean_ms=summary.mean * 1e3, p95_ms=summary.p95 * 1e3,
        peer_hit_ratio=(peer_hits / probes) if probes else 0.0)


def run_mobility(handoff_latencies_ms: typing.Sequence[float]
                 = DEFAULT_HANDOFF_LATENCIES_MS,
                 n_edges: int = 4, clients_per_edge: int = 2,
                 duration_s: float = 180.0, mean_dwell_s: float = 15.0,
                 request_interval_s: float = 2.0,
                 seed: int = 0) -> list[MobilityRow]:
    """Sweep (federate, handoff latency) over the mobile metro scenario."""
    rows = []
    for federate in (False, True):
        for latency_ms in handoff_latencies_ms:
            deployment = build_metro(
                seed=seed, federate=federate,
                handoff_latency_ms=latency_ms, n_edges=n_edges,
                clients_per_edge=clients_per_edge,
                mean_dwell_s=mean_dwell_s, duration_s=duration_s)
            drive_scenario(deployment, duration_s,
                           request_interval_s=request_interval_s)
            rows.append(_summarize(deployment, federate, latency_ms))
    return rows
