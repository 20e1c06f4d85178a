"""A1 — similarity threshold vs hit ratio and accuracy.

CoIC "determines that the computation result is already in the cache" when
descriptor distance falls under a threshold.  The threshold is the
knob trading reuse against correctness: too tight and co-located users
never share (hit ratio ~ 0); too loose and *different* objects match
(false hits — the cache returns the wrong label).  This sweep drives a
multi-user AR trace through deployments differing only in threshold and
reports both sides of the trade.

A deliberately small descriptor (16-d) and a wide viewpoint scale are
used so the two failure regimes are reachable within one sweep: with the
default 128-d space, cross-class distances concentrate near 1.0 and
same-class distances near 0.01, and every threshold in between behaves
identically.  At 16-d the nearest foreign class sits around 0.2-0.4 while
same-object-different-angle pairs spread over 0.01-0.3 — so tight
thresholds visibly lose hits and loose ones visibly lose accuracy.  The
network is the constrained (100, 10) Mbps pair, where hits matter.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.scenario import ScenarioSpec
from repro.workload.ar_trace import ArTraceGenerator
from repro.workload.mobility import RandomWaypointUser, World
from repro.sim.rng import RngStreams

DEFAULT_THRESHOLDS = (0.005, 0.02, 0.05, 0.10, 0.20, 0.40, 0.70)


@dataclasses.dataclass(frozen=True)
class ThresholdRow:
    """One threshold setting."""

    threshold: float
    hit_ratio: float
    accuracy: float
    mean_latency_ms: float
    requests: int


def _build_trace(seed: int, n_users: int, duration_s: float,
                 n_classes: int):
    """A co-location-heavy AR trace shared by all sweep points."""
    rng = RngStreams(seed)
    world = World(n_places=3, n_classes=n_classes, objects_per_place=8,
                  rng=rng.stream("world"), popularity_alpha=0.9)
    users = [RandomWaypointUser(f"mobile{i}", world,
                                rng.stream(f"user{i}"), mean_dwell_s=45.0)
             for i in range(n_users)]
    # Rate kept below the constrained backhaul's service capacity so the
    # sweep measures matching behaviour, not queueing collapse.
    generator = ArTraceGenerator(world, users, rng.stream("trace"),
                                 request_rate_hz=0.15)
    return generator.generate(duration_s)


def run_threshold_sweep(
        thresholds: typing.Sequence[float] = DEFAULT_THRESHOLDS,
        n_users: int = 8, duration_s: float = 120.0, seed: int = 0,
        descriptor_dim: int = 16, n_classes: int = 300,
        viewpoint_scale: float = 0.5) -> list[ThresholdRow]:
    """Sweep the match threshold over one fixed trace."""
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    trace = _build_trace(seed, n_users, duration_s, n_classes)
    rows = []
    for threshold in thresholds:
        config = CoICConfig(seed=seed)
        config.network.wifi_mbps = 100
        config.network.backhaul_mbps = 10
        config.recognition.descriptor_dim = descriptor_dim
        config.recognition.n_classes = n_classes
        config.recognition.viewpoint_scale = viewpoint_scale
        config.recognition.threshold = threshold
        # Sequential forwarding: speculation would push every frame over
        # the 10 Mbps backhaul regardless of outcome and the sweep would
        # measure congestion instead of the threshold.
        config.recognition.speculative_forward = False
        deployment = ClusterDeployment(
            ScenarioSpec.single_edge(n_users), config=config)
        client_by_name = {c.name: c for c in deployment.all_clients}

        plan = [(req.time_s, client_by_name[req.user],
                 deployment.recognition_task(req.object_class,
                                             viewpoint=req.viewpoint,
                                             user=req.user))
                for req in trace]
        deployment.run_concurrent(plan)

        recorder = deployment.recorder
        rows.append(ThresholdRow(
            threshold=threshold,
            hit_ratio=recorder.hit_ratio("recognition"),
            accuracy=recorder.accuracy("recognition"),
            mean_latency_ms=recorder.summary(
                task_kind="recognition").mean * 1e3,
            requests=len(trace)))
    return rows
