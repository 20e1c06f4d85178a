"""A2 — cooperative benefit vs number of co-located users.

The whole premise of CoIC is *cooperation*: one user's miss is the next
user's hit.  This experiment puts N users in the same place looking at
the same object pool and measures how the hit ratio and mean latency move
as N grows — the poster's "especially when applications/users are in the
close location" quantified.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.scenario import ScenarioSpec
from repro.sim.rng import RngStreams
from repro.workload.zipf import ZipfSampler

DEFAULT_USER_COUNTS = (1, 2, 4, 8, 16)


@dataclasses.dataclass(frozen=True)
class SharingRow:
    """One population size."""

    n_users: int
    hit_ratio: float
    mean_ms: float
    p95_ms: float
    origin_mean_ms: float

    @property
    def reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.mean_ms / self.origin_mean_ms)


def run_sharing(user_counts: typing.Sequence[int] = DEFAULT_USER_COUNTS,
                requests_per_user: int = 12, n_objects: int = 12,
                attention_alpha: float = 0.8,
                aggregate_rate_hz: float = 0.8,
                seed: int = 0) -> list[SharingRow]:
    """Sweep co-located population size over one shared object pool.

    The *aggregate* request rate is held constant across population
    sizes (more users each asking proportionally less), so the sweep
    isolates the cooperation effect from load effects.
    """
    rows = []
    for n_users in user_counts:
        rng = RngStreams(seed).fork(n_users)
        attention = ZipfSampler(n_objects, attention_alpha,
                                rng.stream("attention"))
        viewpoint_rng = rng.stream("viewpoints")

        # The shared scene: everyone samples the same objects, each from
        # their own angle.  Constant aggregate rate across sweeps.
        gap = 1.0 / aggregate_rate_hz
        schedule = []  # (time, user_index, object_class, viewpoint)
        views = [float(viewpoint_rng.normal(0.0, 0.3))
                 for _ in range(n_users)]
        for k in range(requests_per_user * n_users):
            u = k % n_users
            schedule.append((k * gap, u, attention.sample(),
                             views[u]
                             + float(viewpoint_rng.normal(0.0, 0.05))))

        config = CoICConfig(seed=seed)
        # Constrained access/backhaul: the regime where cooperation pays.
        config.network.wifi_mbps = 100
        config.network.backhaul_mbps = 10
        config.recognition.speculative_forward = False
        deployment = ClusterDeployment(
            ScenarioSpec.single_edge(n_users), config=config)
        plan = [(when, deployment.all_clients[u],
                 deployment.recognition_task(obj, viewpoint=view))
                for when, u, obj, view in schedule]
        deployment.run_concurrent(plan)
        summary = deployment.recorder.summary(task_kind="recognition")
        hit_ratio = deployment.recorder.hit_ratio("recognition")

        # Same offered load through the Origin baseline, fresh deployment.
        origin_dep = ClusterDeployment(
            ScenarioSpec.single_edge(n_users), config=config)
        origin_plan = [(when, origin_dep.origin_clients[u],
                        origin_dep.recognition_task(obj, viewpoint=view))
                       for when, u, obj, view in schedule]
        origin_dep.run_concurrent(origin_plan)
        origin_summary = origin_dep.recorder.summary(
            task_kind="recognition", outcome="origin")

        rows.append(SharingRow(
            n_users=n_users, hit_ratio=hit_ratio,
            mean_ms=summary.mean * 1e3, p95_ms=summary.p95 * 1e3,
            origin_mean_ms=origin_summary.mean * 1e3))
    return rows
