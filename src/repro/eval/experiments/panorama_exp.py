"""A6 — VR panorama streaming through the edge cache.

The third §1.2 insight: "multiple users ... watching the same VR video
might use the same panorama."  This experiment streams a shared 360 video
to N concurrent viewers through CoIC and through the Origin baseline, and
reports hit ratio, delivered latency, and backhaul traffic — panoramas
are megabytes each, so the backhaul saving is the operator-side benefit.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.scenario import ScenarioSpec
from repro.render.panorama import PanoramaGrid
from repro.sim.rng import RngStreams
from repro.workload.vr_trace import VrTraceGenerator

DEFAULT_VIEWER_COUNTS = (1, 2, 4, 8)


@dataclasses.dataclass(frozen=True)
class PanoramaRow:
    """One viewer-population size."""

    n_viewers: int
    hit_ratio: float
    mean_ms: float
    origin_mean_ms: float
    backhaul_mb: float
    origin_backhaul_mb: float

    @property
    def reduction_pct(self) -> float:
        return 100.0 * (1.0 - self.mean_ms / self.origin_mean_ms)

    @property
    def backhaul_saving_pct(self) -> float:
        if self.origin_backhaul_mb <= 0:
            return 0.0
        return 100.0 * (1.0 - self.backhaul_mb / self.origin_backhaul_mb)


def _trace(seed: int, n_viewers: int, segments: int):
    rng = RngStreams(seed).fork(n_viewers)
    # One popular live stream, viewers joining within a couple of seconds
    # of each other (a live event), full-sphere panoramas: the maximal
    # sharing scenario the paper's insight describes.
    generator = VrTraceGenerator(
        n_contents=1, rng=rng.stream("vr"), segment_rate_hz=1.0,
        grid=PanoramaGrid(yaw_cells=1, pitch_cells=1),
        mean_join_gap_s=1.0, session_segments=segments)
    names = [f"mobile{i}" for i in range(n_viewers)]
    return generator.generate(n_viewers, user_names=names)


def run_panorama(viewer_counts: typing.Sequence[int] = DEFAULT_VIEWER_COUNTS,
                 segments: int = 15, seed: int = 0) -> list[PanoramaRow]:
    """Sweep concurrent viewer population for one shared video."""
    rows = []
    for n_viewers in viewer_counts:
        trace = _trace(seed, n_viewers, segments)
        config = CoICConfig(seed=seed)

        deployment = ClusterDeployment(
            ScenarioSpec.single_edge(n_viewers), config=config)
        clients = {c.name: c for c in deployment.all_clients}
        plan = [(req.time_s, clients[req.user],
                 deployment.panorama_task(req.content_id, req.segment,
                                          req.pose_cell))
                for req in trace]
        deployment.run_concurrent(plan)
        coic_mean = deployment.recorder.summary(task_kind="panorama").mean
        hit_ratio = deployment.recorder.hit_ratio("panorama")
        _, downlink = deployment.backhaul["edge"]
        backhaul_mb = downlink.stats.bytes_sent / 1e6

        origin_dep = ClusterDeployment(
            ScenarioSpec.single_edge(n_viewers), config=config)
        origin_clients = {c.name: c for c in origin_dep.origin_clients}
        origin_plan = [(req.time_s, origin_clients[req.user],
                        origin_dep.panorama_task(req.content_id,
                                                 req.segment,
                                                 req.pose_cell))
                       for req in trace]
        origin_dep.run_concurrent(origin_plan)
        origin_mean = origin_dep.recorder.summary(
            task_kind="panorama").mean
        _, downlink = origin_dep.backhaul["edge"]
        origin_backhaul_mb = downlink.stats.bytes_sent / 1e6

        rows.append(PanoramaRow(
            n_viewers=n_viewers, hit_ratio=hit_ratio,
            mean_ms=coic_mean * 1e3, origin_mean_ms=origin_mean * 1e3,
            backhaul_mb=backhaul_mb,
            origin_backhaul_mb=origin_backhaul_mb))
    return rows
