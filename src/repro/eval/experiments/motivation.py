"""M1 — the paper's motivating measurement (§1.2), synthesized.

The authors analyzed "more than 30 popular mobile VR/AR applications"
and derived three insights: recognition inputs, 3D models and
panoramas repeat across co-located apps and users.  2018 app stores
cannot be re-crawled, so this experiment generates each task family's
offered workload over a shared world and measures the quantity the
paper argues from: the share of requests that repeat an earlier one.
That share is an upper bound on the hit ratio any cache could reach.
"""

from __future__ import annotations

import dataclasses

from repro.render.panorama import PanoramaGrid
from repro.sim.rng import RngStreams
from repro.workload import (
    ArTraceGenerator,
    ArenaTraceGenerator,
    RandomWaypointUser,
    VrTraceGenerator,
    World,
    redundancy_report,
)


@dataclasses.dataclass(frozen=True)
class MotivationRow:
    """Offered-workload redundancy of one task family."""

    family: str
    requests: int
    distinct: int
    redundancy: float


def run_motivation(seed: int = 0) -> list[MotivationRow]:
    """Measure redundancy for recognition, 3D model loads and panoramas."""
    rng = RngStreams(seed)

    # Recognition (the stop-sign insight): users of vision apps moving
    # through one shared world.
    world = World(n_places=6, n_classes=200, objects_per_place=8,
                  rng=rng.stream("world"), popularity_alpha=1.0)
    users = [RandomWaypointUser(f"u{i}", world, rng.stream(f"mob{i}"))
             for i in range(12)]
    ar = ArTraceGenerator(world, users, rng.stream("ar"),
                          request_rate_hz=0.3).generate(600.0)
    ar_stats = redundancy_report(
        ar, key_fn=lambda r: r.object_class,
        window_s=300.0, time_fn=lambda r: r.time_s)

    # 3D models (the Pokemon insight): arena sessions with shared scenes
    # plus personal skins.
    arena = ArenaTraceGenerator(n_shared_models=8, n_personal_models=3,
                                rng=rng.stream("arena")).generate(10)
    arena_stats = redundancy_report(arena, key_fn=lambda r: r.model_id)

    # Panoramas (the cloud-VR insight): co-watching a popular stream.
    vr = VrTraceGenerator(n_contents=3, rng=rng.stream("vr"),
                          content_alpha=1.5, grid=PanoramaGrid(1, 1),
                          mean_join_gap_s=4.0,
                          session_segments=40).generate(8)
    vr_stats = redundancy_report(
        vr, key_fn=lambda r: (r.content_id, r.segment, r.pose_cell))

    return [MotivationRow(family=family, requests=stats.total,
                          distinct=stats.distinct_keys,
                          redundancy=stats.ratio)
            for family, stats in (("recognition", ar_stats),
                                  ("model_load", arena_stats),
                                  ("panorama", vr_stats))]
