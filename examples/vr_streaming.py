#!/usr/bin/env python3
"""Cloud VR streaming: panorama reuse across co-watching viewers.

Section 1.2's third insight: cloud VR sends panoramic frames that the
client crops to its viewport (FlashBack / Furion style), and "multiple
users playing the same VR applications or watching the same VR video
might use the same panorama."  Six viewers join a live 360 stream within
seconds of each other.  The script compares CoIC against per-viewer
Origin streaming, then shows what finer pose grids (position-tracked
content) do to the sharing.

Run:  python examples/vr_streaming.py
"""

from repro.core import ClusterDeployment, CoICConfig, ScenarioSpec
from repro.eval import format_table
from repro.render.panorama import PanoramaGrid
from repro.sim.rng import RngStreams
from repro.workload import VrTraceGenerator

N_VIEWERS = 6
SEGMENTS = 15


def run_session(grid: PanoramaGrid, origin: bool = False):
    """One viewing session; returns (mean ms, hit ratio, backhaul MB)."""
    config = CoICConfig()
    config.vr.yaw_cells = grid.yaw_cells
    config.vr.pitch_cells = grid.pitch_cells
    deployment = ClusterDeployment(
        ScenarioSpec.single_edge(N_VIEWERS), config=config)

    generator = VrTraceGenerator(
        n_contents=1, rng=RngStreams(3).stream("vr"), segment_rate_hz=1.0,
        grid=grid, mean_join_gap_s=1.5, session_segments=SEGMENTS)
    names = [c.name for c in deployment.all_clients]
    trace = generator.generate(N_VIEWERS, user_names=names)

    pool = (deployment.origin_clients if origin else deployment.all_clients)
    by_name = {c.name: c for c in pool}
    plan = [(req.time_s, by_name[req.user],
             deployment.panorama_task(req.content_id, req.segment,
                                      req.pose_cell)) for req in trace]
    deployment.run_concurrent(plan)

    mean_ms = deployment.recorder.summary(task_kind="panorama").mean * 1e3
    hit_ratio = deployment.recorder.hit_ratio("panorama")
    _, downlink = deployment.backhaul["edge"]
    backhaul_mb = downlink.stats.bytes_sent / 1e6
    return mean_ms, hit_ratio, backhaul_mb


def main() -> None:
    full_sphere = PanoramaGrid(yaw_cells=1, pitch_cells=1)

    origin_ms, _, origin_mb = run_session(full_sphere, origin=True)
    coic_ms, hit_ratio, coic_mb = run_session(full_sphere)
    rows = [
        ["Origin (per-viewer cloud)", f"{origin_ms:.0f}", "-",
         f"{origin_mb:.0f}"],
        ["CoIC edge cache", f"{coic_ms:.0f}", f"{hit_ratio:.2f}",
         f"{coic_mb:.0f}"],
    ]
    print(format_table(
        ["delivery", "mean latency (ms)", "hit ratio", "backhaul MB"],
        rows, title=f"{N_VIEWERS} viewers x {SEGMENTS} segments, 4K panoramas"))
    print(f"\nlatency reduction: {100 * (1 - coic_ms / origin_ms):.0f}%  "
          f"backhaul saving: {100 * (1 - coic_mb / origin_mb):.0f}%")

    # Position-tracked content fragments the panorama space.
    print("\npose-grid sensitivity (finer grids = less sharing):")
    rows = []
    for yaw_cells in (1, 4, 8):
        grid = PanoramaGrid(yaw_cells=yaw_cells, pitch_cells=1)
        mean_ms, hit, mb = run_session(grid)
        rows.append([f"{yaw_cells}x1", f"{hit:.2f}", f"{mean_ms:.0f}",
                     f"{mb:.0f}"])
    print(format_table(["grid", "hit ratio", "mean ms", "backhaul MB"],
                       rows))


if __name__ == "__main__":
    main()
