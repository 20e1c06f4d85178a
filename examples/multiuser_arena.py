#!/usr/bin/env python3
"""Pokemon-style shared arena: cooperative 3D model loading.

Section 1.2: "two Pokemon Go players require rendering the same 3D avatar
when they are interacting through Pokemon application in the same place."
Eight players join an arena over a few minutes.  Every player must load
the shared scene (arena props + popular avatars); each also loads a
personal skin nobody else uses.  The script streams the joins through a
CoIC deployment and reports, per player, how much of their load burst the
edge had already done for them — and what the frame rate looks like once
everything is resident, using real procedural meshes.

Run:  python examples/multiuser_arena.py
"""

import numpy as np

from repro.core import ClusterDeployment, CoICConfig, ScenarioSpec
from repro.eval import format_table
from repro.render import Renderer, generate_mesh
from repro.render.renderer import MOBILE_RENDER_2018
from repro.sim.rng import RngStreams
from repro.vision.image import RESOLUTIONS
from repro.workload import ArenaTraceGenerator

N_PLAYERS = 8
N_SHARED = 6      # arena props + popular avatars
N_PERSONAL = 2    # per-player skins


def main() -> None:
    rng = RngStreams(7)

    # Catalog: shared models first, then each player's personal ones.
    shared_sizes = [int(s) for s in
                    rng.stream("sizes").uniform(800, 4000, N_SHARED)]
    personal_sizes = [int(s) for s in
                     rng.stream("sizes").uniform(300, 900,
                                                 N_PLAYERS * N_PERSONAL)]
    config = CoICConfig()
    config.network.wifi_mbps = 200
    config.network.backhaul_mbps = 20
    config.rendering.catalog_sizes_kb = tuple(shared_sizes + personal_sizes)
    deployment = ClusterDeployment(
        ScenarioSpec.single_edge(N_PLAYERS), config=config)

    generator = ArenaTraceGenerator(
        n_shared_models=N_SHARED, n_personal_models=N_PERSONAL,
        rng=rng.stream("arena"), mean_interarrival_s=15.0,
        load_spacing_s=1.0)
    names = [c.name for c in deployment.all_clients]
    trace = generator.generate(N_PLAYERS, user_names=names)

    clients = {c.name: c for c in deployment.all_clients}
    plan = [(req.time_s, clients[req.user],
             deployment.model_load_task(req.model_id)) for req in trace]
    deployment.run_concurrent(plan)
    deployment.env.run()  # drain background parses

    rows = []
    for name in names:
        records = deployment.recorder.select(task_kind="model_load",
                                             user=name)
        hits = sum(1 for r in records if r.outcome == "hit")
        total_ms = sum(r.latency_s for r in records) * 1e3
        rows.append([name, len(records), hits,
                     f"{total_ms:.0f}"])
    print(format_table(["player", "loads", "cache hits", "total load ms"],
                       rows, title="Arena join bursts (in join order)"))
    print(f"\noverall hit ratio: "
          f"{deployment.recorder.hit_ratio('model_load'):.2f} "
          f"(shared scene = {N_SHARED}/{N_SHARED + N_PERSONAL} of each burst)")

    # Once resident, what does drawing the arena cost?  Use real meshes.
    meshes = [generate_mesh(model_id, kb, seed=7)
              for model_id, kb in enumerate(shared_sizes)]
    renderer = Renderer(MOBILE_RENDER_2018)
    pixels = RESOLUTIONS["1440p"].pixels
    fps = renderer.fps(meshes, pixels)
    triangles = sum(m.n_triangles for m in meshes)
    print(f"steady-state draw: {triangles} triangles at 1440p -> "
          f"{fps:.0f} fps on a 2018 mobile GPU")


if __name__ == "__main__":
    main()
