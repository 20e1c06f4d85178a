#!/usr/bin/env python3
"""The paper's demo app: AR annotations at a crossroads.

Section 3: "we implement an AR application upon CoIC, which renders
high-quality 3D annotations to label objects recognized in the camera
view."  Two safe-driving users approach the same crossroads; each must

1. recognize the stop sign / landmarks in view (DNN recognition), then
2. load the 3D annotation model for each recognized object (model load),

and the second driver rides the first driver's cached work for both
steps.  The script prints each user's pipeline with per-stage outcomes
and the end-to-end speedup.

Run:  python examples/ar_annotation.py
"""

from repro.core import ClusterDeployment, CoICConfig, ScenarioSpec
from repro.eval import format_table
from repro.workload import World
from repro.sim.rng import RngStreams


def drive_through(deployment, client, objects, annotation_for):
    """One driver's pass: recognize each object, then load its annotation."""
    stages = []
    for seq, (object_class, viewpoint) in enumerate(objects):
        task = deployment.recognition_task(object_class,
                                           viewpoint=viewpoint,
                                           user=client.name, seq=seq)
        record = deployment.run_tasks(client, [task])[0]
        stages.append(("recognize", object_class, record))

        load = deployment.model_load_task(annotation_for[object_class])
        record = deployment.run_tasks(client, [load])[0]
        stages.append(("load annotation", object_class, record))
        # Let the edge finish parsing so followers get loaded-form hits.
        deployment.env.run()
    return stages


def main() -> None:
    config = CoICConfig()
    config.network.wifi_mbps = 100
    config.network.backhaul_mbps = 10
    config.recognition.speculative_forward = True
    # Annotation models: one small & one detailed.
    config.rendering.catalog_sizes_kb = (512, 3072)
    deployment = ClusterDeployment(ScenarioSpec.single_edge(2), config=config)

    # The crossroads: a stop sign and a shop facade, both annotated.
    world = World(n_places=1, n_classes=config.recognition.n_classes,
                  objects_per_place=2,
                  rng=RngStreams(0).stream("crossroads"))
    sign, facade = world.place(0).object_classes
    annotation_for = {sign: 0, facade: 1}

    print("Driver A approaches the crossroads (cold edge cache)...")
    first = drive_through(deployment, deployment.all_clients[0],
                          [(sign, -0.4), (facade, -0.2)], annotation_for)
    print("Driver B approaches the same crossroads (warm cache)...")
    second = drive_through(deployment, deployment.all_clients[1],
                           [(sign, +0.4), (facade, +0.3)], annotation_for)

    rows = []
    for who, stages in (("A", first), ("B", second)):
        for stage, object_class, record in stages:
            rows.append([who, stage, object_class, record.outcome,
                         f"{record.latency_s * 1e3:.0f}"])
    print(format_table(
        ["driver", "stage", "object", "outcome", "ms"], rows,
        title="AR annotation pipeline"))

    total_a = sum(r.latency_s for _, _, r in first)
    total_b = sum(r.latency_s for _, _, r in second)
    print(f"\ndriver A end-to-end: {total_a * 1e3:.0f} ms (populates cache)")
    print(f"driver B end-to-end: {total_b * 1e3:.0f} ms "
          f"({100 * (1 - total_b / total_a):.0f}% faster via cooperation)")
    stats = deployment.caches[0].stats
    print(f"edge cache: {stats.hits} hits / {stats.lookups} lookups")


if __name__ == "__main__":
    main()
