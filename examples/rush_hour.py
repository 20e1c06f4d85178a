#!/usr/bin/env python3
"""Rush hour at the stadium cell: what an overloaded edge should do.

Four edge sites cover a metro grid, but tonight the crowd is not
spread out: most users start in one cell and the waypoint gravity pulls
everyone toward the same two hotspots.  The hot edge's worker pool
saturates while its neighbours idle — the exact regime the request
pipeline's overload layer exists for.

The demo runs the same rush hour four times up the policy ladder:

* none             — queue everything (the paper's edge);
* shed             — admission control refuses work past the backlog
                     threshold;
* offload          — excess recognition work is forwarded to the
                     least-loaded neighbouring edge over the backhaul;
* offload+prewarm  — offload, plus each edge pushes its hottest cache
                     entries to the next edge ahead of every handoff.

Expected output: a policy-ladder table in which shed and the offload
policies cut p99 recognition latency well below the accept-everything
edge (offload also serving more requests), a per-edge breakdown showing
where the work landed, and the first pre-warm push of the run.

Run:  python examples/rush_hour.py
"""

import os

from repro.eval.experiments.overload_exp import (
    POLICY_NAMES,
    build_rush_hour,
    policy_spec,
)
from repro.eval.experiments.mobility_exp import drive_scenario
from repro.eval import format_table

DURATION_S = float(os.environ.get("REPRO_EXAMPLE_DURATION", "120"))
INTERVAL_S = 0.25
HOT_CLIENTS = 8


def run(policy_name: str):
    deployment = build_rush_hour(
        seed=0, policy=policy_spec(policy_name),
        hot_clients=HOT_CLIENTS, duration_s=DURATION_S)
    drive_scenario(deployment, DURATION_S, request_interval_s=INTERVAL_S)
    return deployment


def main() -> None:
    rows = []
    deployments = {}
    for name in POLICY_NAMES:
        dep = run(name)
        deployments[name] = dep
        recorder = dep.recorder
        records = recorder.select(task_kind="recognition")
        served = [r for r in records if r.outcome in ("hit", "miss")]
        shed = sum(1 for r in records if r.outcome == "shed")
        latencies = sorted(r.latency_s for r in served)
        p99 = latencies[int(0.99 * (len(latencies) - 1))] * 1e3
        rows.append([name, str(len(served)), str(shed),
                     str(dep.counts()["offloaded_out"]),
                     str(sum(p.pushed for p in dep.prewarm_log)),
                     f"{recorder.hit_ratio('recognition'):.3f}",
                     f"{p99:.0f}"])
    print(format_table(
        ["policy", "served", "shed", "offloaded", "prewarmed",
         "hit ratio", "p99 ms"],
        rows, title=f"rush hour: {HOT_CLIENTS} users in one cell, "
                    f"{1 / INTERVAL_S:.0f} req/s each, {DURATION_S:.0f} s"))

    # Where did the work actually land?  The serving-edge tag on every
    # record answers that even for offloaded and post-handoff requests.
    print("\nper-edge share of served recognition requests:")
    for name in ("none", "offload+prewarm"):
        dep = deployments[name]
        served = [r for r in dep.recorder.select(task_kind="recognition")
                  if r.outcome in ("hit", "miss")]
        counts = {}
        for record in served:
            counts[record.edge] = counts.get(record.edge, 0) + 1
        share = ", ".join(f"{edge}={counts.get(edge, 0) / len(served):.2f}"
                          for edge in dep.edge_names)
        print(f"  {name:16s} {share}")

    dep = deployments["offload+prewarm"]
    if dep.prewarm_log:
        first = dep.prewarm_log[0]
        print(f"\nfirst pre-warm: {first.pushed} hot entries pushed "
              f"{first.src_edge}->{first.dst_edge} at t={first.time_s:.1f}s, "
              f"ahead of {first.client}'s handoff")
    print("an overloaded edge that sheds protects its own tail; one that "
          "borrows an idle neighbour protects the tail *and* the work.")


if __name__ == "__main__":
    main()
