#!/usr/bin/env python3
"""A city on the move: four edges, wandering users, mid-run handoff.

Four edge sites cover a 1 km^2 metro grid; eight AR users wander between
points of interest on random-waypoint itineraries, recognizing landmarks
as they go.  Every time a user crosses a cell boundary the scenario
layer hands their client off to the nearest edge — tearing down and
re-establishing the WiFi link with a configurable dead time while
in-flight requests finish against the old edge.

With isolated edges, every handoff lands the user on a cache that has
never seen them.  With federation, the new edge pulls their content from
the previous one over the metro link — content follows the user.

Expected output: an isolated-vs-federated table where federation lifts
the recognition hit ratio and trims mean latency despite identical
itineraries, followed by per-user handoff counts and the number of
lookups a neighbour edge answered.

Run:  python examples/mobile_city.py
"""

import os
from collections import Counter

from repro.core import CoICConfig
from repro.eval import format_table
from repro.eval.experiments.mobility_exp import build_metro, drive_scenario

DURATION_S = float(os.environ.get("REPRO_EXAMPLE_DURATION", "180"))
HANDOFF_MS = 50.0


def run(federate: bool):
    config = CoICConfig(seed=0)
    config.network.wifi_mbps = 100
    config.network.backhaul_mbps = 10
    deployment = build_metro(federate=federate,
                             handoff_latency_ms=HANDOFF_MS,
                             duration_s=DURATION_S, config=config)
    drive_scenario(deployment, DURATION_S)
    return deployment


def main() -> None:
    rows = []
    deployments = {}
    for federate in (False, True):
        dep = run(federate)
        deployments[federate] = dep
        summary = dep.recorder.summary(task_kind="recognition")
        rows.append([
            "federated" if federate else "isolated",
            str(summary.n), str(len(dep.handoff_log)),
            f"{dep.recorder.hit_ratio():.3f}",
            f"{summary.mean * 1e3:.0f}", f"{summary.p95 * 1e3:.0f}"])
    print(format_table(
        ["edges", "requests", "handoffs", "hit ratio", "mean ms", "p95 ms"],
        rows, title=f"4-edge metro, {HANDOFF_MS:.0f} ms handoffs, "
                    f"{DURATION_S:.0f} s"))

    dep = deployments[True]
    per_client = Counter({name: 0 for name in dep.client_names})
    per_client.update(h.client for h in dep.handoff_log)
    print(f"\nhandoffs per user: min {min(per_client.values())}, "
          f"max {max(per_client.values())}")
    if dep.handoff_log:
        first = dep.handoff_log[0]
        print(f"first handoff: {first.client} "
              f"{first.src_edge}->{first.dst_edge} "
              f"at t={first.started_s:.1f}s")
    print(f"federated lookups answered by a neighbour edge: "
          f"{dep.counts()['peer_hits']}")
    print("isolated edges re-fetch a roaming user's content from the cloud; "
          "federated edges let it follow the user over the metro link.")


if __name__ == "__main__":
    main()
