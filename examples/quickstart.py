#!/usr/bin/env python3
"""Quickstart: a three-node CoIC system in ~30 lines.

Builds the Figure 1 architecture (mobile -- edge -- cloud), runs one
recognition request as the Origin baseline, one through a cold CoIC cache
(miss) and one from a co-located second user (hit), and prints the
latency of each path.

Expected output: a three-row latency table (origin / miss / hit) where
the hit is several times faster than both cloud-bound paths, plus the
percentage reduction CoIC delivers over Origin.

Run:  python examples/quickstart.py
"""

from repro.core import ClusterDeployment, CoICConfig, ScenarioSpec
from repro.eval import format_table, reduction_pct


def main() -> None:
    # The paper's constrained condition: 90 Mbps WiFi, 9 Mbps backhaul.
    config = CoICConfig()
    config.network.wifi_mbps = 90
    config.network.backhaul_mbps = 9
    config.recognition.speculative_forward = True

    deployment = ClusterDeployment(ScenarioSpec.single_edge(2), config=config)

    # A stop sign (class 7) seen by two drivers from different angles.
    stop_sign = 7

    task = deployment.recognition_task(stop_sign, viewpoint=-0.3)
    origin = deployment.run_tasks(deployment.origin_clients[0], [task])[0]

    task = deployment.recognition_task(stop_sign, viewpoint=-0.3)
    miss = deployment.run_tasks(deployment.all_clients[0], [task])[0]

    task = deployment.recognition_task(stop_sign, viewpoint=+0.3)
    hit = deployment.run_tasks(deployment.all_clients[1], [task])[0]

    rows = [
        ["Origin (no cache)", f"{origin.latency_s * 1e3:.0f}", "-"],
        ["CoIC cache miss", f"{miss.latency_s * 1e3:.0f}",
         f"{reduction_pct(origin.latency_s, miss.latency_s):+.1f}%"],
        ["CoIC cache hit", f"{hit.latency_s * 1e3:.0f}",
         f"{reduction_pct(origin.latency_s, hit.latency_s):+.1f}%"],
    ]
    print(format_table(["path", "latency (ms)", "vs origin"], rows,
                       title="Recognition at (90, 9) Mbps"))
    print(f"\nedge cache: {deployment.caches[0]}")
    print(f"hit returned correct label: {hit.correct}")


if __name__ == "__main__":
    main()
