#!/usr/bin/env python3
"""Concert hall to transit hub: a handoff that ships — and *serves* —
DNN-layer state.

One edge serves the concert hall, another the transit hub next door.
With ``EdgePolicySpec(layer_reuse=True)`` the request pipeline runs the
partial-inference stage (paper §4, Potluck-style): every edge-side
extraction seeds the layer cache with the tap activations it computed
anyway, and a later capture whose cheap input sketch matches a cached
intermediate resumes inference mid-network instead of recomputing —
the ``partial`` outcome, served end to end through the real pipeline
(no hand-driven manager calls).

During the show the fans' captures fill the hall's result *and* layer
caches.  When the crowd pours out toward the hub, the pre-warm policy
(``prewarm_top_k`` results + ``prewarm_layers`` activations) pushes the
hall's hottest entries ahead of the handoff, paying real backhaul
bytes, so the hub's first drifted re-captures resume from a deep layer
immediately.

Expected output: a per-phase table showing the drifted re-captures at
the hub answered with the ``partial`` outcome at a fraction of the
hall-phase miss latency, the layers they resumed after, and the
pre-warm log line with the bytes the transfer paid.

Run:  python examples/concert_hall.py
"""

import os

from repro.core import CoICConfig
from repro.core.cluster import ClusterDeployment
from repro.core.metrics import OUTCOME_PARTIAL
from repro.core.scenario import (
    ClientSpec,
    EdgePolicySpec,
    EdgeSpec,
    InterEdgeLinkSpec,
    ScenarioSpec,
)
from repro.eval import format_table

DURATION_S = float(os.environ.get("REPRO_EXAMPLE_DURATION", "30"))
N_FANS = 4
#: Object classes visible on stage (what the hall's edge learns).
STAGE_SCENES = (3, 11, 19, 27)


def main() -> None:
    config = CoICConfig(seed=0)
    config.network.wifi_mbps = 100
    config.network.backhaul_mbps = 10
    spec = ScenarioSpec(
        edges=(EdgeSpec(name="hall",
                        clients=tuple(ClientSpec(name=f"fan{i}")
                                      for i in range(N_FANS))),
               EdgeSpec(name="hub")),
        inter_edge=(InterEdgeLinkSpec(a="hall", b="hub"),),
        policy=EdgePolicySpec(layer_reuse=True,
                              prewarm_top_k=8, prewarm_layers=6))
    dep = ClusterDeployment(spec, config=config)

    # Act 1 — the show: fans recognize the stage scenes through the
    # pipeline.  The first capture of each scene misses to the cloud;
    # its extraction seeds the hall's layer cache, so the re-captures
    # already come back as partial serves.
    for seq, scene in enumerate(STAGE_SCENES):
        for i, client in enumerate(dep.all_clients):
            dep.run_tasks(client, [dep.recognition_task(
                scene, viewpoint=0.2 * i, user=client.name, seq=seq)])
    n_hall = len(dep.recorder.records)

    # Act 2 — the crowd leaves: pre-warm the hub, hand everyone off,
    # then re-capture the stage scenes from wildly drifted viewpoints —
    # too far for the descriptor cache, close enough for mid layers.
    dep.prewarm("hall", "hub", client_name="fan0")
    for client in dep.all_clients:
        dep.env.process(dep.handoff(client, "hub"))
    dep.run_for(DURATION_S)
    for seq, scene in enumerate(STAGE_SCENES):
        for i, client in enumerate(dep.all_clients):
            dep.run_tasks(client, [dep.recognition_task(
                scene, viewpoint=4.0 + 0.5 * i, user=client.name,
                seq=100 + seq)])

    rows = []
    for phase, records in (("hall (show)", dep.recorder.records[:n_hall]),
                           ("hub (drifted)",
                            dep.recorder.records[n_hall:])):
        outcomes = [r.outcome for r in records]
        partials = [r for r in records if r.outcome == OUTCOME_PARTIAL]
        resumes = sorted({r.resume_layer for r in partials})
        mean_ms = sum(r.latency_s for r in records) / len(records) * 1e3
        rows.append([phase, str(len(records)),
                     str(outcomes.count("miss")),
                     str(outcomes.count("hit")), str(len(partials)),
                     ",".join(resumes) if resumes else "-",
                     f"{mean_ms:.0f}"])
    print(format_table(
        ["phase", "requests", "miss", "hit", "partial", "resumed after",
         "mean ms"],
        rows, title="mid-session resume through the request pipeline"))

    push = dep.prewarm_log[0]
    print(f"\npre-warm push {push.src_edge}->{push.dst_edge}: "
          f"{push.pushed} results + {push.layer_entries} layer activations, "
          f"{push.size_bytes / 1e6:.1f} MB over the metro link, "
          f"landed at t={push.time_s:.2f}s")
    hub = dep.edge_by_name["hub"]
    print(f"handoffs completed: {len(dep.handoff_log)}; hub served "
          f"{hub.counts['partial']} partials, saving "
          f"{hub.counts['partial_saved_s']:.1f}s of backbone compute")
    print("shipping layer activations costs real backhaul bytes, but the "
          "hub resumes mid-network instead of paying the full backbone.")


if __name__ == "__main__":
    main()
