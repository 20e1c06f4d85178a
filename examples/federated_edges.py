#!/usr/bin/env python3
"""Two cafes, one street: cooperation *between* edges.

The single-edge CoIC shares results among users behind one access point.
This example federates two edges over a metro link: players in cafe A
warm their edge with the arena's shared avatars; when players in cafe B
join the same arena, their edge fetches the loaded models from its
neighbour in milliseconds instead of re-downloading through the cloud
backhaul.

Expected output: per-model load latencies for both cafes — cafe B's
federated fetches land between cafe A's cloud misses and its local
hits — and the edge-level peer-hit counters proving the models came
over the metro link, not the WAN.

Run:  python examples/federated_edges.py
"""

from repro.core import ClusterDeployment, CoICConfig, ScenarioSpec
from repro.eval import format_table

N_MODELS = 4


def play_session(deployment, client, label):
    """One player loads the arena's shared models; returns records."""
    records = []
    for model_id in range(N_MODELS):
        record = deployment.run_tasks(
            client, [deployment.model_load_task(model_id)])[0]
        records.append(record)
        deployment.env.run()  # let edge parses / inserts settle
    total_ms = sum(r.latency_s for r in records) * 1e3
    hits = sum(1 for r in records if r.outcome == "hit")
    return total_ms, hits


def run(federate: bool):
    config = CoICConfig()
    config.network.wifi_mbps = 100
    config.network.backhaul_mbps = 10
    config.rendering.catalog_sizes_kb = (1500, 2800, 4200, 6100)
    deployment = ClusterDeployment(
        ScenarioSpec.federated(n_edges=2, clients_per_edge=1,
                               metro_mbps=1000, metro_delay_ms=2.0,
                               federate=federate),
        config=config)

    (cafe_a,), (cafe_b,) = deployment.clients_by_edge
    cafe_a_ms, _ = play_session(deployment, cafe_a, "cafe A")
    cafe_b_ms, cafe_b_hits = play_session(deployment, cafe_b, "cafe B")
    return cafe_a_ms, cafe_b_ms, cafe_b_hits, deployment


def main() -> None:
    iso_a, iso_b, iso_hits, _ = run(federate=False)
    fed_a, fed_b, fed_hits, dep = run(federate=True)

    rows = [
        ["isolated", f"{iso_a:.0f}", f"{iso_b:.0f}", f"{iso_hits}/{N_MODELS}"],
        ["federated", f"{fed_a:.0f}", f"{fed_b:.0f}",
         f"{fed_hits}/{N_MODELS}"],
    ]
    print(format_table(
        ["edges", "cafe A load ms", "cafe B load ms", "cafe B hits"],
        rows, title="Arena join: cafe A first, cafe B second"))
    print(f"\ncafe B speedup from federation: "
          f"{iso_b / fed_b:.1f}x  "
          f"(edge1 answered {dep.edges[1].counts['peer_hits']} loads from edge0)")
    print("cloud fetches: isolated would fetch every model per edge; "
          "federated fetched each model exactly once.")


if __name__ == "__main__":
    main()
