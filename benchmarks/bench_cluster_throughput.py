"""A7c — metro cluster throughput per cache configuration.

End-to-end companion to ``bench_index_scaling``: drives the federated
4-edge metro spec once per cache configuration (oracle float64,
float32 linear, float32 IVF) and records simulated requests served per
second of host wall clock per core in
``BENCH_cluster_throughput.json``.
"""

from benchkit import emit, emit_json

from repro.eval.experiments.cluster_throughput import run_cluster_throughput
from repro.eval.tables import format_table

SMOKE_KWARGS = {"duration_s": 8.0, "clients_per_edge": 1,
                "request_interval_s": 1.0}


def test_cluster_throughput(benchmark, smoke):
    kwargs = SMOKE_KWARGS if smoke else {}
    rows = benchmark.pedantic(run_cluster_throughput, kwargs=kwargs,
                              rounds=1, iterations=1)

    table = [[r.label, r.requests, f"{r.wall_s:.2f}",
              f"{r.requests_per_sec_per_core:.0f}",
              f"{r.hit_ratio:.2f}", f"{r.mean_ms:.1f}",
              r.lookup_batches] for r in rows]
    emit(format_table(
        ["config", "requests", "wall s", "req/s/core", "hit ratio",
         "mean ms", "lookup batches"],
        table, title="A7c — metro cluster throughput (wall clock)"))

    # Shape assertions (hold at any size, smoke included).
    labels = [r.label for r in rows]
    assert len(labels) == len(set(labels)) >= 2
    for row in rows:
        assert row.requests > 0
        assert row.wall_s > 0.0 and row.build_s >= 0.0
        assert row.requests_per_sec_per_core > 0.0
        assert 0.0 <= row.hit_ratio <= 1.0
        assert row.mean_ms > 0.0
        assert row.lookup_batches > 0

    # The tiers change host-side speed, not cluster behaviour: every
    # configuration completes the same closed-loop workload.
    requests = {r.requests for r in rows}
    assert max(requests) - min(requests) <= 0.02 * max(requests)

    if smoke:
        return

    by_label = {r.label: r for r in rows}
    for row in rows:
        benchmark.extra_info[f"rps_{row.label}"] = (
            row.requests_per_sec_per_core)

    emit_json("cluster_throughput", {
        "workload": {
            "spec": "ScenarioSpec.metro", "n_edges": 4,
            "clients_per_edge": 4, "federate": True,
            "sim_duration_s": by_label["float64_linear"].sim_duration_s,
            "request_interval_s": 0.5, "cores": 1,
        },
        "rows": [{
            "config": r.label,
            "vector_index": r.vector_index,
            "vector_dtype": r.vector_dtype,
            "requests": r.requests,
            "build_s": r.build_s,
            "wall_s": r.wall_s,
            "requests_per_sec_per_core": r.requests_per_sec_per_core,
            "hit_ratio": r.hit_ratio,
            "mean_latency_ms": r.mean_ms,
            "lookup_batches": r.lookup_batches,
        } for r in rows],
    })
