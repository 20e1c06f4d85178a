"""A10 — real execution backend vs the simulator, wall clock.

Deploys the simulator's code as a real multiprocess asyncio system (one
OS process per edge, real loopback sockets, a latency-shimmed cloud
stub) and measures actual end-to-end requests per second over the
workload trace the simulated row replays.  ``BENCH_real_backend.json``
records the rows; the repo benchmark (``bench/``, ``real_*`` and
``sim_metro_*`` workloads) is what measures either backend's server
cost.
"""

from benchkit import emit, emit_json

from repro.eval.experiments.real_throughput import run_real_throughput
from repro.eval.tables import format_table

SMOKE_KWARGS = {"requests_per_client": 3, "modes": ("sim", "real_inline")}
FULL_KWARGS = {"requests_per_client": 15}


def test_real_backend(benchmark, smoke):
    kwargs = SMOKE_KWARGS if smoke else FULL_KWARGS
    rows = benchmark.pedantic(run_real_throughput, kwargs=kwargs,
                              rounds=1, iterations=1)

    table = [[r.backend, r.requests, f"{r.wall_s:.2f}",
              f"{r.requests_per_sec:.1f}", f"{r.hit_ratio:.2f}",
              f"{r.mean_ms:.1f}", f"{r.accuracy:.3f}"] for r in rows]
    emit(format_table(
        ["backend", "requests", "wall s", "req/s", "hit ratio",
         "mean ms", "accuracy"],
        table, title="A10 — execution backends (wall clock)"))

    # Shape assertions (hold at any size, smoke included).
    backends = [r.backend for r in rows]
    assert len(backends) == len(set(backends)) >= 2
    assert backends[0] == "sim"
    for row in rows:
        assert row.requests > 0
        assert row.wall_s > 0.0
        assert row.requests_per_sec > 0.0
        assert 0.0 <= row.hit_ratio <= 1.0
        assert row.accuracy == 1.0  # oracle cloud; no false hits expected
    # Every backend completes the identical trace.
    assert len({r.requests for r in rows}) == 1
    # The simulator is the fast path; real sockets pay real latency.
    sim = rows[0]
    for row in rows[1:]:
        assert row.wall_s > sim.wall_s

    if smoke:
        return

    for row in rows:
        benchmark.extra_info[f"rps_{row.backend}"] = row.requests_per_sec

    emit_json("real_backend", {
        "workload": {
            "n_edges": 2, "clients_per_edge": 2,
            "requests_per_client": FULL_KWARGS["requests_per_client"],
            "warm_classes": 8, "n_classes": 40,
        },
        "rows": [{
            "backend": r.backend,
            "requests": r.requests,
            "wall_s": r.wall_s,
            "requests_per_sec": r.requests_per_sec,
            "hit_ratio": r.hit_ratio,
            "mean_latency_ms": r.mean_ms,
            "accuracy": r.accuracy,
        } for r in rows],
    })
