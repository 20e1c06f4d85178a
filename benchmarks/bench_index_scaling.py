"""A7 — descriptor index scaling: linear scan vs LSH, one query per call.

Vector lookups sit on every recognition request's critical path; this
bench measures real wall-clock ``query`` times of both index types as
the cache fills, plus LSH's recall price, and records the before/after
speedup over the seed implementation in ``BENCH_index_scaling.json``.

The second half scales the cache to metro-aggregation occupancy
(10^5-10^6 entries) and compares the storage/index tiers: per-kind
LinearIndex in float64 (the oracle tier) vs float32 (the deployment
default), int8 scalar-quantized storage, and the IVF coarse-quantizer —
wall time per ``query``, allocated memory, and recall per tier.
"""

from benchkit import emit, emit_json

from repro.eval.experiments.index_scaling import (
    run_index_scaling,
    run_tier_scaling,
)
from repro.eval.tables import format_table

SMOKE_KWARGS = {"sizes": (100, 1_000), "n_queries": 10}
TIER_SMOKE_KWARGS = {"sizes": (2_000, 8_000), "n_queries": 16,
                     "timing_reps": 1}


def test_index_scaling(benchmark, smoke):
    kwargs = SMOKE_KWARGS if smoke else {}
    tier_kwargs = TIER_SMOKE_KWARGS if smoke else {}

    def run_both():
        return run_index_scaling(**kwargs), run_tier_scaling(**tier_kwargs)

    rows, tiers = benchmark.pedantic(run_both, rounds=1, iterations=1)

    table = [[r.n_entries, f"{r.legacy_linear_us:.0f}",
              f"{r.linear_wall_us:.0f}", f"{r.lsh_wall_us:.0f}",
              f"{r.speedup:.0f}x", f"{r.lsh_recall:.2f}",
              f"{r.lsh_candidates:.0f}"] for r in rows]
    emit(format_table(
        ["entries", "seed us/q", "linear us/q", "LSH us/q", "speedup",
         "LSH recall", "LSH candidates"],
        table, title="A7 — descriptor index scaling (wall clock)"))

    tier_table = [[t.n_entries, f"{t.float64_perkind_us:.0f}",
                   f"{t.float32_perkind_us:.0f}", f"{t.int8_us:.0f}",
                   f"{t.ivf_us:.0f}", f"{t.float32_speedup:.1f}x",
                   f"{t.float64_memory_mb:.0f}",
                   f"{t.float32_memory_mb:.0f}",
                   f"{t.int8_memory_mb:.0f}", f"{t.ivf_memory_mb:.0f}",
                   f"{t.ivf_recall:.3f}", f"{t.ivf_candidates:.0f}"]
                  for t in tiers]
    emit(format_table(
        ["entries", "f64/kind us/q", "f32/kind us/q", "int8 us/q",
         "ivf us/q", "f32 speedup", "f64 MB", "f32 MB", "int8 MB",
         "ivf MB", "ivf recall", "ivf candidates"],
        tier_table, title="A7b — storage/index tiers at scale"))

    # Shape assertions (hold at any size, smoke included).
    sizes = [r.n_entries for r in rows]
    assert sizes == sorted(sizes) and len(sizes) >= 2
    for row in rows:
        assert 0.0 <= row.lsh_recall <= 1.0
        assert row.lsh_recall >= 0.8  # near-duplicate recall stays high
        assert row.lsh_candidates <= row.n_entries
        for field in (row.linear_wall_us, row.legacy_linear_us,
                      row.lsh_wall_us):
            assert field > 0.0

    tier_sizes = [t.n_entries for t in tiers]
    assert tier_sizes == sorted(tier_sizes) and len(tier_sizes) >= 2
    for t in tiers:
        # Exact tiers agree with the float64 baseline; quantization and
        # coarse probing may give up a bounded sliver of recall.
        assert t.float32_recall == 1.0
        assert t.int8_recall >= 0.99
        assert 0.0 <= t.ivf_recall <= 1.0
        assert t.ivf_trainings >= 1  # sizes are past min_train
        assert t.ivf_candidates < t.n_entries
        # Storage dtypes are the memory story: half and ~a-quarter.
        assert t.float32_memory_mb <= 0.55 * t.float64_memory_mb
        assert t.int8_memory_mb <= 0.35 * t.float32_memory_mb
        for field in (t.float64_perkind_us, t.float32_perkind_us,
                      t.int8_us, t.ivf_us, t.ivf_memory_mb):
            assert field > 0.0

    if smoke:
        return

    small, large = rows[0], rows[-1]
    by_n = {r.n_entries: r for r in rows}
    # Linear scan cost grows with occupancy...
    assert large.linear_wall_us > small.linear_wall_us
    # ...while LSH stays within a modest factor of its small-cache cost.
    assert large.lsh_wall_us < large.linear_wall_us
    # Candidate sets stay tiny relative to occupancy.
    assert large.lsh_candidates < large.n_entries * 0.05
    # The targets: one query of the exact scan beats the seed's scan by
    # >= 5x at 10k entries, and the matmul signature path beats the
    # seed's per-bit Python loop by >= 3x (insert-heavy workloads).
    assert by_n[10_000].speedup >= 5.0
    assert by_n[10_000].sig_speedup >= 3.0

    # Scale-tier targets, one query per call.  At 10^5 the scan is
    # memory-bound, so half the bytes is about half the time (2.0-2.1x
    # measured; the floor leaves room for container noise); IVF grows
    # sublinearly (10x the entries for 3.9-5.4x the query time over
    # two runs) while holding the recall floor; by 10^6 it also beats
    # the exact scan outright.
    t_small, t_large = tiers[0], tiers[-1]
    assert t_small.n_entries >= 100_000
    assert t_small.float32_speedup >= 1.5
    assert t_large.ivf_us / t_small.ivf_us <= 8.0
    for t in tiers:
        assert t.ivf_recall >= 0.95
    assert t_large.ivf_us < t_large.float64_perkind_us

    benchmark.extra_info["speedup_at_largest"] = (
        large.linear_wall_us / large.lsh_wall_us)
    benchmark.extra_info["speedup_10k"] = by_n[10_000].speedup
    benchmark.extra_info["float32_speedup_100k"] = t_small.float32_speedup

    emit_json("index_scaling", {
        "workload": {"n_queries": 50, "dim": 128, "metric": "cosine"},
        "rows": [{
            "entries": r.n_entries,
            "baseline_us_per_query": r.legacy_linear_us,
            "linear_us_per_query": r.linear_wall_us,
            "lsh_us_per_query": r.lsh_wall_us,
            "baseline_ops_per_sec": 1e6 / r.legacy_linear_us,
            "linear_ops_per_sec": 1e6 / r.linear_wall_us,
            "speedup_vs_baseline": r.speedup,
            "lsh_signature_us": r.lsh_sig_us,
            "baseline_lsh_signature_us": r.legacy_sig_us,
            "lsh_signature_speedup_vs_baseline": r.sig_speedup,
            "lsh_recall": r.lsh_recall,
        } for r in rows],
        "tier_workload": {"n_queries": 200, "dim": 128,
                          "metric": "cosine", "threshold": 0.05,
                          "aux_kind_share": 0.05},
        "tier_rows": [{
            "entries": t.n_entries,
            "float64_perkind_us_per_query": t.float64_perkind_us,
            "float32_perkind_us_per_query": t.float32_perkind_us,
            "int8_us_per_query": t.int8_us,
            "ivf_us_per_query": t.ivf_us,
            "float32_speedup_vs_float64": t.float32_speedup,
            "float64_memory_mb": t.float64_memory_mb,
            "float32_memory_mb": t.float32_memory_mb,
            "int8_memory_mb": t.int8_memory_mb,
            "ivf_memory_mb": t.ivf_memory_mb,
            "float32_recall": t.float32_recall,
            "int8_recall": t.int8_recall,
            "ivf_recall": t.ivf_recall,
            "ivf_candidates": t.ivf_candidates,
            "ivf_trainings": t.ivf_trainings,
        } for t in tiers],
    })
