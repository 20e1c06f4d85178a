"""Tests for the experiment modules (small parameterizations).

These run the actual figure/ablation code paths with reduced sizes and
assert the *shape* claims each experiment exists to demonstrate: who
wins, which way a curve bends, which counters must move.  This file is
the one home of those claims.  Speed is measured by ``bench/``, so no
test here asserts a speed-up floor.
"""

import pytest

from repro.eval.experiments.affinity_exp import run_affinity
from repro.eval.experiments.city_scale import run_city_scale
from repro.eval.experiments.eviction import DEFAULT_POLICIES, run_eviction
from repro.eval.experiments.federation_economics import (
    run_federation_economics,
)
from repro.eval.experiments.federation_exp import run_federation
from repro.eval.experiments.fig2a import PAPER_BANDWIDTH_PAIRS, run_fig2a
from repro.eval.experiments.fig2b import PAPER_MODEL_SIZES_KB, run_fig2b
from repro.eval.experiments.index_scaling import run_index_scaling
from repro.eval.experiments.layer_reuse_exp import run_layer_reuse
from repro.eval.experiments.layers import run_layer_cache
from repro.eval.experiments.mobility_exp import run_mobility
from repro.eval.experiments.motivation import run_motivation
from repro.eval.experiments.overload_exp import POLICY_NAMES, run_overload
from repro.eval.experiments.panorama_exp import run_panorama
from repro.eval.experiments.privacy_exp import run_privacy
from repro.eval.experiments.real_throughput import run_real_throughput
from repro.eval.experiments.sharing import run_sharing
from repro.eval.experiments.speculative import run_speculative
from repro.eval.experiments.thresholds import run_threshold_sweep


class TestFig2a:
    def test_constrained_pair_shape(self):
        result = run_fig2a(pairs=((90, 9), (400, 40)), repeats=1)
        low, high = result.rows
        # Hit wins clearly at the constrained pair...
        assert low.hit_ms < low.origin_ms
        assert low.reduction_pct > 40
        # ...and Origin latencies fall as bandwidth grows.
        assert high.origin_ms < low.origin_ms
        # Miss never undercuts Origin by more than noise.
        assert low.miss_ms >= low.origin_ms * 0.98

    def test_headline_number_ballpark(self):
        result = run_fig2a(repeats=1)
        assert len(result.rows) == len(PAPER_BANDWIDTH_PAIRS)
        assert 45 <= result.max_reduction_pct <= 65  # paper: 52.28
        constrained = result.rows[0]
        assert (constrained.wifi_mbps, constrained.backhaul_mbps) == (90, 9)
        assert constrained.reduction_pct > 45
        # The paper's tallest bar is ~2400 ms at (90, 9).
        assert 1800 <= constrained.origin_ms <= 2800
        # Origin falls as bandwidth grows, and so does the benefit: hit
        # cost is edge-bound, origin cost is network-bound.
        origins = [r.origin_ms for r in result.rows]
        assert origins == sorted(origins, reverse=True)
        reductions = [r.reduction_pct for r in result.rows]
        assert reductions == sorted(reductions, reverse=True)
        # A miss never beats Origin: the cache detour is overhead.
        for row in result.rows:
            assert row.miss_ms >= row.origin_ms * 0.98

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            run_fig2a(repeats=0)


@pytest.mark.parametrize("run, kwargs", [
    (run_index_scaling, {"n_queries": 0}),
    (run_federation, {"metro_delays_ms": ()}),
    (run_overload, {"intervals_s": (0.0,)}),
    (run_overload, {"intervals_s": (-1.0,)}),
    (run_overload, {"intervals_s": (float("nan"),)}),
    (run_fig2a, {"pairs": ()}),
    (run_layer_cache, {"repeats": 0}),
    (run_index_scaling, {"sizes": ()}),
    (run_sharing, {"user_counts": (0,)}),
    (run_panorama, {"viewer_counts": (0,)}),
    (run_eviction, {"n_models": 0}),
    (run_threshold_sweep, {"n_users": 0}),
    (run_privacy, {"n_pairs": 0}),
    (run_speculative, {"pairs": ((0, 10),)}),
    (run_mobility, {"n_edges": 0}),
    (run_city_scale, {"n_edges": 0}),
    (run_real_throughput, {"modes": ("bogus",)}),
])
def test_degenerate_arguments_rejected(run, kwargs):
    with pytest.raises(ValueError):
        run(**kwargs)


@pytest.mark.parametrize("run, kwargs", [
    (run_overload, {"policies": ("bogus",)}),
    (run_affinity, {"policies": ("bogus",)}),
    (run_layer_reuse, {"policies": ("bogus",)}),
    (run_federation_economics, {"regimes": ("bogus",)}),
])
def test_unknown_policy_rejected(run, kwargs):
    # A misspelt policy fails by name instead of running a default.
    with pytest.raises(KeyError, match="bogus"):
        run(**kwargs)


class TestFig2b:
    def test_shape(self):
        result = run_fig2b()
        assert len(result.rows) == len(PAPER_MODEL_SIZES_KB)
        for row in result.rows:
            assert row.hit_ms < row.origin_ms
            # Misses track Origin: lookup overhead is sub-millisecond.
            assert row.origin_ms * 0.99 <= row.miss_ms <= row.origin_ms * 1.10
        # Latency and reduction both grow with model size; headline
        # near the paper's.
        origins = [r.origin_ms for r in result.rows]
        assert origins == sorted(origins)
        reductions = [r.reduction_pct for r in result.rows]
        assert reductions == sorted(reductions)
        assert reductions[-1] > reductions[0]
        assert 70 <= result.max_reduction_pct <= 85  # paper: 75.86

    def test_origin_scale_matches_paper_axis(self):
        result = run_fig2b(sizes_kb=(15053,))
        assert 5000 <= result.rows[0].origin_ms <= 8000  # ~6 s bar

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_fig2b(sizes_kb=())


class TestAblations:
    def test_threshold_tradeoff(self):
        rows = run_threshold_sweep(thresholds=(0.005, 0.1, 0.7),
                                   n_users=4, duration_s=60)
        tight, mid, loose = rows
        assert tight.hit_ratio < mid.hit_ratio <= loose.hit_ratio
        assert loose.accuracy < tight.accuracy
        # The tightest setting forfeits most sharing, the loosest buys
        # hits with wrong labels, and a sweet spot between has both.
        assert tight.hit_ratio < 0.5
        assert loose.accuracy < 0.9
        assert max(r.hit_ratio for r in rows if r.accuracy > 0.99) > 0.6

    def test_sharing_grows_with_users(self):
        rows = run_sharing(user_counts=(1, 8), requests_per_user=6)
        solo, crowd = rows
        assert crowd.hit_ratio > solo.hit_ratio
        assert crowd.reduction_pct > solo.reduction_pct
        # A lone user gains little while a crowd gains a lot.
        assert solo.reduction_pct < 20
        assert crowd.reduction_pct > 50
        assert crowd.hit_ratio > 0.7

    def test_eviction_smarter_policies_win(self):
        fracs = (0.05, 0.1, 0.4)
        rows = run_eviction(capacity_fracs=fracs, n_models=50,
                            n_requests=120)
        hit = {(r.policy, r.capacity_frac): r.hit_ratio for r in rows}
        # More capacity never hurts, whatever the policy.
        for policy in DEFAULT_POLICIES:
            ratios = [hit[(policy, frac)] for frac in fracs]
            assert all(a <= b + 0.02 for a, b in zip(ratios, ratios[1:]))
        # Under Zipf skew, frequency-aware beats pure recency (or ties),
        # and cost-aware matches FIFO at the tightest capacity.
        for frac in fracs[:2]:
            assert hit[("lfu", frac)] >= hit[("lru", frac)]
        assert hit[("gdsf", fracs[0])] >= hit[("fifo", fracs[0])] - 0.02

    def test_layer_cache_degrades_gracefully(self):
        rows = run_layer_cache(deltas=(0.0, 2.0, 4.0), repeats=6)
        near, mid, far = rows
        assert near.layered_saved_pct > 90
        assert near.coarse_saved_pct > 90
        assert near.layered_saved_pct >= mid.layered_saved_pct \
            >= far.layered_saved_pct
        assert far.layered_saved_pct < 30
        # Coarse reuse is a cliff: (near) full savings or (near) none,
        # where the layered cache slopes down in between.
        for row in rows:
            assert row.coarse_saved_pct >= 85 or row.coarse_saved_pct <= 35

    def test_privacy_tradeoff(self):
        rows = run_privacy(n_pairs=40)
        by_name = {r.mechanism: r for r in rows}
        baseline = by_name["none"]
        assert baseline.leakage == pytest.approx(1.0)
        assert baseline.hit_recall == 1.0
        # Sketches: fewer bits leak less.
        leak = [by_name[f"sketch({bits})"].leakage
                for bits in (64, 256, 1024)]
        assert leak == sorted(leak) and leak[0] < leak[-1]
        # Utility mostly survives at moderate settings.
        assert by_name["sketch(256)"].hit_recall > 0.9
        assert by_name["sketch(256)"].leakage < 0.85
        # Gaussian noise buys privacy, but at high sigma the widened
        # threshold admits foreign matches.
        assert by_name["noise(0.10)"].leakage < baseline.leakage
        assert (by_name["noise(0.10)"].false_match_rate
                >= by_name["noise(0.03)"].false_match_rate)

    def test_panorama_sharing(self):
        rows = run_panorama(viewer_counts=(1, 4), segments=8)
        solo, crowd = rows
        assert crowd.hit_ratio > solo.hit_ratio
        assert crowd.backhaul_mb < crowd.origin_backhaul_mb
        # A lone viewer has no one to share with; a crowd shares most
        # frames after the first viewer.
        assert solo.hit_ratio < 0.1
        assert crowd.hit_ratio > 0.6
        assert crowd.reduction_pct > 40
        assert crowd.backhaul_saving_pct > 40

    def test_index_scaling(self):
        rows = run_index_scaling(sizes=(100, 2000), n_queries=10)
        small, large = rows
        # Linear scan cost grows with occupancy; LSH recall stays high.
        assert large.linear_wall_us > small.linear_wall_us
        assert large.lsh_recall >= 0.8
        for row in rows:
            assert 0.8 <= row.lsh_recall <= 1.0
            assert min(row.linear_wall_us, row.legacy_linear_us,
                       row.lsh_wall_us) > 0.0
        # Candidate sets stay tiny relative to occupancy.
        assert large.lsh_candidates < 0.05 * large.n_entries

    def test_speculative_saves_miss_latency(self):
        rows = run_speculative(pairs=((100, 10),))
        row = rows[0]
        assert row.miss_ms_speculative < row.miss_ms_sequential
        assert row.wasted_mb_per_hit > 0
        # The saving is the extraction time it hides; the waste per hit
        # is about one camera frame.
        assert row.miss_saving_pct > 25
        assert 0.5 <= row.wasted_mb_per_hit <= 3.0


class TestCooperation:
    """A9–A16: edges cooperating in multi-edge scenarios."""

    def test_federation_beats_the_cloud_backhaul(self):
        rows = run_federation()
        for row in rows:
            # Every probe for pre-warmed content succeeds and beats
            # re-fetching through the cloud backhaul.
            assert row.peer_hit_ratio == 1.0
            assert row.federated_ms < row.isolated_ms
            assert row.reduction_pct > 30
        # The benefit shrinks as the metro link gets slower.
        federated = [r.federated_ms for r in rows]
        assert federated == sorted(federated)

    def test_mobility_federation_follows_the_user(self):
        rows = run_mobility(handoff_latencies_ms=(0.0, 250.0),
                            duration_s=60.0, clients_per_edge=1,
                            mean_dwell_s=10.0)
        isolated = [r for r in rows if not r.federate]
        federated = [r for r in rows if r.federate]
        assert len(isolated) == len(federated) == 2
        for row in rows:
            assert row.requests > 0
            # Every client crosses a cell boundary at least once.
            assert row.min_handoffs_per_client >= 1
            assert 0.0 <= row.hit_ratio <= 1.0
        # Federation answers the misses a moving user left behind.
        for iso, fed in zip(isolated, federated):
            assert fed.handoff_latency_ms == iso.handoff_latency_ms
            assert fed.hit_ratio >= iso.hit_ratio
            assert fed.peer_hit_ratio > 0.0
        # Longer dead time stalls mid-migration requests.
        for policy_rows in (isolated, federated):
            zero, slow = policy_rows
            assert slow.p95_ms >= zero.p95_ms
            assert slow.mean_ms > zero.mean_ms

    def test_overload_offload_and_prewarm_hold_the_tail(self):
        rows = run_overload(intervals_s=(0.5,), duration_s=40.0,
                            hot_clients=6, mean_dwell_s=20.0)
        by_policy = {r.policy: r for r in rows}
        assert list(by_policy) == list(POLICY_NAMES)
        for row in rows:
            assert row.served > 0
            assert 0.0 <= row.shed_rate <= 1.0
            assert 0.0 <= row.offload_rate <= 1.0
            assert 0.0 <= row.hit_ratio <= 1.0
            assert row.handoffs > 0
            if "prewarm" not in row.policy:
                assert row.prewarm_pushed == 0
        none, best = by_policy["none"], by_policy["offload+prewarm"]
        assert none.shed == 0 and none.offloaded == 0
        assert by_policy["shed"].offloaded == 0
        # Each policy engages under pressure.
        assert by_policy["shed"].shed > 0
        assert by_policy["offload"].offloaded > 0
        assert best.prewarm_pushed > 0
        # Offload plus pre-warm beats the accept-everything edge on the
        # tail without refusing work.
        assert best.p99_ms < none.p99_ms
        assert best.served >= none.served

    def test_affinity_offload_beats_least_loaded(self):
        least, affine = run_affinity(policies=("least_loaded", "affinity"),
                                     duration_s=60.0, hot_clients=8)
        assert (least.policy, affine.policy) == ("least_loaded", "affinity")
        for row in (least, affine):
            assert row.served > 0
            assert 0.0 <= row.hit_ratio <= 1.0
            assert row.offloaded > 0  # the hot cell saturates
        assert least.affinity_picks == 0  # load-only never reads summaries
        assert affine.summaries_sent > 0 and affine.affinity_picks > 0
        # Affinity wins on hit ratio and the tail, by avoiding the cold
        # cabinet's cloud round trips rather than by shedding work.
        assert affine.hit_ratio >= least.hit_ratio
        assert affine.p99_ms <= least.p99_ms
        assert affine.served >= least.served
        assert affine.misses_cold <= least.misses_cold

    def test_layer_reuse_beats_recompute(self):
        none, reuse, prewarm = run_layer_reuse(hall_s=20.0, hub_s=20.0,
                                               fans=3)
        assert (none.policy, reuse.policy, prewarm.policy) == (
            "none", "reuse", "reuse+prewarm")
        for row in (none, reuse, prewarm):
            assert row.served > 0
            assert 0.0 <= row.partial_ratio <= 1.0
        assert none.partials == 0 and none.layer_seeded == 0
        assert reuse.partials > 0 and reuse.layer_seeded > 0
        assert reuse.saved_compute_s > 0.0
        # Resuming mid-network beats recomputing from the input.
        assert reuse.mean_ms < none.mean_ms
        assert prewarm.mean_ms < none.mean_ms
        assert prewarm.served >= none.served
        # Pre-warm moves activation bytes, and the warmed hub resumes at
        # least as often, and as fast, as the self-warming one.
        assert prewarm.layer_entries_prewarmed > 0
        assert prewarm.prewarm_bytes > 0
        assert reuse.layer_entries_prewarmed == 0
        assert prewarm.hub_partials >= reuse.hub_partials
        assert prewarm.hub_mean_ms <= reuse.hub_mean_ms

    def test_city_scale_reports_its_gauges(self):
        city = run_city_scale(n_edges=4, clients_per_edge=4,
                              duration_s=30.0, request_interval_s=5.0,
                              mean_dwell_s=10.0)
        assert city.events > 0 and city.requests > 0
        assert 0.0 <= city.hit_ratio <= 1.0
        assert city.events_per_sec > 0.0
        assert city.wall_s_per_sim_hour > 0.0
        assert city.peak_rss_mb > 0.0

    def test_paid_peer_cache_beats_the_cloud(self):
        rows = run_federation_economics(duration_s=40.0, n_clients=6)
        by_regime = {r.regime: r for r in rows}
        assert set(by_regime) == {"free", "paid", "over_budget", "denied"}
        for row in rows:
            assert row.served > 0
            assert 0.0 <= row.hit_ratio <= 1.0
            # Credit conservation: every settlement debits the consumer
            # exactly what it credits the provider.
            assert abs(row.balance_sum) < 1e-9
            assert row.credits_spent == row.credits_earned
        free, paid = by_regime["free"], by_regime["paid"]
        # Consent and price walls keep the probe path dark.
        for walled in (by_regime["denied"], by_regime["over_budget"]):
            assert walled.peer_probes == 0
            assert walled.credits_spent == 0.0
        # The paid peer served hits and was billed for each one.
        assert paid.peer_hits > 0
        assert paid.credits_spent > 0.0
        assert paid.transactions == paid.peer_hits
        # Buying the neighbour's warm cache beats the cloud round trip
        # on the mean and the tail.
        assert paid.mean_ms < by_regime["denied"].mean_ms
        assert paid.p99_ms < by_regime["denied"].p99_ms
        # Pricing moves credits, not bytes.
        assert (paid.mean_ms, paid.p99_ms) == (free.mean_ms, free.p99_ms)
        assert free.credits_spent == 0.0

    def test_real_backend_replays_the_simulated_trace(self):
        # Process mode spawns OS processes; the real_backend marker
        # covers it in tests/backend.
        sim, real = run_real_throughput(modes=("sim", "real_inline"),
                                        requests_per_client=1)
        assert (sim.backend, real.backend) == ("sim", "real_inline")
        for row in (sim, real):
            assert row.requests > 0
            assert row.wall_s > 0.0
            assert row.requests_per_sec > 0.0
            assert 0.0 <= row.hit_ratio <= 1.0
            assert row.accuracy == 1.0  # oracle cloud: no false hits
        # Both complete the identical trace; real sockets pay real time.
        assert real.requests == sim.requests
        assert real.wall_s > sim.wall_s


class TestMotivation:
    """M1: the paper's §1.2 redundancy measurement."""

    def test_every_family_repeats(self):
        redundancy = {r.family: r.redundancy for r in run_motivation()}
        # A large share of every family's offered work repeats (an
        # upper bound on the achievable hit ratio).
        assert redundancy["recognition"] > 0.5
        assert redundancy["model_load"] > 0.5
        assert redundancy["panorama"] > 0.4

    def test_redundancy_grows_with_colocation(self):
        from repro.sim.rng import RngStreams
        from repro.workload import (
            ArTraceGenerator,
            RandomWaypointUser,
            World,
        )

        rng = RngStreams(1)
        ratios = []
        for n_places in (24, 6, 1):  # denser and denser co-location
            world = World(n_places=n_places, n_classes=200,
                          objects_per_place=8,
                          rng=rng.stream(f"w{n_places}"))
            users = [RandomWaypointUser(f"u{i}", world,
                                        rng.stream(f"m{n_places}.{i}"))
                     for i in range(10)]
            trace = ArTraceGenerator(
                world, users, rng.stream(f"t{n_places}"),
                request_rate_hz=0.3).generate(400.0)
            ratios.append(ArTraceGenerator.redundancy_ratio(trace))
        assert ratios == sorted(ratios)
