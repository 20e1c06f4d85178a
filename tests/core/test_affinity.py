"""Tests for cache-affinity cooperation (PR 4).

Covers the incremental affinity sketch and cache summaries, the
affinity load balancer (including its decision-identity with the
least-loaded balancer when no summary signal exists), staleness-bounded
summary gossip determinism, layer-cache pre-warm transport, and the
golden digest pinning ``offload="least_loaded"`` byte-identical to the
PR 3 balancer.
"""

import collections
import math

import numpy as np
import pytest

from repro.core.cache import CacheSummary, ICCache
from repro.core.descriptors import HashDescriptor, VectorDescriptor
from repro.core.layer_cache import LAYER_KIND_PREFIX
from repro.core.sketch import (
    AffinitySketch,
    SKETCH_DIM,
    SketchSummary,
    input_sketch,
)
from repro.core.metrics import OUTCOME_HIT, OUTCOME_MISS
from repro.core.balancer import AffinityLoadBalancer, PeerLoadBalancer
from repro.core.scenario import (
    ClientSpec,
    EdgePolicySpec,
    EdgeSpec,
    InterEdgeLinkSpec,
    ScenarioSpec,
    WarmupSpec,
)

from ordering import recorder_digest


def vec(seed: int, dim: int = 128) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


# -- sketch + summary ---------------------------------------------------------


class TestAffinitySketch:
    def test_signature_deterministic_across_instances(self):
        a, b = AffinitySketch(), AffinitySketch()
        v = vec(1)
        assert a.signature(v) == b.signature(v)
        # Folding is dim-agnostic: the 32-d input sketch of a vector and
        # the vector itself land in the same bucket (block-average +
        # sign bits are scale/normalization invariant).
        assert a.signature(input_sketch(v)) == a.signature(v)

    def test_add_remove_roundtrip(self):
        sketch = AffinitySketch()
        vs = [vec(i) for i in range(10)]
        for v in vs:
            sketch.add(v)
        assert len(sketch) == 10
        summary = sketch.summary()
        assert summary.n == 10
        assert sum(summary.counts.values()) == 10
        for v in vs:
            sketch.remove(v)
        assert len(sketch) == 0
        assert sketch.summary().counts == {}

    def test_summary_is_a_snapshot(self):
        sketch = AffinitySketch()
        sketch.add(vec(1))
        summary = sketch.summary()
        sketch.add(vec(2))
        assert summary.n == 1  # unchanged by later inserts

    def test_expected_hit_same_and_different_content(self):
        sketch = AffinitySketch()
        base = vec(42)
        sketch.add(base)
        summary = sketch.summary()
        # Identical vector: certain bucket match.
        assert summary.expected_hit(sketch.signature(base)) == 1.0
        assert SketchSummary(n=0, counts={}).expected_hit(0) == 0.0

    def test_expected_hit_radius(self):
        bits = AffinitySketch().n_bits
        summary = SketchSummary(n=4, counts={0b0: 1, 0b1: 1, 0b11: 1,
                                             0b111: 1}, n_bits=bits)
        assert summary.expected_hit(0b0, radius=0) == pytest.approx(0.25)
        assert summary.expected_hit(0b0, radius=1) == pytest.approx(0.5)
        assert summary.expected_hit(0b0, radius=2) == pytest.approx(0.75)

    def test_size_bytes_tracks_buckets(self):
        assert SketchSummary(n=0, counts={}).size_bytes == 16
        assert SketchSummary(n=2, counts={1: 1, 2: 1}).size_bytes == 40


class TestCacheSummary:
    def test_first_summary_folds_in_live_entries_then_tracks_drops(self):
        cache = ICCache(capacity_bytes=100_000)
        entries = [cache.insert(
            VectorDescriptor(kind="recognition", vector=vec(i)),
            f"r{i}", 100) for i in range(5)]
        cache.insert(HashDescriptor("model_load", "ab"), "m", 100)
        summary = cache.summary()
        assert summary.kinds == {"recognition": 5, "model_load": 1}
        assert set(summary.sketches) == {"recognition"}
        assert summary.sketches["recognition"].n == 5
        # Drops (explicit or eviction) shrink the sketch too.
        cache.remove(entries[0])
        assert cache.summary().sketches["recognition"].n == 4

    def test_inserts_without_a_summary_compute_no_signature(
            self, monkeypatch):
        signed = []
        original = AffinitySketch.signature
        monkeypatch.setattr(
            AffinitySketch, "signature",
            lambda sketch, vector: signed.append(1) or original(sketch,
                                                               vector))
        cache = ICCache(capacity_bytes=50 * 100)
        for i in range(1000):
            cache.insert(VectorDescriptor(kind="recognition", vector=vec(i)),
                         f"r{i}", 100, now=float(i))
        assert cache.stats.evictions == 950 and signed == []
        # The first summary signs each live entry once; later inserts
        # are signed as they come.
        assert cache.summary().sketches["recognition"].n == 50
        assert len(signed) == 50
        cache.insert(VectorDescriptor(kind="recognition", vector=vec(1000)),
                     "r", 100)
        assert len(signed) == 51

    def test_eviction_updates_sketch(self):
        cache = ICCache(capacity_bytes=300)  # room for 3 x 100 B
        for i in range(5):
            cache.insert(VectorDescriptor(kind="recognition", vector=vec(i)),
                         f"r{i}", 100, now=float(i))
        assert len(cache) == 3
        assert cache.summary().sketches["recognition"].n == 3

    def test_expected_hit_routes_by_kind(self):
        cache = ICCache(capacity_bytes=100_000)
        v = vec(7)
        cache.insert(VectorDescriptor(kind="recognition", vector=v),
                     "r", 100)
        summary = cache.summary()
        sig = AffinitySketch().signature(v)
        assert summary.expected_hit("recognition", sig) == 1.0
        assert summary.expected_hit("panorama", sig) == 0.0

    def test_insert_batch_maintains_sketch(self):
        cache = ICCache(capacity_bytes=100_000)
        items = [(VectorDescriptor(kind="recognition", vector=vec(i)),
                  f"r{i}", 100) for i in range(6)]
        cache.insert_batch(items)
        assert cache.summary().sketches["recognition"].n == 6

    def test_summary_exclude_prefix_drops_layer_kinds(self):
        cache = ICCache(capacity_bytes=100_000)
        cache.insert(VectorDescriptor(kind="recognition", vector=vec(1)),
                     "r", 100)
        cache.insert(VectorDescriptor(kind=f"{LAYER_KIND_PREFIX}conv1",
                                      vector=vec(2, dim=SKETCH_DIM)),
                     ("activation", "conv1"), 200)
        full = cache.summary()
        assert set(full.kinds) == {"recognition", "layer:conv1"}
        gossip = cache.summary(exclude_prefix=LAYER_KIND_PREFIX)
        assert set(gossip.kinds) == {"recognition"}
        assert set(gossip.sketches) == {"recognition"}
        assert gossip.size_bytes < full.size_bytes


class TestHottestFilters:
    def _cache(self):
        cache = ICCache(capacity_bytes=100_000)
        cache.insert(HashDescriptor("model_load", "aa"), "m", 100)
        cache.insert(VectorDescriptor(kind=f"{LAYER_KIND_PREFIX}conv1",
                                      vector=vec(1, dim=SKETCH_DIM)),
                     ("activation", "conv1"), 200)
        cache.insert(VectorDescriptor(kind="recognition", vector=vec(2)),
                     "r", 100)
        return cache

    def test_kind_prefix_selects_namespace(self):
        cache = self._cache()
        layers = cache.hottest(10, kind_prefix=LAYER_KIND_PREFIX)
        assert [e.kind for e in layers] == ["layer:conv1"]

    def test_exclude_prefix_drops_namespace(self):
        cache = self._cache()
        rest = cache.hottest(10, exclude_prefix=LAYER_KIND_PREFIX)
        assert {e.kind for e in rest} == \
            {"model_load", "recognition"}


# -- the affinity balancer ----------------------------------------------------


class _FakeEdge:
    def __init__(self, load, summaries=None):
        self.load = load
        self.peer_summaries = summaries or {}
        self.counts = collections.Counter()


def _summary_holding(v) -> CacheSummary:
    sketch = AffinitySketch()
    sketch.add(v)
    return CacheSummary(kinds={"recognition": 1},
                        sketches={"recognition": sketch.summary()})


class TestAffinityLoadBalancer:
    def test_empty_summaries_identical_to_least_loaded(self):
        # Decision identity across a spread of load configurations: with
        # no gossip received, affinity pick == least-loaded pick.
        key = vec(3)
        for loads in ((5, 2, 1), (5, 1, 2), (2, 2, 2), (1, 4, 5),
                      (0, 0, 0), (4, 3, 3)):
            affine = AffinityLoadBalancer(margin=1)
            least = PeerLoadBalancer(margin=1)
            for balancer in (affine, least):
                balancer.register("a", _FakeEdge(loads[0]), ["b", "c"])
                balancer.register("b", _FakeEdge(loads[1]), ["a"])
                balancer.register("c", _FakeEdge(loads[2]), ["a"])
            assert affine.pick("a", key=key) == least.pick("a"), loads
            assert affine.pick("a", key=None) == least.pick("a"), loads

    def test_prefers_the_neighbour_that_will_hit(self):
        content = vec(9)
        asking = _FakeEdge(5, summaries={"warm": _summary_holding(content)})
        balancer = AffinityLoadBalancer(margin=1)
        balancer.register("a", asking, ["cold", "warm"])
        balancer.register("cold", _FakeEdge(0), ["a"])
        balancer.register("warm", _FakeEdge(1), ["a"])
        # Least-loaded would pick "cold" (registration order + load);
        # affinity routes to the summary that predicts a hit.
        assert PeerLoadBalancer(margin=1) is not None
        assert balancer.pick("a", key=content) == "warm"
        assert asking.counts["affinity_picks"] == 1
        # Unrelated content scores zero everywhere: least-loaded fallback.
        assert balancer.pick("a", key=vec(1000)) == "cold"
        assert asking.counts["fallback_picks"] == 1

    def test_margin_still_gates_eligibility(self):
        content = vec(9)
        asking = _FakeEdge(2, summaries={"warm": _summary_holding(content)})
        balancer = AffinityLoadBalancer(margin=2)
        balancer.register("a", asking, ["warm"])
        balancer.register("warm", _FakeEdge(1), ["a"])
        # warm holds the content but 1 + margin(2) > own(2): ineligible.
        assert balancer.pick("a", key=content) is None

    def test_headroom_breaks_equal_hit_probability(self):
        content = vec(9)
        asking = _FakeEdge(9, summaries={
            "busy": _summary_holding(content),
            "idle": _summary_holding(content)})
        balancer = AffinityLoadBalancer(margin=0)
        balancer.register("a", asking, ["busy", "idle"])
        balancer.register("busy", _FakeEdge(3), ["a"])
        balancer.register("idle", _FakeEdge(0), ["a"])
        assert balancer.pick("a", key=content) == "idle"


# -- deployment-level behaviour ----------------------------------------------


@pytest.fixture
def affinity_dep(make_spec, make_deployment):
    """Deployment factory for the 3-edge affinity scenario: hot
    ``edge0`` (all the clients), idle ``edge1``/``edge2``, warm-up on
    ``warm_edges``, full metro mesh, standard 2-worker test config."""

    def factory(offload="affinity", refresh=1.0, warm_edges=("edge2",),
                seed=0):
        spec = make_spec(
            clients=(("m0", "m1", "m2"), (), ()),
            warmup=WarmupSpec(classes=(1, 2, 3), edges=tuple(warm_edges)),
            policy=EdgePolicySpec(offload=offload, queue_limit=0,
                                  offload_margin=0,
                                  summary_refresh_s=refresh))
        return make_deployment(spec=spec, seed=seed, edge_workers=2)

    return factory


class TestSummaryGossip:
    def test_no_summaries_before_the_first_interval(self, affinity_dep):
        dep = affinity_dep(refresh=5.0)
        dep.run_for(4.9)
        assert dep.counts()["summaries_sent"] == 0
        assert all(e.peer_summaries == {} for e in dep.edges)
        dep.run_for(0.2)
        # One round: every edge pushed to both neighbours.
        assert dep.counts()["summaries_sent"] == 6
        assert all(e.counts["summaries_received"] == 2 for e in dep.edges)

    def test_gossiped_summary_reflects_warmup(self, affinity_dep):
        dep = affinity_dep(refresh=1.0)
        dep.run_for(1.2)
        view = dep.edges[0].peer_summaries
        assert set(view) == {"edge1", "edge2"}
        assert view["edge2"].kinds == {"recognition": 3}
        assert view["edge1"].kinds == {}

    def test_gossip_only_runs_for_affinity_policies(self, affinity_dep):
        dep = affinity_dep(offload="least_loaded")
        dep.run_for(3.0)
        assert dep.counts()["summaries_sent"] == 0

    def test_gossip_and_offload_are_deterministic(self, affinity_dep):
        def one_run():
            dep = affinity_dep()
            tasks = [dep.recognition_task(cls, viewpoint=0.1 * i,
                                          user="m0", seq=i)
                     for i, cls in enumerate((1, 2, 3, 9, 1, 2))]
            # Let one gossip round land, then drive traffic.
            dep.run_for(1.5)
            for client, task in zip(dep.all_clients * 2, tasks):
                dep.run_tasks(client, [task])
            dep.run_for(2.0)
            return (recorder_digest(dep.recorder),
                    dep.counts()["summaries_sent"],
                    tuple(e.counts["summaries_received"] for e in dep.edges),
                    dep.counts()["affinity_picks"])

        assert one_run() == one_run()

    def test_affinity_offload_targets_the_warm_edge(self, affinity_dep):
        dep = affinity_dep()
        dep.run_for(1.5)  # summaries in place
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(2, viewpoint=0.1)])[0]
        assert record.outcome == OUTCOME_HIT
        assert record.edge == "edge2"
        assert dep.edge_by_name["edge0"].counts["affinity_picks"] >= 1

    def test_before_gossip_affinity_falls_back_to_least_loaded(
            self, affinity_dep):
        dep = affinity_dep()
        # No gossip yet: pick must match least-loaded (edge1, first
        # registered among equally idle neighbours) — a miss there.
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(2, viewpoint=0.1)])[0]
        assert record.outcome == OUTCOME_MISS
        assert record.edge == "edge1"


GOLDEN_LEAST_LOADED = \
    "1c4e63029de4b75904209743c2d92af071f7abfcb26027e70f334c0ac111760e"


class TestLeastLoadedGoldenDigest:
    def test_least_loaded_byte_identical_to_pr3_balancer(self):
        """offload="least_loaded" reproduces the PR 3 balancer exactly.

        Digest captured at commit 9e69ae5 (pre-affinity) on this
        workload: the rush-hour scenario with the offload policy, 41
        peer offloads among 418 records.
        """
        from repro.eval.experiments.mobility_exp import drive_scenario
        from repro.eval.experiments.overload_exp import (
            build_rush_hour,
            policy_spec,
        )

        dep = build_rush_hour(seed=3, policy=policy_spec("offload"),
                              hot_clients=8, duration_s=60.0,
                              mean_dwell_s=15.0)
        drive_scenario(dep, 60.0, request_interval_s=0.25)
        assert dep.counts()["offloaded_out"] > 0
        assert recorder_digest(dep.recorder) == GOLDEN_LEAST_LOADED


# -- policy/spec knobs --------------------------------------------------------


class TestPolicyKnobs:
    def test_round_trip_with_affinity_fields(self):
        policy = EdgePolicySpec(offload="affinity", queue_limit=3,
                                offload_margin=1, summary_refresh_s=2.5,
                                prewarm_top_k=7, prewarm_layers=4)
        assert EdgePolicySpec.from_dict(policy.to_dict()) == policy

    def test_validation(self):
        with pytest.raises(ValueError):
            EdgePolicySpec(offload="warmest")
        with pytest.raises(ValueError):
            EdgePolicySpec(summary_refresh_s=0.0)
        with pytest.raises(ValueError):
            EdgePolicySpec(prewarm_layers=-1)

    @pytest.mark.parametrize("value", [math.inf, math.nan],
                             ids=["inf", "nan"])
    @pytest.mark.parametrize("field", ["summary_refresh_s",
                                       "layer_plan_margin_s"])
    def test_non_finite_period_raises_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            EdgePolicySpec(**{field: value})

    def test_two_edge_affinity_metro_gossips_and_serves(self,
                                                         make_deployment):
        # ``summary_refresh_s=inf`` used to build this metro, and its
        # first ``_gossip_summaries`` round crashed the run on the
        # non-finite delay.  The spec refuses it now, from a dict too.
        spec = ScenarioSpec.metro(
            n_edges=2, clients_per_edge=1,
            policy=EdgePolicySpec(offload="affinity", summary_refresh_s=1.0))
        data = spec.to_dict()
        data["policy"]["summary_refresh_s"] = math.inf
        with pytest.raises(ValueError, match="summary_refresh_s"):
            ScenarioSpec.from_dict(data)
        dep = make_deployment(spec=spec)
        records = dep.run_tasks(dep.all_clients[0],
                                [dep.recognition_task(3)])
        dep.run_for(2.5)
        assert len(records) == 1
        assert dep.counts()["summaries_sent"] > 0

    def test_affinity_gates_admission(self):
        assert EdgePolicySpec(offload="affinity").gates_admission

    def test_edge_cache_mb_round_trip_and_validation(self):
        edge = EdgeSpec(name="e", cache_mb=0.5)
        assert EdgeSpec.from_dict(edge.to_dict()) == edge
        assert EdgeSpec.from_dict({"name": "e"}).cache_mb is None
        with pytest.raises(ValueError):
            EdgeSpec(name="e", cache_mb=0.0)

    def test_cache_mb_overrides_deployment_capacity(self, make_deployment):
        spec = ScenarioSpec(edges=(EdgeSpec(name="big", cache_mb=1.0),
                                   EdgeSpec(name="small", cache_mb=0.01)))
        dep = make_deployment(spec=spec, edge_workers=2)
        assert dep.cache_by_name["big"].capacity_bytes == 1_000_000
        assert dep.cache_by_name["small"].capacity_bytes == 10_000

    def test_clients_attach_sketch_only_for_affinity(self, affinity_dep):
        dep = affinity_dep()
        assert all(c.attach_sketch for c in dep.all_clients)
        dep = affinity_dep(offload="least_loaded")
        assert not any(c.attach_sketch for c in dep.all_clients)


# -- layer-cache transport ----------------------------------------------------


def layer_spec(prewarm_layers=4, prewarm_top_k=2):
    return ScenarioSpec(
        edges=(EdgeSpec(name="edge0", clients=(ClientSpec(name="m0"),)),
               EdgeSpec(name="edge1")),
        inter_edge=(InterEdgeLinkSpec(a="edge0", b="edge1"),),
        policy=EdgePolicySpec(prewarm_top_k=prewarm_top_k,
                              prewarm_layers=prewarm_layers))


class TestLayerPrewarmTransport:
    def test_layer_entries_ride_the_prewarm_push(self, make_deployment):
        dep = make_deployment(spec=layer_spec(), edge_workers=2)
        manager = dep.layer_managers["edge0"]
        sketch = input_sketch(dep.space.observe(5, 0.0).vector)
        manager.insert(sketch, now=0.0)
        assert dep.prewarm("edge0", "edge1", client_name="m0")
        dep.run_for(5.0)
        assert sum(p.layer_entries for p in dep.prewarm_log) == 4
        event = dep.prewarm_log[0]
        assert event.layer_entries == 4
        assert event.pushed == 0  # no result entries existed yet
        # The push paid real activation bytes, not a token size.
        layer_bytes = sum(
            e.size_bytes for e in dep.cache_by_name["edge1"].entries())
        assert event.size_bytes == 256 + layer_bytes
        assert dep.edges[1].counts["prewarm_received"] == 4
        # The destination can now resume mid-network for this input.
        plan = dep.layer_managers["edge1"].plan(sketch, now=dep.env.now)
        assert plan.resume_after is not None

    def test_layer_managers_absent_without_the_policy(self,
                                                       make_deployment):
        dep = make_deployment(spec=layer_spec(prewarm_layers=0),
                              edge_workers=2)
        assert dep.layer_managers == {}

    def test_result_prewarm_excludes_layer_entries(self, make_deployment):
        dep = make_deployment(spec=layer_spec(prewarm_layers=0,
                                              prewarm_top_k=5),
                              edge_workers=2)
        # prewarm_top_k only: layer entries present in the cache must
        # not consume the result budget.
        cache = dep.cache_by_name["edge0"]
        cache.insert(VectorDescriptor(kind=f"{LAYER_KIND_PREFIX}conv1",
                                      vector=vec(1, dim=SKETCH_DIM)),
                     ("activation", "conv1"), 500)
        cache.insert(VectorDescriptor(kind="recognition", vector=vec(2)),
                     "r", 100)
        assert dep.prewarm("edge0", "edge1")
        dep.run_for(5.0)
        assert sum(p.pushed for p in dep.prewarm_log) == 1
        assert sum(p.layer_entries for p in dep.prewarm_log) == 0
        kinds = {e.kind
                 for e in dep.cache_by_name["edge1"].entries()}
        assert kinds == {"recognition"}

    def test_prewarm_skips_entries_the_destination_holds(self,
                                                          make_deployment):
        dep = make_deployment(spec=layer_spec(prewarm_layers=0,
                                              prewarm_top_k=5),
                              edge_workers=2)
        source, destination = (dep.cache_by_name[name]
                               for name in ("edge0", "edge1"))
        for cache in (source, destination):
            cache.insert(HashDescriptor("model_load", "bb"), "m", 100)
            cache.insert(VectorDescriptor(kind="recognition",
                                          vector=vec(3)), "r", 100)
        source.insert(HashDescriptor("model_load", "aa"), "m", 100)
        assert dep.prewarm("edge0", "edge1")
        dep.run_for(5.0)
        assert [p.pushed for p in dep.prewarm_log] == [1]
        assert len(destination) == 3
        # Once the destination holds every hot key, nothing travels.
        assert not dep.prewarm("edge0", "edge1")
        dep.run_for(5.0)
        assert len(dep.prewarm_log) == 1
