"""Tests for repro.core.pipeline (stages, overload layer, pre-warm).

The default chain's byte-exact goldens live in ``tests/core/test_cluster.py``
(``TestSeedEquivalence``); ``test_inert_policy_builds_the_default_chain``
pins that the default chain is exactly lookup, resolve, respond.
"""

import numpy as np
import pytest

from repro.core import CoICConfig
from repro.core.balancer import PeerLoadBalancer
from repro.core.cache import ICCache
from repro.core.cluster import ClusterDeployment
from repro.core.descriptors import HashDescriptor
from repro.core.metrics import OUTCOME_SHED
from repro.core.pipeline import (
    AdmissionControlStage,
    LookupStage,
    Pipeline,
    RespondStage,
    ResolveStage,
    build_pipeline,
)
from repro.core.scenario import (
    EdgePolicySpec,
    MobilitySpec,
    ScenarioSpec,
)
from repro.net.message import Message


class TestPipelineShape:
    """The chain holds only the stages that can act."""

    def test_default_stage_order(self):
        assert build_pipeline().stage_names == \
            ["lookup", "resolve", "respond"]

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError):
            Pipeline([])

    def test_inert_policy_builds_the_default_chain(self):
        for policy in (None, EdgePolicySpec(),
                       EdgePolicySpec(prewarm_top_k=5)):
            assert [type(stage) for stage in build_pipeline(policy).stages] \
                == [LookupStage, ResolveStage, RespondStage]

    def test_build_pipeline_active_policy_installs_admission(self):
        for policy in (EdgePolicySpec(admission="shed"),
                       EdgePolicySpec(offload="least_loaded"),
                       EdgePolicySpec(admission="redirect", layer_reuse=True)):
            pipeline = build_pipeline(policy)
            assert isinstance(pipeline.stages[0], AdmissionControlStage)
            assert pipeline.stage_names.count("admit") == 1
            assert pipeline.stage_names[-3:] == ["lookup", "resolve",
                                                 "respond"]

    def test_unknown_task_is_refused_before_any_stage(self):
        # No stage can run against a None edge: the TypeError is
        # Pipeline.process's own, raised before the chain starts.
        process = build_pipeline().process(
            None, Message(size_bytes=1, kind="ic_request", payload=object()))
        with pytest.raises(TypeError, match="cannot serve"):
            next(process)


class TestAdmissionControl:
    def test_shed_refuses_past_the_queue_limit(self, make_deployment):
        # queue_limit=0: the edge is "overloaded" from the first request,
        # so every recognition request is refused.
        dep = make_deployment(seed=1,
                              policy=EdgePolicySpec(admission="shed",
                                                    queue_limit=0))
        records = dep.run_tasks(dep.client_by_name["m0"],
                                [dep.recognition_task(1),
                                 dep.recognition_task(2)])
        assert [r.outcome for r in records] == [OUTCOME_SHED, OUTCOME_SHED]
        assert dep.edges[0].counts["shed"] == 2
        assert records[0].edge == "edge0"
        # Shed responses return fast: the latency is dominated by the
        # frame upload — no extraction queueing, no cloud round trip.
        assert records[0].latency_s < 0.5

    def test_shed_does_not_gate_hash_tasks(self, make_deployment):
        dep = make_deployment(seed=1,
                              policy=EdgePolicySpec(admission="shed",
                                                    queue_limit=0))
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.model_load_task(0)])[0]
        assert record.outcome == "miss"
        assert dep.edges[0].counts["shed"] == 0

    def test_shed_outcome_not_counted_in_hit_ratio(self, make_deployment):
        dep = make_deployment(seed=1,
                              policy=EdgePolicySpec(admission="shed",
                                                    queue_limit=0))
        dep.run_tasks(dep.client_by_name["m0"], [dep.recognition_task(1)])
        assert dep.recorder.hit_ratio() == 0.0
        assert len(dep.recorder.select(outcome=OUTCOME_SHED)) == 1

    def test_redirect_relays_to_cloud_without_caching(self,
                                                      make_deployment):
        dep = make_deployment(seed=1,
                              policy=EdgePolicySpec(admission="redirect",
                                                    queue_limit=0))
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(3)])[0]
        assert record.outcome == "miss"
        assert record.correct is True
        assert dep.edges[0].counts["redirects"] == 1
        # No extraction, no insert: the cache never saw the request.
        assert len(dep.caches[0]) == 0

    def test_redirect_without_input_asks_for_the_frame_first(
            self, make_deployment):
        # Descriptor-only clients never uploaded the frame, so a
        # redirecting edge cannot relay it: the need_input two-phase
        # exchange runs first and the re-send (frame attached) is what
        # gets redirected.
        cfg = CoICConfig(seed=1)
        cfg.network.wifi_mbps = 100
        cfg.network.backhaul_mbps = 10
        cfg.recognition.descriptor_source = "client"
        cfg.recognition.attach_input = False
        dep = make_deployment(config=cfg,
                              policy=EdgePolicySpec(admission="redirect",
                                                    queue_limit=0))
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(4)])[0]
        assert record.outcome == "miss"
        assert record.correct is True
        # Exactly one redirect: the descriptor-only first round got
        # need_input, only the frame-attached re-send was relayed.
        assert dep.edges[0].counts["redirects"] == 1
        assert len(dep.caches[0]) == 0

    def test_admission_accepts_below_the_limit(self, make_deployment):
        dep = make_deployment(seed=1,
                              policy=EdgePolicySpec(admission="shed",
                                                    queue_limit=8))
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(1)])[0]
        assert record.outcome == "miss"
        assert dep.edges[0].counts["shed"] == 0


class TestPeerOffload:
    def test_overloaded_edge_borrows_idle_neighbour(self, make_deployment):
        dep = make_deployment(seed=1,
                              policy=EdgePolicySpec(offload="least_loaded",
                                                    queue_limit=0,
                                                    offload_margin=0))
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(5)])[0]
        # Served, not refused — and by the neighbour, which the
        # serving-edge tag proves.
        assert record.outcome == "miss"
        assert record.correct is True
        assert record.edge == "edge1"
        assert dep.edges[0].counts["offloaded_out"] == 1
        assert dep.edges[1].counts["offloaded_in"] == 1
        # The work landed in the neighbour's cache.
        assert len(dep.caches[1]) == 1
        assert len(dep.caches[0]) == 0

    def test_offloaded_result_hits_on_the_neighbour(self, make_deployment):
        dep = make_deployment(seed=1,
                              policy=EdgePolicySpec(offload="least_loaded",
                                                    queue_limit=0,
                                                    offload_margin=0))
        first = dep.run_tasks(dep.client_by_name["m0"],
                              [dep.recognition_task(5, viewpoint=-0.1)])[0]
        dep.env.run()
        second = dep.run_tasks(dep.client_by_name["m1"],
                               [dep.recognition_task(5, viewpoint=0.1)])[0]
        assert first.outcome == "miss"
        assert second.outcome == "hit"
        assert second.edge == "edge1"

    def test_no_offload_without_inter_edge_link(self, make_deployment):
        dep = make_deployment(seed=1, clients=(("m0",), ()),
                              inter_edge=False,
                              policy=EdgePolicySpec(offload="least_loaded",
                                                    queue_limit=0,
                                                    offload_margin=0))
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(1)])[0]
        # No backhaul neighbour: the request is admitted locally.
        assert record.outcome == "miss"
        assert record.edge == "edge0"
        assert dep.edges[0].counts["offloaded_out"] == 0


class TestPeerLoadBalancer:
    class _FakeEdge:
        def __init__(self, load):
            self.load = load

    def test_picks_least_loaded_neighbour(self):
        balancer = PeerLoadBalancer(margin=1)
        balancer.register("a", self._FakeEdge(load=5), ["b", "c"])
        balancer.register("b", self._FakeEdge(load=2), ["a"])
        balancer.register("c", self._FakeEdge(load=1), ["a"])
        assert balancer.pick("a") == "c"

    def test_margin_hysteresis(self):
        balancer = PeerLoadBalancer(margin=3)
        balancer.register("a", self._FakeEdge(load=2), ["b"])
        balancer.register("b", self._FakeEdge(load=0), ["a"])
        assert balancer.pick("a") is None  # 0 + 3 > 2
        balancer = PeerLoadBalancer(margin=2)
        balancer.register("a", self._FakeEdge(load=2), ["b"])
        balancer.register("b", self._FakeEdge(load=0), ["a"])
        assert balancer.pick("a") == "b"  # 0 + 2 <= 2

    def test_inflight_offloads_count_against_target(self):
        balancer = PeerLoadBalancer(margin=1)
        balancer.register("a", self._FakeEdge(load=2), ["b"])
        balancer.register("b", self._FakeEdge(load=0), ["a"])
        assert balancer.pick("a") == "b"
        balancer.note_dispatch("b")
        balancer.note_dispatch("b")
        assert balancer.pick("a") is None  # pending pushed b to load 2
        balancer.note_done("b")
        balancer.note_done("b")
        assert balancer.pick("a") == "b"

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            PeerLoadBalancer(margin=-1)


class TestPrewarmSelection:
    def test_hottest_ranks_by_hits_then_recency(self):
        cache = ICCache(capacity_bytes=10_000)
        for i in range(4):
            cache.insert(HashDescriptor("model_load", f"d{i}"),
                         f"r{i}", 100, now=float(i))
        # d1 twice, d3 once; d0/d2 never.
        cache.lookup(HashDescriptor("model_load", "d1"), now=10.0)
        cache.lookup(HashDescriptor("model_load", "d1"), now=11.0)
        cache.lookup(HashDescriptor("model_load", "d3"), now=12.0)
        top = cache.hottest(2)
        assert [cache.descriptor(e).digest for e in top] == ["d1", "d3"]
        # k larger than the cache: everything, hottest first.
        assert len(cache.hottest(99)) == 4
        assert cache.hottest(0) == []

    def test_hottest_filters_kind(self):
        cache = ICCache(capacity_bytes=10_000)
        cache.insert(HashDescriptor("model_load", "aa"), "r", 100, now=0.0)
        cache.insert(HashDescriptor("panorama", "bb"), "r", 100, now=8.0)
        cache.insert(HashDescriptor("model_load", "cc"), "r", 100, now=8.0)
        every = cache.hottest(10)
        assert [cache.descriptor(e).digest for e in every] == \
            ["bb", "cc", "aa"]
        only_models = cache.hottest(10, kind="model_load")
        assert [cache.descriptor(e).digest for e in only_models] == \
            ["cc", "aa"]

    @pytest.mark.parametrize("where", [
        {}, {"kind": "model_load"}, {"kind_prefix": "layer:"},
        {"exclude_prefix": "layer:"}], ids=lambda w: "-".join(w) or "all")
    @pytest.mark.parametrize("seed", range(4))
    def test_hottest_is_the_head_of_a_full_sort(self, seed, where):
        # Few distinct hit counts and times: ties on both are common,
        # so the entry id must settle the order.
        rng = np.random.default_rng(seed)
        kinds = ("model_load", "panorama", "layer:conv1", "layer:fc")
        cache = ICCache(capacity_bytes=10**6)
        for i in range(60):
            cache.insert(HashDescriptor(kinds[rng.integers(4)], f"{i:x}"),
                         i, 10, now=float(rng.integers(3)))
        entries = cache.entries()
        for _ in range(90):
            entry = entries[rng.integers(len(entries))]
            cache.lookup(cache.descriptor(entry),
                         now=float(rng.integers(3, 6)))
        kind = where.get("kind")
        prefix = where.get("kind_prefix", "")
        excluded = where.get("exclude_prefix")
        ranked = sorted(
            (e for e in entries
             if (kind is None or e.kind == kind) and e.kind.startswith(prefix)
             and not (excluded and e.kind.startswith(excluded))),
            key=lambda e: (-e.hits, -e.last_access, e.entry_id))
        for k in (1, 3, 10, len(ranked), len(ranked) + 5):
            assert cache.hottest(k, **where) == ranked[:k]


def prewarm_metro(prewarm_top_k: int):
    mobility = MobilitySpec(n_places=16, mean_dwell_s=8.0,
                            duration_s=60.0, handoff_latency_s=0.05)
    return ScenarioSpec.metro(
        n_edges=4, clients_per_edge=1, federate=False, mobility=mobility,
        policy=EdgePolicySpec(prewarm_top_k=prewarm_top_k))


class TestPredictiveHandoffPrewarm:
    def test_handoffs_push_hot_entries_ahead_of_the_client(self):
        from repro.eval.experiments.mobility_exp import drive_scenario

        cfg = CoICConfig(seed=0)
        cfg.network.wifi_mbps = 100
        cfg.network.backhaul_mbps = 10
        dep = ClusterDeployment(prewarm_metro(prewarm_top_k=4), config=cfg)
        drive_scenario(dep, 60.0, request_interval_s=2.0)
        assert dep.handoff_log, "scenario must hand off to test pre-warm"
        assert dep.prewarm_log
        for event in dep.prewarm_log:
            assert 0 < event.pushed <= 4
            assert event.src_edge != event.dst_edge

    def test_prewarm_disabled_pushes_nothing(self):
        from repro.eval.experiments.mobility_exp import drive_scenario

        cfg = CoICConfig(seed=0)
        cfg.network.wifi_mbps = 100
        cfg.network.backhaul_mbps = 10
        dep = ClusterDeployment(prewarm_metro(prewarm_top_k=0), config=cfg)
        drive_scenario(dep, 60.0, request_interval_s=2.0)
        assert dep.handoff_log
        assert dep.prewarm_log == []


class TestServingEdgeTag:
    def test_records_tag_the_serving_edge(self):
        dep = ClusterDeployment(ScenarioSpec.single_edge(1),
                                config=CoICConfig(seed=2))
        dep.run_tasks(dep.all_clients[0], [dep.recognition_task(1),
                                           dep.model_load_task(0),
                                           dep.panorama_task(0, 1)])
        dep.env.run()
        assert all(r.edge == "edge" for r in dep.recorder.records)
        assert len(dep.recorder.select(edge="edge")) == 3
        assert dep.recorder.select(edge="elsewhere") == []

    def test_baseline_records_have_no_edge(self):
        dep = ClusterDeployment(ScenarioSpec.single_edge(1),
                                config=CoICConfig(seed=2))
        dep.run_tasks(dep.origin_clients[0], [dep.recognition_task(1)])
        assert dep.recorder.records[-1].edge == ""


class TestEdgePolicySpec:
    def test_round_trip(self):
        policy = EdgePolicySpec(admission="shed", queue_limit=3,
                                offload="least_loaded",
                                offload_margin=1, prewarm_top_k=7)
        assert EdgePolicySpec.from_dict(policy.to_dict()) == policy

    def test_round_trip_through_scenario(self, make_spec):
        spec = make_spec(policy=EdgePolicySpec(admission="redirect"))
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.policy == spec.policy
        assert ScenarioSpec.from_dict(
            ScenarioSpec.single_edge().to_dict()).policy is None

    def test_validation(self):
        with pytest.raises(ValueError):
            EdgePolicySpec(admission="maybe")
        with pytest.raises(ValueError):
            EdgePolicySpec(offload="round_robin")
        with pytest.raises(ValueError):
            EdgePolicySpec(queue_limit=-1)
        with pytest.raises(ValueError):
            EdgePolicySpec(prewarm_top_k=-2)

    def test_gates_admission(self):
        assert not EdgePolicySpec().gates_admission
        assert not EdgePolicySpec(prewarm_top_k=5).gates_admission
        assert EdgePolicySpec(admission="shed").gates_admission
        assert EdgePolicySpec(offload="least_loaded").gates_admission
