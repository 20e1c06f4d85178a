"""Tests for partial-inference serving (the layer-reuse stage) and the
shed retry-after backoff.

The tentpole of this PR: with ``EdgePolicySpec.layer_reuse`` the
pipeline reads the layer caches PR 4 only *transported* — extraction
passes seed tap activations, drifted re-captures resume mid-network
(``partial`` outcome), prewarmed entries become servable at the handoff
target, and the knobs stay inert by default (the metro golden digest in
``test_cluster.py`` pins that).
"""

import pytest

from repro.core.metrics import (
    MetricsRecorder,
    OUTCOME_HIT,
    OUTCOME_MISS,
    OUTCOME_PARTIAL,
    RequestRecord,
)
from repro.core.pipeline import (
    LayerReuseStage,
    build_pipeline,
)
from repro.core.scenario import EdgePolicySpec


def reuse_policy(**kwargs):
    return EdgePolicySpec(layer_reuse=True, **kwargs)


class TestPolicyKnobs:
    def test_round_trip(self):
        policy = reuse_policy(layer_plan_margin_s=0.25, prewarm_layers=3,
                              shed_retries=2)
        assert EdgePolicySpec.from_dict(policy.to_dict()) == policy

    def test_validation(self):
        with pytest.raises(ValueError):
            EdgePolicySpec(layer_plan_margin_s=-0.1)
        with pytest.raises(ValueError):
            EdgePolicySpec(shed_retries=-1)

    def test_uses_layer_cache(self):
        assert not EdgePolicySpec().uses_layer_cache
        assert EdgePolicySpec(prewarm_layers=2).uses_layer_cache
        assert reuse_policy().uses_layer_cache

    def test_layer_reuse_does_not_gate_admission(self):
        assert not reuse_policy().gates_admission


class TestPipelineWiring:
    def test_stage_sits_just_before_lookup(self):
        pipeline = build_pipeline(reuse_policy())
        assert pipeline.stage_names == \
            ["layer_reuse", "lookup", "resolve", "respond"]
        assert isinstance(pipeline.stages[0], LayerReuseStage)

    def test_inert_policy_keeps_the_default_chain(self):
        assert build_pipeline(EdgePolicySpec()).stage_names == \
            build_pipeline().stage_names

    def test_composes_with_admission_control(self):
        pipeline = build_pipeline(reuse_policy(admission="shed"))
        assert pipeline.stage_names[:3] == \
            ["admit", "layer_reuse", "lookup"]


class TestPartialServing:
    def test_extraction_seeds_then_drifted_capture_resumes(
            self, make_deployment):
        dep = make_deployment(clients=(("m0", "m1"), ()),
                              policy=reuse_policy())
        # Cold capture: misses to the cloud, but its extraction seeds
        # the backbone taps (conv1..conv5 for vgg16) under its sketch.
        first = dep.run_tasks(dep.client_by_name["m0"],
                              [dep.recognition_task(7, viewpoint=0.0,
                                                    user="m0", seq=0)])[0]
        assert first.outcome == OUTCOME_MISS
        edge = dep.edges[0]
        assert edge.counts["layer_seeded"] == 5
        assert edge.layer_manager is dep.layer_managers["edge0"]
        # Layer entries are priced in *seconds* on the producing device
        # (not raw GFLOPs), so cost-aware eviction in the shared cache
        # compares them fairly against cloud-fetched result entries.
        device = edge.recognizer.device
        deepest = max(
            (e for e in dep.caches[0].entries()
             if e.kind.startswith("layer:")),
            key=lambda e: e.cost_s)
        assert deepest.cost_s == pytest.approx(
            device.seconds_for_gflops(
                edge.layer_manager.network.backbone_gflops))
        # Drifted re-capture: past the descriptor threshold, inside the
        # shallow/middle layer thresholds -> partial resume.
        second = dep.run_tasks(dep.client_by_name["m1"],
                               [dep.recognition_task(7, viewpoint=5.0,
                                                     user="m1", seq=0)])[0]
        assert second.outcome == OUTCOME_PARTIAL
        assert second.correct is True
        assert second.resume_layer is not None
        assert second.saved_s > 0.0
        assert second.latency_s < first.latency_s / 2
        assert edge.counts["partial"] == 1
        assert edge.counts["partial_saved_s"] == pytest.approx(second.saved_s)

    def test_reuse_compounds_across_drift_chains(self, make_deployment):
        dep = make_deployment(clients=(("m0", "m1"), ()),
                              policy=reuse_policy())
        run = lambda client, vp, seq: dep.run_tasks(
            dep.client_by_name[client],
            [dep.recognition_task(7, viewpoint=vp, user=client,
                                  seq=seq)])[0]
        run("m0", 0.0, 0)
        second = run("m1", 5.0, 0)
        # The partial serve re-cached the taps it computed under its own
        # sketch, so a capture near *it* (but far from the original)
        # resumes deeper than the first drift did.
        third = run("m0", 5.5, 1)
        assert second.outcome == OUTCOME_PARTIAL
        assert third.outcome == OUTCOME_PARTIAL
        network = dep.layer_managers["edge0"].network
        assert network.layer_index(third.resume_layer) >= \
            network.layer_index(second.resume_layer)

    def test_margin_rejects_thin_plans_but_still_seeds(
            self, make_deployment):
        # Margin above the whole inference time: no plan can save that
        # much, so every request walks the default path — yet the
        # declined probes still leave the sketch for seeding.
        dep = make_deployment(clients=(("m0", "m1"), ()),
                              policy=reuse_policy(layer_plan_margin_s=5.0))
        outcomes = [dep.run_tasks(
            dep.client_by_name[c],
            [dep.recognition_task(7, viewpoint=vp, user=c, seq=0)]
        )[0].outcome for c, vp in (("m0", 0.0), ("m1", 5.0))]
        assert OUTCOME_PARTIAL not in outcomes
        assert dep.edges[0].counts["partial"] == 0
        assert dep.edges[0].counts["layer_seeded"] > 0

    def test_client_descriptor_requests_never_seed(self, make_config,
                                                   make_deployment):
        # Client-computed descriptors are *planned* against the layer
        # cache (regression test below) but the edge never runs the
        # backbone for them, so there is nothing to seed: pure
        # client-descriptor traffic leaves the layer cache empty and
        # can never produce a partial on its own.
        cfg = make_config()
        cfg.recognition.descriptor_source = "client"
        dep = make_deployment(config=cfg, clients=(("m0", "m1"), ()),
                              policy=reuse_policy())
        for client, vp in (("m0", 0.0), ("m1", 5.0)):
            record = dep.run_tasks(
                dep.client_by_name[client],
                [dep.recognition_task(7, viewpoint=vp, user=client,
                                      seq=0)])[0]
            assert record.outcome != OUTCOME_PARTIAL
        assert dep.edges[0].counts["layer_seeded"] == 0
        assert dep.edges[0].counts["partial"] == 0

    def test_client_descriptor_requests_consume_layer_entries(
            self, make_config, make_deployment):
        # Regression (PR 9 residual fix): the layer-reuse stage used to
        # bypass any request arriving with a client-computed descriptor.
        # It now folds the shipped vector into sketch space — identical
        # to the edge-computed sketch, since capture extraction is
        # deterministic — so cached taps serve these requests too.
        from repro.core.sketch import input_sketch

        cfg = make_config()
        cfg.recognition.descriptor_source = "client"
        dep = make_deployment(config=cfg, clients=(("m0",), ()),
                              policy=reuse_policy())
        task = dep.recognition_task(7, viewpoint=0.0, user="m0", seq=0)
        observation = dep.edge_by_name["edge0"].recognizer.extract(
            task.frame)
        manager = dep.layer_managers["edge0"]
        manager.insert(input_sketch(observation.vector),
                       layers=manager.layers_through(
                           manager.network.feature_layer))
        record = dep.run_tasks(dep.client_by_name["m0"], [task])[0]
        assert record.outcome == OUTCOME_PARTIAL
        assert record.correct is True
        assert dep.edges[0].counts["partial"] == 1
        # Consuming still never seeds: the pre-inserted taps are all
        # the layer cache ever holds.
        assert dep.edges[0].counts["layer_seeded"] == 0

    def test_prewarmed_layer_entries_become_servable(self,
                                                     make_deployment):
        # The loop PR 4 left open: activations shipped by the pre-warm
        # push are *served* by the target's pipeline, before that edge
        # ever extracted anything itself.
        dep = make_deployment(
            clients=(("m0",), ()),
            policy=reuse_policy(prewarm_top_k=4, prewarm_layers=8))
        dep.run_tasks(dep.client_by_name["m0"],
                      [dep.recognition_task(7, viewpoint=0.0, user="m0",
                                            seq=0)])
        assert dep.prewarm("edge0", "edge1", client_name="m0")
        dep.run_for(10.0)
        assert sum(p.layer_entries for p in dep.prewarm_log) > 0
        client = dep.client_by_name["m0"]
        dep.env.run(until=dep.env.process(dep.handoff(client, "edge1")))
        record = dep.run_tasks(client,
                               [dep.recognition_task(7, viewpoint=5.0,
                                                     user="m0", seq=1)])[0]
        assert record.outcome == OUTCOME_PARTIAL
        assert record.edge == "edge1"
        hub = dep.edge_by_name["edge1"]
        assert hub.counts["partial"] == 1

    def test_recapture_resumes_at_the_feature_tap_then_full_result(
            self, make_deployment):
        dep = make_deployment(clients=(("m0", "m1"), ()),
                              policy=reuse_policy())
        network = dep.layer_managers["edge0"].network
        run = lambda client, vp, seq: dep.run_tasks(
            dep.client_by_name[client],
            [dep.recognition_task(7, viewpoint=vp, user=client,
                                  seq=seq)])[0]
        run("m0", 0.0, 0)
        # A near-identical capture can resume no deeper than the
        # feature tap: the miss path's extraction only ran the backbone
        # (the *cloud* ran the head), so only conv taps were seeded.
        second = run("m1", 0.05, 0)
        assert second.outcome == OUTCOME_PARTIAL
        assert second.resume_layer == network.feature_layer
        assert second.latency_s < 0.5
        # The partial serve just cached the head taps it computed — a
        # third capture nearby reuses the *final* layer: zero resume
        # compute, the deepest grain of the Potluck spectrum.
        third = run("m0", 0.1, 1)
        assert third.outcome == OUTCOME_PARTIAL
        assert third.resume_layer == network.layers[-1].name
        assert third.saved_s == pytest.approx(
            dep.edges[0].recognizer.inference_time())
        # The reused payload is the cached result, which here matches.
        assert third.correct is True

    def test_false_full_result_reuse_is_scored_incorrect(
            self, make_deployment):
        from repro.core.sketch import input_sketch
        from repro.vision.recognition import RecognitionResult

        dep = make_deployment(clients=(("m0",), ()),
                              policy=reuse_policy())
        manager = dep.layer_managers["edge0"]
        final = manager.network.layers[-1].name
        # Poison the final tap: a class-7 capture's sketch cached with
        # another object's result — the stand-in for a sketch collision
        # across objects (a false match the tightened deep threshold is
        # meant to make rare, not impossible).
        sketch = input_sketch(dep.space.observe(7, 0.0, noise_key=1).vector)
        manager.insert(sketch, layers=[final],
                       result=RecognitionResult(label=99, confidence=0.9))
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(7, viewpoint=0.0,
                                                     user="m0", seq=0)])[0]
        # Served as a full-result reuse of the *cached* payload: the
        # wrong label comes back and accuracy records the false hit.
        assert record.outcome == OUTCOME_PARTIAL
        assert record.resume_layer == final
        assert record.correct is False
        assert record.detail["label"] == 99

    def test_drifted_resume_carries_the_source_class(
            self, make_deployment):
        # Regression: resumed partials used to call the oracle
        # recognizer on the *request's* frame, so a resume from another
        # object's activations still came back "correct" — the sim
        # could never observe stale-reuse errors the real system makes.
        # Activations cached from a class-99 capture whose sketch
        # drifted past the descriptor match threshold (but inside the
        # shallow tap thresholds) must surface class 99, scored
        # incorrect.
        from repro.core.distance import pairwise
        from repro.core.sketch import input_sketch

        dep = make_deployment(clients=(("m0",), ()),
                              policy=reuse_policy())
        edge = dep.edge_by_name["edge0"]
        manager = dep.layer_managers["edge0"]
        task = dep.recognition_task(7, viewpoint=0.0, user="m0", seq=0)
        request = input_sketch(edge.recognizer.extract(task.frame).vector)
        # Stand-in for a cross-object sketch collision: geometry from a
        # far viewpoint of class 7, activations recorded as class 99.
        cached = input_sketch(dep.space.observe(7, 6.0, noise_key=1).vector)
        drift = pairwise(request, cached)
        # Precondition for the bug: past the descriptor threshold yet
        # inside the shallowest tap threshold, so the plan resumes.
        assert edge.match_threshold < drift < manager.base_threshold
        manager.insert(cached,
                       layers=manager.layers_through(
                           manager.network.feature_layer),
                       source_class=99)
        record = dep.run_tasks(dep.client_by_name["m0"], [task])[0]
        assert record.outcome == OUTCOME_PARTIAL
        assert record.resume_layer is not None
        assert record.correct is False
        assert record.detail["label"] == 99

    def test_payload_less_final_tap_cannot_serve_full_result(
            self, make_deployment):
        from repro.core.sketch import input_sketch

        dep = make_deployment(clients=(("m0",), ()),
                              policy=reuse_policy())
        manager = dep.layer_managers["edge0"]
        final = manager.network.layers[-1].name
        # A legacy marker-only insert: the final tap exists but carries
        # no result to serve.  Full-result reuse must decline (there is
        # nothing to return) rather than oracle-substitute a correct
        # answer; with no shallower taps cached the request misses.
        sketch = input_sketch(dep.space.observe(7, 0.0, noise_key=1).vector)
        manager.insert(sketch, layers=[final])
        # plan() agrees with the serving walk: no promised free reuse.
        assert manager.plan(sketch).resume_after is None
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(7, viewpoint=0.0,
                                                     user="m0", seq=0)])[0]
        assert record.outcome == OUTCOME_MISS
        assert dep.edges[0].counts["partial"] == 0


class TestPartialMetrics:
    @staticmethod
    def record(outcome, edge="edge0", saved=0.0, start=0.0, end=1.0):
        detail = {"saved_s": saved} if outcome == OUTCOME_PARTIAL else {}
        return RequestRecord(task_kind="recognition", outcome=outcome,
                             user="u", start_s=start, end_s=end,
                             detail=detail, edge=edge)

    def test_partial_ratio_and_saved_compute(self):
        recorder = MetricsRecorder()
        for outcome, saved in ((OUTCOME_HIT, 0.0), (OUTCOME_MISS, 0.0),
                               (OUTCOME_PARTIAL, 0.5),
                               (OUTCOME_PARTIAL, 0.25), ("shed", 0.0)):
            recorder.record(self.record(outcome, saved=saved))
        assert recorder.partial_ratio() == pytest.approx(0.5)
        assert recorder.saved_compute_s() == pytest.approx(0.75)
        # Sheds are excluded, exactly like hit_ratio.
        assert recorder.hit_ratio() == pytest.approx(0.5)

    def test_partial_ratio_empty(self):
        assert MetricsRecorder().partial_ratio() == 0.0
        assert MetricsRecorder().saved_compute_s() == 0.0


class TestShedRetryAfter:
    def shed_dep(self, make_deployment, **policy_kwargs):
        return make_deployment(
            seed=1,
            policy=EdgePolicySpec(admission="shed", queue_limit=0,
                                  **policy_kwargs))

    def test_shed_response_carries_drain_estimate(self, make_deployment):
        dep = self.shed_dep(make_deployment)
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(1)])[0]
        assert record.outcome == "shed"
        # Empty queue: the hint is one extraction per worker slot.
        edge = dep.edges[0]
        expected = edge.recognizer.extraction_time() / edge.compute.capacity
        assert record.detail["retry_after_s"] == pytest.approx(expected)

    def test_client_backs_off_and_retries(self, make_deployment,
                                          seeded_rng):
        # queue_limit=0 sheds forever: the retry budget is spent, the
        # final outcome is still shed, and the backoff pushed latency
        # past the (jittered) hint.
        dep = self.shed_dep(make_deployment)
        client = dep.client_by_name["m0"]
        client.shed_retries = 2
        client.backoff_rng = seeded_rng(3)
        record = dep.run_tasks(client, [dep.recognition_task(1)])[0]
        assert record.outcome == "shed"
        assert record.detail["retries"] == 2
        assert client.shed_retried == 2
        edge = dep.edges[0]
        hint = edge.recognizer.extraction_time() / edge.compute.capacity
        assert record.latency_s > 2 * hint

    def test_backoff_retry_can_succeed(self, make_deployment):
        # Transient overload: one worker, queue_limit=1.  Three near-
        # simultaneous requests: the third finds a backlog, is shed with
        # a drain estimate, waits it out, and is served on the re-send.
        dep = make_deployment(
            seed=1, edge_workers=1,
            clients=(("m0", "m1", "m2"), ()),
            policy=EdgePolicySpec(admission="shed", queue_limit=1))
        retrier = dep.client_by_name["m2"]
        retrier.shed_retries = 3
        dep.run_concurrent([
            (0.0, dep.client_by_name["m0"], dep.recognition_task(1)),
            (0.001, dep.client_by_name["m1"], dep.recognition_task(2)),
            (0.002, retrier, dep.recognition_task(3)),
        ])
        record = [r for r in dep.recorder.records if r.user == "m2"][0]
        assert record.outcome == OUTCOME_MISS
        assert record.detail["retries"] >= 1
        assert retrier.shed_retried >= 1
        assert dep.edges[0].counts["shed"] >= 1

    def test_policy_wires_backoff_into_every_client(self,
                                                    make_deployment):
        dep = make_deployment(
            seed=1, policy=EdgePolicySpec(admission="shed", queue_limit=0,
                                          shed_retries=1))
        assert all(c.shed_retries == 1 and c.backoff_rng is not None
                   for c in dep.all_clients)
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(1)])[0]
        assert record.outcome == "shed"
        assert record.detail["retries"] == 1
        # Without the knob nothing is wired (no extra RNG streams).
        plain = self.shed_dep(make_deployment)
        assert all(c.shed_retries == 0 and c.backoff_rng is None
                   for c in plain.all_clients)

    def test_zero_retries_keeps_the_old_behaviour(self, make_deployment):
        dep = self.shed_dep(make_deployment)
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.recognition_task(1)])[0]
        assert record.outcome == "shed"
        assert "retries" not in record.detail
        assert dep.client_by_name["m0"].shed_retried == 0
