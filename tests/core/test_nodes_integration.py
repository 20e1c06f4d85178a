"""Integration tests: client + edge + cloud over the simulated network.

These drive full request pipelines through a single-edge
:class:`~repro.core.cluster.ClusterDeployment` and verify the semantics
the figures depend on: hit/miss outcomes, latency ordering, coalescing,
error surfacing and multi-tenant isolation.
"""

import pytest

from repro.core import ClusterDeployment, CoICConfig, ScenarioSpec


def build_coic_deployment(n_clients=2, **net_overrides):
    config = CoICConfig()
    config.network.wifi_mbps = net_overrides.get("wifi_mbps", 100)
    config.network.backhaul_mbps = net_overrides.get("backhaul_mbps", 10)
    for key, value in net_overrides.items():
        setattr(config.network, key, value)
    return ClusterDeployment(
        ScenarioSpec.single_edge(n_clients), config=config)


class TestRecognitionPipeline:
    def test_miss_then_hit_across_users(self):
        dep = build_coic_deployment()
        t1 = dep.recognition_task(5, viewpoint=-0.2)
        r1 = dep.run_tasks(dep.all_clients[0], [t1])[0]
        t2 = dep.recognition_task(5, viewpoint=0.2)
        r2 = dep.run_tasks(dep.all_clients[1], [t2])[0]
        assert (r1.outcome, r2.outcome) == ("miss", "hit")
        assert r2.latency_s < r1.latency_s
        assert r2.correct

    def test_different_objects_do_not_collide(self):
        dep = build_coic_deployment()
        dep.run_tasks(dep.all_clients[0], [dep.recognition_task(5)])
        r = dep.run_tasks(dep.all_clients[1], [dep.recognition_task(6)])[0]
        assert r.outcome == "miss"
        assert r.correct

    def test_latency_ordering_hit_origin_miss(self):
        dep = build_coic_deployment()
        origin = dep.run_tasks(dep.origin_clients[0],
                               [dep.recognition_task(3)])[0]
        miss = dep.run_tasks(dep.all_clients[0],
                             [dep.recognition_task(3, viewpoint=0.1)])[0]
        hit = dep.run_tasks(dep.all_clients[1],
                            [dep.recognition_task(3, viewpoint=0.3)])[0]
        assert hit.latency_s < origin.latency_s < miss.latency_s

    def test_local_baseline_no_network(self):
        dep = build_coic_deployment()
        record = dep.run_tasks(dep.local_clients[0],
                               [dep.recognition_task(2)])[0]
        assert record.outcome == "local"
        # Pure compute: equals the mobile device's inference time.
        assert record.latency_s == pytest.approx(
            dep.mobile_recognizer.inference_time())

    def test_client_descriptor_source(self):
        config = CoICConfig()
        config.recognition.descriptor_source = "client"
        dep = ClusterDeployment(ScenarioSpec.single_edge(2), config=config)
        r1 = dep.run_tasks(dep.all_clients[0], [dep.recognition_task(1)])[0]
        r2 = dep.run_tasks(dep.all_clients[1],
                           [dep.recognition_task(1, viewpoint=0.3)])[0]
        assert (r1.outcome, r2.outcome) == ("miss", "hit")

    def test_client_descriptor_without_attached_input(self):
        """Two-phase miss: edge NACKs, client re-sends with the frame."""
        config = CoICConfig()
        config.recognition.descriptor_source = "client"
        config.recognition.attach_input = False
        dep = ClusterDeployment(ScenarioSpec.single_edge(2), config=config)
        r1 = dep.run_tasks(dep.all_clients[0], [dep.recognition_task(1)])[0]
        assert r1.outcome == "miss"
        r2 = dep.run_tasks(dep.all_clients[1],
                           [dep.recognition_task(1, viewpoint=0.2)])[0]
        assert r2.outcome == "hit"

    def test_speculative_forward_miss_near_origin(self):
        dep_seq = build_coic_deployment()
        origin = dep_seq.run_tasks(dep_seq.origin_clients[0],
                                   [dep_seq.recognition_task(1)])[0]
        config = CoICConfig()
        config.network.wifi_mbps = 100
        config.network.backhaul_mbps = 10
        config.recognition.speculative_forward = True
        dep = ClusterDeployment(ScenarioSpec.single_edge(1), config=config)
        miss = dep.run_tasks(dep.all_clients[0], [dep.recognition_task(1)])[0]
        assert miss.outcome == "miss"
        assert miss.latency_s <= origin.latency_s * 1.05


class TestModelLoadPipeline:
    def test_miss_returns_raw_hit_returns_parsed(self):
        dep = build_coic_deployment()
        task = dep.model_load_task(0)
        r1 = dep.run_tasks(dep.all_clients[0], [task])[0]
        assert r1.outcome == "miss" and r1.detail["parsed"] is False
        dep.env.run()  # background edge parse
        r2 = dep.run_tasks(dep.all_clients[1], [task])[0]
        assert r2.outcome == "hit" and r2.detail["parsed"] is True
        assert r2.latency_s < r1.latency_s

    def test_concurrent_misses_coalesce(self):
        dep = build_coic_deployment()
        task = dep.model_load_task(4)  # largest: long fetch window
        dep.run_concurrent([
            (0.0, dep.all_clients[0], task),
            (0.1, dep.all_clients[1], task),
        ])
        # Exactly one cloud fetch: the second request rode the first.
        assert dep.cloud.counts["requests_served"] == 1
        outcomes = sorted(r.outcome for r in dep.recorder.records)
        assert outcomes == ["hit", "miss"]

    def test_waiters_released_by_a_failed_fetch_refetch_one_at_a_time(self):
        # The first fetch times out and releases both waiters at once.
        # Each used to register its own marker and fetch: two fetches of
        # one digest in flight.  Now the first refetches and the second
        # rides it.
        dep = build_coic_deployment(n_clients=3)
        dep.config.request_timeout_s = 2.0
        edge = dep.edges[0]
        forward, in_flight, most = edge._cloud_call, [0], [0]

        def cloud_call(task):
            pending = forward(task)
            in_flight[0] += 1
            most[0] = max(most[0], in_flight[0])
            pending.callbacks.append(
                lambda _: in_flight.__setitem__(0, in_flight[0] - 1))
            return pending

        edge._cloud_call = cloud_call
        task = dep.model_load_task(4)
        dep.run_concurrent([(0.1 * i, client, task)
                            for i, client in enumerate(dep.all_clients)])
        dep.env.run(until=dep.env.now + 30.0)
        assert dep.cloud.counts["requests_served"] == 3
        assert most[0] == 1

    def test_cache_stores_loaded_bytes(self):
        dep = build_coic_deployment()
        task = dep.model_load_task(1)
        dep.run_tasks(dep.all_clients[0], [task])
        dep.env.run()
        entries = dep.caches[0].entries()
        assert len(entries) == 1
        assert entries[0].size_bytes == task.loaded_bytes


class TestPanoramaPipeline:
    def test_hit_after_miss(self):
        dep = build_coic_deployment()
        task = dep.panorama_task(0, 3)
        r1 = dep.run_tasks(dep.all_clients[0], [task])[0]
        r2 = dep.run_tasks(dep.all_clients[1], [task])[0]
        assert (r1.outcome, r2.outcome) == ("miss", "hit")

    def test_pose_cells_distinguish(self):
        dep = build_coic_deployment()
        dep.run_tasks(dep.all_clients[0], [dep.panorama_task(0, 3, 0)])
        r = dep.run_tasks(dep.all_clients[1], [dep.panorama_task(0, 3, 1)])[0]
        assert r.outcome == "miss"


class TestFaultHandling:
    def test_lossy_network_still_completes(self):
        dep = build_coic_deployment(loss_rate=0.05)
        records = dep.run_tasks(dep.all_clients[0], [
            dep.recognition_task(i) for i in range(5)])
        assert all(r.outcome in ("hit", "miss") for r in records)

    def test_timeout_surfaces_as_error(self):
        config = CoICConfig()
        config.network.backhaul_mbps = 0.1   # pathological backhaul
        config.request_timeout_s = 0.5
        dep = ClusterDeployment(ScenarioSpec.single_edge(1), config=config)
        record = dep.run_tasks(dep.all_clients[0],
                               [dep.recognition_task(0)])[0]
        assert record.outcome == "error"
        dep.env.run()  # nothing left over crashes the sim


    def test_lost_cloud_reply_surfaces_as_error(self):
        """The cloud hears the request but its reply path is cut: one
        dropped response and an ``error`` record, not a dead simulation."""
        config = CoICConfig()
        config.request_timeout_s = 2.0
        dep = ClusterDeployment(ScenarioSpec.single_edge(1), config=config)
        dep.topology.link("cloud", "edge").set_up(False)
        record = dep.run_tasks(dep.all_clients[0],
                               [dep.recognition_task(0)])[0]
        dep.env.run()
        assert record.outcome == "error"
        assert dep.cloud.counts["requests_served"] == 1
        assert dep.cloud.counts["responses_dropped"] == 1


class TestMetricsPlumbing:
    def test_recorder_sees_all_clients(self):
        dep = build_coic_deployment()
        dep.run_tasks(dep.all_clients[0], [dep.recognition_task(0)])
        dep.run_tasks(dep.all_clients[1],
                      [dep.recognition_task(0, viewpoint=0.3)])
        assert dep.recorder.hit_ratio("recognition") == 0.5
        users = {r.user for r in dep.recorder.records}
        assert users == {"mobile0", "mobile1"}

    def test_cache_stats_consistent_with_outcomes(self):
        dep = build_coic_deployment()
        for i in range(4):
            dep.run_tasks(dep.all_clients[0], [dep.recognition_task(i % 2,
                          viewpoint=0.05 * i)])
        stats = dep.caches[0].stats
        hits = len(dep.recorder.select(outcome="hit"))
        misses = len(dep.recorder.select(outcome="miss"))
        assert stats.hits == hits
        assert stats.misses == misses


class TestSameTickBursts:
    """Same-tick bursts: N requests are N independent lookups."""

    def test_same_tick_burst_is_one_lookup_per_request(self):
        """Four co-located users asking at the same instant cost four
        ``ICCache.lookup`` calls and, with a worker slot each (no
        queueing), the outcomes and latencies of the same four requests
        issued seconds apart."""
        runs = {}
        for label, gap_s in (("burst", 0.0), ("staggered", 3.0)):
            dep = build_coic_deployment(n_clients=4)
            # Warm the cache with one miss so the four can hit.
            dep.run_tasks(dep.all_clients[0], [dep.recognition_task(7)])
            lookups_before = dep.caches[0].stats.lookups
            plan = [(gap_s * i, dep.all_clients[i],
                     dep.recognition_task(7, viewpoint=0.05 * i))
                    for i in range(4)]
            dep.run_concurrent(plan)
            assert dep.caches[0].stats.lookups - lookups_before == 4
            runs[label] = sorted((r.user, r.outcome, r.latency_s)
                                 for r in dep.recorder.records[1:])
        assert [outcome for _, outcome, _ in runs["burst"]] == ["hit"] * 4
        for burst, staggered in zip(runs["burst"], runs["staggered"]):
            assert burst[:2] == staggered[:2]
            assert burst[2] == pytest.approx(staggered[2], rel=1e-12)

    def test_burst_outcomes_match_staggered_requests(self):
        """A same-tick burst and well-separated requests make identical
        match decisions."""
        outcomes = {}
        for label, gap_s in (("burst", 0.0), ("staggered", 3.0)):
            dep = build_coic_deployment(n_clients=3)
            dep.run_tasks(dep.all_clients[0], [dep.recognition_task(4)])
            plan = [(gap_s * i, dep.all_clients[i],
                     dep.recognition_task(4, viewpoint=0.1 * i))
                    for i in range(3)]
            dep.run_concurrent(plan)
            outcomes[label] = [r.outcome for r in dep.recorder.records
                               if r.task_kind == "recognition"]
        assert outcomes["burst"] == outcomes["staggered"]

    def test_federated_miss_probes_the_peer(self):
        """A federated miss probes the peer; the peer answers the vector
        probe with a charged lookup of its own cache."""
        dep = ClusterDeployment(
            ScenarioSpec.federated(n_edges=2, clients_per_edge=1),
            config=CoICConfig())
        # Edge 1 learns the object; edge 0 then hits via the peer probe.
        dep.run_tasks(dep.clients_by_edge[1][0], [dep.recognition_task(3)])
        record = dep.run_tasks(dep.clients_by_edge[0][0],
                               [dep.recognition_task(3, viewpoint=0.2)])[0]
        assert record.outcome in ("hit", "miss")
        counts = dep.edges[0].counts
        assert counts["peer_hits"] + counts["peer_misses"] >= 1
