"""Load-behaviour tests: worker pools, queueing, and congestion.

The deployment's bounded resources must produce the queueing phenomena a
real edge shows — these tests pin that behaviour so calibration changes
don't silently turn the edge into an infinitely parallel machine.
"""

import pytest

from repro.core import ClusterDeployment, CoICConfig, ScenarioSpec


def build_coic_deployment(edge_workers=1, cloud_workers=8, n_clients=4,
                    wifi=400, backhaul=40):
    config = CoICConfig()
    config.network.wifi_mbps = wifi
    config.network.backhaul_mbps = backhaul
    config.edge_workers = edge_workers
    config.cloud_workers = cloud_workers
    return ClusterDeployment(
        ScenarioSpec.single_edge(n_clients), config=config)


class TestEdgeWorkerContention:
    def test_single_worker_serializes_extractions(self):
        """With one edge worker, simultaneous recognitions queue."""
        dep = build_coic_deployment(edge_workers=1, n_clients=2)
        plan = [
            (0.0, dep.all_clients[0], dep.recognition_task(0)),
            (0.0, dep.all_clients[1], dep.recognition_task(1)),
        ]
        dep.run_concurrent(plan)
        latencies = sorted(r.latency_s for r in dep.recorder.records)
        extraction = dep.edge_recognizers[0].extraction_time()
        # The second request waits out the first's extraction.
        assert latencies[1] - latencies[0] >= extraction * 0.9

    def test_more_workers_remove_queueing(self):
        def spread(workers):
            dep = build_coic_deployment(edge_workers=workers, n_clients=2)
            plan = [
                (0.0, dep.all_clients[0], dep.recognition_task(0)),
                (0.0, dep.all_clients[1], dep.recognition_task(1)),
            ]
            dep.run_concurrent(plan)
            latencies = sorted(r.latency_s for r in dep.recorder.records)
            return latencies[1] - latencies[0]

        assert spread(2) < spread(1) * 0.5


class TestCloudQueueing:
    def test_bounded_cloud_queues_origin_floods(self):
        """More simultaneous origin requests than workers => queueing."""
        dep = build_coic_deployment(cloud_workers=1, n_clients=4)
        plan = [(0.0, dep.origin_clients[i], dep.recognition_task(i))
                for i in range(4)]
        dep.run_concurrent(plan)
        latencies = sorted(r.latency_s for r in dep.recorder.records)
        inference = dep.cloud_recognizer.inference_time()
        # The last request waited behind three inferences.
        assert latencies[-1] - latencies[0] >= 2.5 * inference


class TestBackhaulCongestion:
    def test_shared_backhaul_slows_concurrent_misses(self):
        """Two cold misses at once share the edge->cloud pipe."""
        solo = build_coic_deployment(n_clients=1, backhaul=10)
        record = solo.run_tasks(solo.all_clients[0],
                                [solo.recognition_task(0)])[0]
        solo_latency = record.latency_s

        dep = build_coic_deployment(n_clients=2, backhaul=10)
        plan = [(0.0, dep.all_clients[i], dep.recognition_task(i))
                for i in range(2)]
        dep.run_concurrent(plan)
        slowest = max(r.latency_s for r in dep.recorder.records)
        assert slowest > solo_latency * 1.3

    def test_hits_bypass_congested_backhaul(self):
        """A warm cache shields users from backhaul congestion."""
        dep = build_coic_deployment(n_clients=3, backhaul=10)
        # Warm with one object.
        dep.run_tasks(dep.all_clients[0],
                      [dep.recognition_task(0, viewpoint=-0.2)])
        # One user floods the backhaul with a cold miss while another
        # hits the warm entry.
        plan = [
            (0.0, dep.all_clients[1], dep.recognition_task(5)),
            (0.0, dep.all_clients[2],
             dep.recognition_task(0, viewpoint=0.2)),
        ]
        dep.run_concurrent(plan)
        hit = next(r for r in dep.recorder.records if r.outcome == "hit")
        miss = next(r for r in dep.recorder.records
                    if r.outcome == "miss" and r.start_s > 0 or
                    r.outcome == "miss")
        assert hit.latency_s < miss.latency_s


class TestCoalescingUnderLoad:
    def test_panorama_thundering_herd_collapses_to_one_fetch(self):
        dep = build_coic_deployment(n_clients=4, backhaul=20)
        task = dep.panorama_task(0, 0)
        plan = [(0.001 * i, dep.all_clients[i], task) for i in range(4)]
        dep.run_concurrent(plan)
        # One render at the cloud; three coalesced hits.
        assert dep.cloud.counts["requests_served"] == 1
        outcomes = sorted(r.outcome for r in dep.recorder.records)
        assert outcomes == ["hit", "hit", "hit", "miss"]
