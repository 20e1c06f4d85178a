"""The single-edge testbed built the only way there is:
``ClusterDeployment(ScenarioSpec.single_edge(n))`` — shape, task
factories and run helpers.  (The file keeps the name of the facade
module these tests were written against, so their ids stay stable.)
"""

import pytest

from repro.core import ClusterDeployment, CoICConfig, ScenarioSpec


def single_edge(config=None, n_clients=1):
    return ClusterDeployment(ScenarioSpec.single_edge(n_clients),
                             config=config)


class TestConstruction:
    def test_default_deployment_shape(self):
        dep = single_edge(n_clients=3)
        assert len(dep.all_clients) == 3
        assert len(dep.origin_clients) == 3
        assert "edge" in dep.topology.hosts
        assert "cloud" in dep.topology.hosts
        assert dep.topology.shortest_path("mobile2", "cloud") == \
            ["mobile2", "edge", "cloud"]

    def test_n_clients_validated(self):
        with pytest.raises(ValueError):
            single_edge(n_clients=0)

    def test_network_config_applied(self):
        config = CoICConfig()
        config.network.wifi_mbps = 90
        config.network.backhaul_mbps = 9
        dep = single_edge(config)
        assert dep.topology.link("mobile0", "edge").bandwidth_bps == 90e6
        assert dep.backhaul["edge"][0].bandwidth_bps == 9e6

    def test_catalog_built_from_config(self):
        config = CoICConfig()
        config.rendering.catalog_sizes_kb = (100, 200)
        dep = single_edge(config)
        assert set(dep.catalog) == {0, 1}
        digest0, size0 = dep.catalog[0]
        assert size0 == 100 * 1024
        int(digest0, 16)  # valid hex

    def test_catalog_digests_unique(self):
        dep = single_edge()
        digests = [d for d, _ in dep.catalog.values()]
        assert len(set(digests)) == len(digests)

    def test_same_seed_same_deployment_behaviour(self):
        def run_once():
            dep = single_edge(CoICConfig(seed=5), n_clients=1)
            record = dep.run_tasks(dep.all_clients[0],
                                   [dep.recognition_task(3)])[0]
            return record.latency_s

        assert run_once() == run_once()


class TestTaskFactories:
    def test_recognition_task_unique_captures(self):
        dep = single_edge()
        t1 = dep.recognition_task(1)
        t2 = dep.recognition_task(1)
        assert t1.frame.capture_id != t2.frame.capture_id

    def test_recognition_task_resolution_from_config(self):
        config = CoICConfig()
        config.recognition.resolution = "1080p"
        dep = single_edge(config)
        assert dep.recognition_task(0).frame.resolution.name == "1080p"

    def test_model_load_task_from_catalog(self):
        dep = single_edge()
        task = dep.model_load_task(2)
        assert task.digest == dep.catalog[2][0]
        with pytest.raises(KeyError):
            dep.model_load_task(999)

    def test_panorama_task_uses_vr_config(self):
        config = CoICConfig()
        config.vr.resolution = "8k"
        dep = single_edge(config)
        task = dep.panorama_task(0, 1, 0)
        assert task.panorama.resolution.name == "8k"


class TestRunHelpers:
    def test_run_tasks_sequential_spacing(self):
        dep = single_edge()
        tasks = [dep.recognition_task(i) for i in range(2)]
        records = dep.run_tasks(dep.local_clients[0], tasks, spacing_s=5.0)
        assert len(records) == 2
        gap = records[1].start_s - records[0].end_s
        assert gap == pytest.approx(5.0)

    def test_run_concurrent_respects_delays(self):
        dep = single_edge(n_clients=2)
        plan = [
            (0.0, dep.local_clients[0], dep.recognition_task(0)),
            (2.0, dep.local_clients[1], dep.recognition_task(1)),
        ]
        dep.run_concurrent(plan)
        starts = sorted(r.start_s for r in dep.recorder.records)
        assert starts[0] == pytest.approx(0.0)
        assert starts[1] == pytest.approx(2.0)
