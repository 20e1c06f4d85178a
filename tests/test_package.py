"""Package-level tests: public API surface and end-to-end determinism."""

import numpy as np
import pytest

import repro


class TestPublicApi:
    def test_top_level_exports(self):
        assert hasattr(repro, "CoICConfig")
        assert hasattr(repro, "ClusterDeployment")
        assert hasattr(repro, "ScenarioSpec")
        assert repro.__version__

    def test_subpackage_imports(self):
        import repro.core
        import repro.eval
        import repro.net
        import repro.render
        import repro.sim
        import repro.vision
        import repro.workload

        # The documented entry points exist.
        assert repro.core.ICCache
        assert repro.sim.Environment
        assert repro.net.Topology
        assert repro.vision.EmbeddingSpace
        assert repro.render.MeshModel
        assert repro.workload.ZipfSampler
        assert repro.eval.format_table


class TestEndToEndDeterminism:
    """The repo's headline guarantee: same seed, same numbers."""

    @staticmethod
    def _run_mixed_workload(seed):
        from repro.core import ClusterDeployment, CoICConfig, ScenarioSpec

        config = CoICConfig(seed=seed)
        config.network.wifi_mbps = 100
        config.network.backhaul_mbps = 10
        config.network.wifi_jitter_ms = 0.5  # exercise the rng path
        dep = ClusterDeployment(ScenarioSpec.single_edge(2), config=config)

        latencies = []
        for i in range(3):
            record = dep.run_tasks(
                dep.all_clients[i % 2],
                [dep.recognition_task(i % 2, viewpoint=0.1 * i)])[0]
            latencies.append(record.latency_s)
        record = dep.run_tasks(dep.all_clients[0],
                               [dep.model_load_task(0)])[0]
        latencies.append(record.latency_s)
        dep.env.run()
        record = dep.run_tasks(dep.all_clients[1],
                               [dep.panorama_task(0, 0)])[0]
        latencies.append(record.latency_s)
        return latencies

    def test_same_seed_identical(self):
        assert self._run_mixed_workload(7) == self._run_mixed_workload(7)

    def test_different_seed_differs(self):
        a = np.asarray(self._run_mixed_workload(7))
        b = np.asarray(self._run_mixed_workload(8))
        assert not np.allclose(a, b)


class TestExamplesRun:
    """Every example's main() completes (smoke; output unchecked)."""

    @pytest.mark.parametrize("module_name", [
        "quickstart", "ar_annotation", "multiuser_arena", "vr_streaming",
        "federated_edges",
    ])
    def test_example(self, module_name, capsys):
        import importlib.util
        import pathlib

        path = (pathlib.Path(__file__).parent.parent / "examples"
                / f"{module_name}.py")
        spec = importlib.util.spec_from_file_location(module_name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        out = capsys.readouterr().out
        assert len(out) > 100  # produced a real report
