"""Tests for the experiment registry and CLI."""

import pytest

from repro.cli import main
from repro.eval.runner import experiment_names, run_experiment


class TestRegistry:
    def test_all_experiments_registered(self):
        names = experiment_names()
        for expected in ("fig2a", "fig2b", "thresholds", "sharing",
                         "eviction", "layers", "privacy", "panorama",
                         "index", "speculative", "federation"):
            assert expected in names

    def test_every_experiment_module_is_registered(self):
        """No orphans: each module under ``eval/experiments/`` backs a
        registry entry, so an experiment nothing can run fails here."""
        import pathlib

        import repro.eval.experiments as package
        from repro.eval import runner

        experiment_names()  # populates the registry
        registered = {fn.__module__ for fn in runner._REGISTRY.values()}
        on_disk = {
            f"{package.__name__}.{path.stem}"
            for path in pathlib.Path(package.__file__).parent.glob("*.py")
            if path.stem != "__init__"}
        assert on_disk == registered

    def test_run_by_name_with_overrides(self):
        result = run_experiment("fig2a", pairs=((90, 9),), repeats=1)
        assert len(result.rows) == 1

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2a" in out and "federation" in out

    def test_run_renders_table(self, capsys):
        assert main(["run", "index"]) == 0
        out = capsys.readouterr().out
        assert "n_entries" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_demo(self, capsys):
        assert main(["demo", "--wifi", "90", "--backhaul", "9"]) == 0
        out = capsys.readouterr().out
        assert "origin" in out and "hit" in out


class TestScenarioCli:
    def test_mobility_experiment_registered(self):
        assert "mobility" in experiment_names()

    def test_scenario_from_file(self, tmp_path, capsys):
        import json

        from repro.core.scenario import MobilitySpec, ScenarioSpec

        spec = ScenarioSpec.metro(
            n_edges=2, clients_per_edge=1,
            mobility=MobilitySpec(mean_dwell_s=5.0, duration_s=20.0))
        path = tmp_path / "city.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert main(["scenario", str(path), "--duration", "20",
                     "--wifi", "100", "--backhaul", "10"]) == 0
        out = capsys.readouterr().out
        assert "2 edges" in out
        assert "hit ratio" in out
        assert "handoffs" in out
        assert "recognition" in out

    def test_scenario_inline_json(self, capsys):
        assert main(["scenario",
                     '{"edges": [{"name": "e0", "clients": ["m0"]}]}',
                     "--duration", "10"]) == 0
        out = capsys.readouterr().out
        assert "1 edges" in out and "hit ratio" in out

    def test_scenario_bad_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"edges": []}')
        assert main(["scenario", str(path)]) == 2
        assert "bad scenario spec" in capsys.readouterr().err

    def test_scenario_profile_prints_hot_functions(self, capsys):
        assert main(["scenario",
                     '{"edges": [{"name": "e0", "clients": ["m0"]}]}',
                     "--duration", "10", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out  # the pstats table header
        assert "_run_wheel" in out  # the kernel hot loop is visible
        assert "hit ratio" in out   # the normal report still follows
