"""Tests for the experiment registry and CLI."""

import pathlib

import pytest

from repro.cli import main
from repro.eval.runner import experiment_names, run_experiment

ROOT = pathlib.Path(__file__).resolve().parents[2]


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

    @pytest.mark.parametrize("option, named", [
        (["--duration", "inf"], "--duration"),
        (["--duration", "nan"], "--duration"),
        (["--interval", "-1"], "--interval"),
        (["--interval", "nan"], "--interval"),
        (["--wifi", "0"], "NetworkConfig.wifi_mbps"),
        (["--wifi", "nan"], "NetworkConfig.wifi_mbps"),
        (["--wifi", "-5"], "NetworkConfig.wifi_mbps"),
        (["--backhaul", "inf"], "NetworkConfig.backhaul_mbps"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_scenario_bad_option_exits_2(self, option, named, capsys):
        # An infinite or NaN duration used to hang, a bad interval to
        # crash the first request loop, and a --wifi override, set on
        # the built config, to crash building the first link.
        spec = ROOT / "examples" / "specs" / "cafes_federated.json"
        assert main(["scenario", str(spec), *option]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad option: ") and named in err

    @pytest.mark.parametrize("option", [["--wifi", "0"],
                                        ["--backhaul", "nan"]],
                             ids=["wifi-0", "backhaul-nan"])
    def test_demo_bad_option_exits_2(self, option, capsys):
        assert main(["demo", *option]) == 2
        assert capsys.readouterr().err.startswith("bad option: ")


def test_drive_scenario_refuses_a_duration_or_interval_out_of_domain():
    from repro.core import ClusterDeployment, ScenarioSpec
    from repro.eval.experiments.mobility_exp import drive_scenario

    deployment = ClusterDeployment(ScenarioSpec.single_edge(1))
    for kwargs, named in (({"duration_s": float("inf")}, "duration_s"),
                          ({"duration_s": 0.0}, "duration_s"),
                          ({"request_interval_s": -1.0},
                           "request_interval_s"),
                          ({"request_interval_s": float("nan")},
                           "request_interval_s")):
        with pytest.raises(ValueError, match=f"{named} must be finite"):
            drive_scenario(deployment, **kwargs)
    assert deployment.env.now == 0.0 and not deployment.recorder.records
