"""The workload trace is the sim/real contract: same draws, same ids."""

from repro.backend.loadgen import build_workload
from repro.core.config import CoICConfig
from repro.core.scenario import ClientSpec, EdgeSpec, ScenarioSpec
from repro.sim.rng import RngStreams


def two_edge_spec():
    return ScenarioSpec(edges=(
        EdgeSpec(name="edge0", clients=(ClientSpec(name="m0"),
                                        ClientSpec(name="m1"))),
        EdgeSpec(name="edge1", clients=(ClientSpec(name="m2"),))))


class TestBuildWorkload:
    def test_deterministic_and_seed_sensitive(self):
        spec = two_edge_spec()
        a = build_workload(spec, CoICConfig(seed=0), 5)
        b = build_workload(spec, CoICConfig(seed=0), 5)
        c = build_workload(spec, CoICConfig(seed=1), 5)
        assert a == b
        assert a != c

    def test_replicates_the_simulated_driver_draws(self):
        # Same stream name, same draw order as mobility_exp._request_loop:
        # class via integers(n_classes), then viewpoint uniform(-0.5, 0.5).
        config = CoICConfig(seed=3)
        items = build_workload(two_edge_spec(), config, 4)
        for client in ("m0", "m1", "m2"):
            rng = RngStreams(seed=3).stream(f"workload.mobile.{client}")
            mine = [i for i in items if i.client == client]
            for item in mine:
                assert item.object_class == int(
                    rng.integers(config.recognition.n_classes))
                assert item.viewpoint == float(rng.uniform(-0.5, 0.5))

    def test_capture_ids_globally_unique_from_one(self):
        items = build_workload(two_edge_spec(), CoICConfig(seed=0), 3)
        ids = [i.capture_id for i in items]
        assert ids == list(range(1, len(items) + 1))

    def test_items_carry_home_edge_and_seq(self):
        items = build_workload(two_edge_spec(), CoICConfig(seed=0), 2)
        assert {(i.client, i.edge) for i in items} == {
            ("m0", "edge0"), ("m1", "edge0"), ("m2", "edge1")}
        for client in ("m0", "m1", "m2"):
            assert [i.seq for i in items if i.client == client] == [0, 1]

    def test_frame_reconstruction_matches_sim_task(self):
        # item.frame() must rebuild the capture the simulated client
        # would have produced — identical descriptor geometry inputs.
        config = CoICConfig(seed=0)
        item = build_workload(two_edge_spec(), config, 1)[0]
        frame = item.frame(config)
        assert frame.object_class == item.object_class
        assert frame.viewpoint == item.viewpoint
        assert frame.capture_id == item.capture_id
        assert frame.user == item.client
