"""Tests for repro.core.scenario (declarative deployment specs)."""

import json
import math

import pytest

from repro.core.scenario import (
    ClientSpec,
    EdgePolicySpec,
    EdgeSpec,
    InterEdgeLinkSpec,
    BackgroundTrafficSpec,
    MobilitySpec,
    OperatorSpec,
    ScenarioSpec,
    WarmupSpec,
    load_spec,
)


class TestValidation:
    def test_needs_an_edge(self):
        with pytest.raises(ValueError):
            ScenarioSpec(edges=())

    def test_duplicate_edge_names(self):
        with pytest.raises(ValueError, match="unique"):
            ScenarioSpec(edges=(EdgeSpec(name="a"), EdgeSpec(name="a")))

    def test_duplicate_client_names_across_edges(self):
        with pytest.raises(ValueError, match="unique"):
            ScenarioSpec(edges=(
                EdgeSpec(name="a", clients=(ClientSpec(name="m"),)),
                EdgeSpec(name="b", clients=(ClientSpec(name="m"),))))

    def test_client_edge_name_collision(self):
        with pytest.raises(ValueError, match="collide"):
            ScenarioSpec(edges=(
                EdgeSpec(name="a", clients=(ClientSpec(name="b"),)),
                EdgeSpec(name="b")))

    def test_cloud_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            ScenarioSpec(edges=(EdgeSpec(name="cloud"),))

    def test_inter_edge_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown edge"):
            ScenarioSpec(edges=(EdgeSpec(name="a"), EdgeSpec(name="b")),
                         inter_edge=(InterEdgeLinkSpec(a="a", b="zz"),))

    def test_unknown_peer(self):
        with pytest.raises(ValueError, match="unknown peer"):
            ScenarioSpec(edges=(EdgeSpec(name="a", peers=("zz",)),))

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            InterEdgeLinkSpec(a="a", b="a")

    @pytest.mark.parametrize("field", ["delay_ms", "mbps"])
    @pytest.mark.parametrize("text, value", [("Infinity", math.inf),
                                             ("NaN", math.nan)],
                             ids=["inf", "nan"])
    def test_non_finite_inter_edge_link_rejected(self, field, text, value):
        # Spec JSON comes from outside the program, and Python's json
        # module parses ``Infinity`` and ``NaN``: either used to build,
        # then crash the first peer probe (or clock it in zero time).
        data = json.loads(
            '{"edges": [{"name": "e0"}, {"name": "e1"}], "inter_edge": '
            f'[{{"a": "e0", "b": "e1", "{field}": {text}}}]}}')
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            load_spec(data)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            InterEdgeLinkSpec(a="e0", b="e1", **{field: value})

    @pytest.mark.parametrize("data, field", [
        ({"edges": [{"name": "e", "cache_mb": math.inf}]}, "cache_mb"),
        ({"edges": [{"name": "e", "cache_mb": math.nan}]}, "cache_mb"),
        ({"edges": [{"name": "e"}], "peer_timeout_s": math.inf},
         "peer_timeout_s"),
        ({"edges": [{"name": "e"}], "peer_timeout_s": math.nan},
         "peer_timeout_s"),
    ], ids=["cache_mb-inf", "cache_mb-nan", "peer_timeout_s-inf",
            "peer_timeout_s-nan"])
    def test_non_finite_site_and_probe_values_rejected(self, data, field):
        # An infinite cache_mb overflowed int() while the deployment was
        # built; an infinite peer_timeout_s crashed the first peer probe.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            load_spec(data)

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_edge_position_rejected(self, axis, value):
        # A NaN position built: nearest_edge_name then returned None
        # for every place, and the first move died on edge None.
        with pytest.raises(ValueError, match=f"{axis} must be finite"):
            EdgeSpec(name="e", **{axis: value})
        with pytest.raises(ValueError, match=f"{axis} must be finite"):
            EdgeSpec.from_dict({"name": "e", axis: value})
        with pytest.raises(ValueError, match=f"{axis} must be finite"):
            load_spec({"edges": [{"name": "e0"},
                                 {"name": "e1", axis: value}]})

    @pytest.mark.parametrize("cls, data, field", [
        (MobilitySpec, {"n_places": 2.5}, "n_places"),
        (MobilitySpec, {"n_places": math.inf}, "n_places"),
        (EdgePolicySpec, {"queue_limit": 1.5}, "queue_limit"),
        (EdgePolicySpec, {"prewarm_top_k": True}, "prewarm_top_k"),
        (EdgePolicySpec, {"shed_retries": "2"}, "shed_retries"),
        (WarmupSpec, {"classes": [1, 2.5]}, "classes"),
    ], ids=["fraction", "inf", "fraction-in-optional", "bool", "string",
            "fraction-in-tuple"])
    def test_an_int_field_refuses_a_non_integer(self, cls, data, field):
        # Each of these used to build: a place count of 2.5 or inf, a
        # fractional queue limit, a bool as a count.
        with pytest.raises(ValueError, match=f"{cls.__name__}.{field}"):
            cls.from_dict(data)

    def test_an_integral_float_builds_as_an_int(self):
        mobility = MobilitySpec.from_dict({"n_places": 3.0})
        assert mobility.n_places == 3 and type(mobility.n_places) is int
        warmup = WarmupSpec.from_dict({"classes": [1.0, 2]})
        assert warmup.classes == (1, 2)
        assert all(type(c) is int for c in warmup.classes)

    @pytest.mark.parametrize("cls, data, field", [
        (ScenarioSpec, {"edges": [{"name": "e"}], "federate": "no"},
         "federate"),
        (EdgePolicySpec, {"layer_reuse": 0.5}, "layer_reuse"),
        (EdgePolicySpec, {"layer_reuse": 1}, "layer_reuse"),
        (MobilitySpec, {"extent_m": True}, "extent_m"),
        (MobilitySpec, {"extent_m": "500"}, "extent_m"),
        (ClientSpec, {"name": 7}, "name"),
        (EdgeSpec, {"name": "e", "peers": "ab"}, "peers"),
    ], ids=["str-as-bool", "float-as-bool", "int-as-bool", "bool-as-float",
            "str-as-float", "int-as-str", "str-as-list"])
    def test_a_field_refuses_a_value_of_another_type(self, cls, data, field):
        # Each of these used to build: "no" as a truthy federate switch,
        # True as an extent of 1 m, "ab" as the peers ("a", "b").
        with pytest.raises(ValueError, match=f"{cls.__name__}.{field}"):
            cls.from_dict(data)

    def test_an_integer_builds_as_a_float(self):
        mobility = MobilitySpec.from_dict({"extent_m": 500})
        assert mobility.extent_m == 500.0 and type(mobility.extent_m) is float

    @pytest.mark.parametrize("a,b", [("edge0", "edge1"), ("edge1", "edge0")])
    def test_duplicate_inter_edge_pair_rejected(self, a, b):
        # Either orientation names the same duplex; building both would
        # re-add a live link.
        base = ScenarioSpec.federated(n_edges=2)
        with pytest.raises(ValueError, match="duplicate inter-edge link"):
            ScenarioSpec(edges=base.edges, inter_edge=base.inter_edge
                         + (InterEdgeLinkSpec(a=a, b=b),))

    def test_mobility_knobs_validated(self):
        with pytest.raises(ValueError):
            MobilitySpec(mean_dwell_s=0)
        with pytest.raises(ValueError):
            MobilitySpec(handoff_latency_s=-1)


class TestBuilders:
    def test_single_edge_matches_legacy_wiring(self):
        spec = ScenarioSpec.single_edge(3)
        assert spec.edge_names == ["edge"]
        assert spec.client_names == ["mobile0", "mobile1", "mobile2"]
        assert spec.edges[0].backhaul_stream == "net.backhaul"
        assert spec.edges[0].clients[1].wifi_stream == "net.wifi.mobile1"
        assert spec.baselines and spec.impairments
        assert not spec.federate and not spec.inter_edge

    def test_federated_matches_legacy_wiring(self):
        spec = ScenarioSpec.federated(n_edges=3, clients_per_edge=2)
        assert spec.edge_names == ["edge0", "edge1", "edge2"]
        assert spec.edges[1].clients[0].name == "mobile1_0"
        assert spec.edges[1].clients[0].wifi_stream == "net.wifi.1.0"
        assert spec.edges[1].backhaul_stream == "net.backhaul.1"
        assert spec.edges[1].peers == ("edge0", "edge2")
        # Full metro mesh: C(3, 2) duplex links.
        assert len(spec.inter_edge) == 3
        assert (spec.inter_edge[0].a, spec.inter_edge[0].b) == (
            "edge0", "edge1")
        # An inter-edge link never draws (no jitter, no loss), so a spec
        # cannot name a stream for it.
        with pytest.raises(ValueError, match="unknown key 'stream'"):
            InterEdgeLinkSpec.from_dict(
                {"a": "edge0", "b": "edge1",
                 "stream": "net.metro.edge0.edge1"})
        assert spec.federate
        assert not spec.impairments

    def test_metro_positions_on_grid(self):
        mobility = MobilitySpec(extent_m=1000.0)
        spec = ScenarioSpec.metro(n_edges=4, clients_per_edge=1,
                                  mobility=mobility)
        positions = {(e.x, e.y) for e in spec.edges}
        assert positions == {(250.0, 250.0), (750.0, 250.0),
                             (250.0, 750.0), (750.0, 750.0)}
        assert spec.mobility is mobility

    def test_metro_grid_mesh(self):
        # 3x3 grid: 2 links per interior row/column pair = 12 duplex
        # links instead of C(9, 2) = 36, and every edge keeps at most
        # its 4-neighbourhood.
        spec = ScenarioSpec.metro(n_edges=9, clients_per_edge=0,
                                  mesh="grid")
        assert len(spec.inter_edge) == 12
        degree: dict = {}
        for link in spec.inter_edge:
            degree[link.a] = degree.get(link.a, 0) + 1
            degree[link.b] = degree.get(link.b, 0) + 1
        assert max(degree.values()) == 4
        assert set(degree) == {e.name for e in spec.edges}
        # Ragged last row stays connected through vertical links.
        ragged = ScenarioSpec.metro(n_edges=5, clients_per_edge=0,
                                    mesh="grid")
        names = {e.name for e in ragged.edges}
        adj: dict = {name: set() for name in names}
        for link in ragged.inter_edge:
            adj[link.a].add(link.b)
            adj[link.b].add(link.a)
        seen, stack = set(), ["edge0"]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(adj[node])
        assert seen == names

    def test_builder_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec.single_edge(0)
        with pytest.raises(ValueError):
            ScenarioSpec.metro(mesh="ring")
        with pytest.raises(ValueError):
            ScenarioSpec.federated(n_edges=0)
        with pytest.raises(ValueError):
            ScenarioSpec.federated(clients_per_edge=0)


class TestSerialization:
    def _roundtrip(self, spec):
        data = spec.to_dict()
        json.dumps(data)  # must be plain JSON-able types
        return ScenarioSpec.from_dict(json.loads(json.dumps(data)))

    def test_roundtrip_single_edge(self):
        spec = ScenarioSpec.single_edge(2)
        assert self._roundtrip(spec) == spec

    def test_roundtrip_federated(self):
        spec = ScenarioSpec.federated(n_edges=3, clients_per_edge=2,
                                      metro_delay_ms=7.0)
        assert self._roundtrip(spec) == spec

    def test_roundtrip_metro_with_mobility_and_warmup(self):
        spec = ScenarioSpec.metro(
            n_edges=4, clients_per_edge=2,
            mobility=MobilitySpec(mean_dwell_s=9.0, handoff_latency_s=0.2),
            warmup=WarmupSpec(classes=(1, 2), models=(0,),
                              edges=("edge0",)))
        restored = self._roundtrip(spec)
        assert restored == spec
        assert restored.mobility.mean_dwell_s == 9.0
        assert restored.warmup.edges == ("edge0",)

    def test_from_dict_accepts_client_name_shorthand(self):
        spec = ScenarioSpec.from_dict({
            "edges": [{"name": "e0", "clients": ["m0", "m1"]}]})
        assert spec.edges[0].clients[1] == ClientSpec(name="m1")

    def test_load_spec_variants(self, tmp_path):
        spec = ScenarioSpec.federated(n_edges=2)
        data = spec.to_dict()
        assert load_spec(data) == spec
        assert load_spec(json.dumps(data)) == spec
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        assert load_spec(str(path)) == spec

    def test_roundtrip_lte_access(self):
        spec = ScenarioSpec(edges=(
            EdgeSpec(name="e0", clients=(ClientSpec(name="m0",
                                                    access="lte"),
                                         ClientSpec(name="m1"))),))
        restored = self._roundtrip(spec)
        assert restored.edges[0].clients[0].access == "lte"
        assert restored.edges[0].clients[1].access == "wifi"

    def test_roundtrip_mobility_bias(self):
        mobility = MobilitySpec(n_places=4, bias=(8.0, 1.0, 1.0, 1.0))
        spec = ScenarioSpec.metro(n_edges=2, mobility=mobility)
        restored = self._roundtrip(spec)
        assert restored.mobility.bias == (8.0, 1.0, 1.0, 1.0)

    def test_roundtrip_bias_schedule(self):
        mobility = MobilitySpec(
            n_places=4,
            bias_schedule=((0.0, (1.0, 1.0, 1.0, 1.0)),
                           (30.0, (8.0, 1.0, 1.0, 1.0))))
        spec = ScenarioSpec.metro(n_edges=2, mobility=mobility)
        restored = self._roundtrip(spec)
        assert restored.mobility.bias_schedule == (
            (0.0, (1.0, 1.0, 1.0, 1.0)), (30.0, (8.0, 1.0, 1.0, 1.0)))

    def test_roundtrip_background_traffic(self):
        background = BackgroundTrafficSpec(period_s=120.0, peak_util=0.3,
                                           update_s=5.0, phase_s=10.0,
                                           scope="all")
        spec = ScenarioSpec.metro(n_edges=2, background=background)
        restored = self._roundtrip(spec)
        assert restored.background == background
        assert restored == spec


#: One valid instance of each of the nine spec classes.
ONE_OF_EACH = (
    ClientSpec(name="m0"),
    EdgeSpec(name="e0", clients=(ClientSpec(name="m0"),)),
    OperatorSpec(name="op", agreements=(("peer", 1.5),)),
    InterEdgeLinkSpec(a="e0", b="e1"),
    MobilitySpec(n_places=2, bias=(1.0, 2.0)),
    BackgroundTrafficSpec(),
    EdgePolicySpec(admission="shed"),
    WarmupSpec(classes=(1,)),
    ScenarioSpec.metro(n_edges=2),
)


class TestSpecFilesAreCheckedInput:
    """A spec file comes from outside the program: a key no spec class
    reads is a typo, and a typo must not load as the default."""

    @pytest.mark.parametrize("spec", ONE_OF_EACH,
                             ids=lambda s: type(s).__name__)
    def test_unknown_key_names_itself_and_the_class(self, spec):
        data = dict(spec.to_dict(), queue_limt=1)
        with pytest.raises(ValueError, match="queue_limt") as error:
            type(spec).from_dict(data)
        assert type(spec).__name__ in str(error.value)

    @pytest.mark.parametrize("cls, data, key", [
        (ClientSpec, {"access": "lte"}, "name"),
        (EdgeSpec, {"x": 1.0}, "name"),
        (OperatorSpec, {"price": 1.0}, "name"),
        (InterEdgeLinkSpec, {"a": "e0"}, "b"),
        (InterEdgeLinkSpec, {"b": "e1"}, "a"),
        (ScenarioSpec, {"federate": True}, "edges"),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_missing_required_key_names_itself_and_the_class(self, cls,
                                                             data, key):
        with pytest.raises(ValueError, match=f"missing required key "
                                             f"'{key}'") as error:
            cls.from_dict(data)
        assert cls.__name__ in str(error.value)

    def test_typos_at_every_level_of_a_scenario_are_errors(self):
        good = {"edges": [{"name": "e", "clients": ["c"], "cache_mb": 5}],
                "policy": {"queue_limit": 1, "admission": "shed"},
                "federate": True}
        spec = load_spec(good)
        assert (spec.policy.queue_limit, spec.federate,
                spec.edges[0].cache_mb) == (1, True, 5.0)
        for path, typo in (
                (("edges", 0), "cache_mbb"),
                (("policy",), "queue_limt"),
                ((), "federat")):
            bad = json.loads(json.dumps(good))
            level = bad
            for step in path:
                level = level[step]
            level[typo] = 1
            with pytest.raises(ValueError, match=typo):
                load_spec(bad)

    @pytest.mark.parametrize("knob", [
        {"summary_piggyback": True}, {"deadline_s": 1.0},
        {"layer_tap_budget_frac": 0.1},
        {"vector_index": "ivf:16:4"}, {"vector_dtype": "int8"}])
    def test_a_removed_policy_knob_fails_loudly(self, knob):
        with pytest.raises(ValueError, match="unknown key"):
            EdgePolicySpec.from_dict(knob)
        with pytest.raises(ValueError, match="unknown key"):
            load_spec({"edges": [{"name": "e"}], "policy": knob})

    def test_the_removed_vision_streams_switch_fails_loudly(self):
        # Recognizers have no RNG streams: a frame's noise is keyed by
        # its capture id alone, so an old spec that names the switch
        # must not load as if it still chose something.
        with pytest.raises(ValueError, match="unknown key"):
            ScenarioSpec.from_dict({"edges": [{"name": "e"}],
                                    "vision_streams": False})

    @pytest.mark.parametrize("trace", [
        {"mobile0_0": [[0.0, 1], [9.5, 3]]}, "trace.json", None])
    def test_the_removed_itinerary_trace_fails_loudly(self, trace):
        # Every client's itinerary is synthetic: a spec that still
        # names a trace must not load as if it were replayed.
        with pytest.raises(ValueError, match="unknown key"):
            MobilitySpec.from_dict({"itinerary_trace": trace})
        with pytest.raises(ValueError, match="unknown key"):
            load_spec({"edges": [{"name": "e"}],
                       "mobility": {"itinerary_trace": trace}})

    def test_null_and_non_mapping_values_are_errors(self):
        with pytest.raises(ValueError, match="federate"):
            load_spec({"edges": [{"name": "e"}], "federate": None})
        with pytest.raises(ValueError, match="mapping"):
            load_spec({"edges": [{"name": "e"}], "policy": [1, 2]})
        with pytest.raises(ValueError, match="agreements"):
            OperatorSpec.from_dict({"name": "op",
                                    "agreements": [["peer"]]})

    def test_defaults_come_from_the_dataclass(self):
        assert EdgePolicySpec.from_dict({}) == EdgePolicySpec()
        assert MobilitySpec.from_dict({}) == MobilitySpec()
        assert (EdgeSpec.from_dict({"name": "e", "x": 3})
                == EdgeSpec(name="e", x=3.0))


class TestAccessAndBiasValidation:
    def test_unknown_access_rejected(self):
        with pytest.raises(ValueError, match="access"):
            ClientSpec(name="m0", access="5g")

    def test_bias_length_must_match_places(self):
        with pytest.raises(ValueError, match="bias"):
            MobilitySpec(n_places=4, bias=(1.0, 2.0))

    def test_bias_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="bias"):
            MobilitySpec(n_places=2, bias=(1.0, -0.5))

    def test_bias_weights_must_not_all_be_zero(self):
        with pytest.raises(ValueError, match="bias"):
            MobilitySpec(n_places=2, bias=(0.0, 0.0))


class TestBackgroundAndScheduleValidation:
    def test_background_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            BackgroundTrafficSpec(scope="wifi")

    def test_background_peak_util_bounds(self):
        with pytest.raises(ValueError):
            BackgroundTrafficSpec(peak_util=1.5)

    @pytest.mark.parametrize("value", [math.inf, math.nan],
                             ids=["inf", "nan"])
    @pytest.mark.parametrize("field", ["period_s", "update_s", "phase_s"])
    def test_background_times_must_be_finite(self, field, value):
        # An infinite update_s used to pass and then overflow the kernel's
        # clock mid-run; an infinite phase_s made level() a domain error.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            BackgroundTrafficSpec(**{field: value})

    def test_background_level_curve(self):
        bg = BackgroundTrafficSpec(period_s=100.0)
        assert bg.level(0.0) == pytest.approx(0.0)
        assert bg.level(50.0) == pytest.approx(1.0)
        assert bg.level(100.0) == pytest.approx(0.0)
        shifted = BackgroundTrafficSpec(period_s=100.0, phase_s=50.0)
        assert shifted.level(0.0) == pytest.approx(1.0)

    def test_bias_schedule_sorted_and_sized(self):
        with pytest.raises(ValueError):
            MobilitySpec(n_places=2,
                         bias_schedule=((5.0, (1.0, 1.0)),
                                        (0.0, (1.0, 1.0))))
        with pytest.raises(ValueError):
            MobilitySpec(n_places=2, bias_schedule=((0.0, (1.0,)),))
        with pytest.raises(ValueError):
            MobilitySpec(n_places=2, bias_schedule=())
