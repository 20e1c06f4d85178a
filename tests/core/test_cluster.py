"""Tests for repro.core.cluster (scenario builder, handoff, mobility).

Includes the seed-equivalence suite: fixed workloads whose
``MetricsRecorder`` output was digested on the pre-refactor hand-wired
single-edge and federated constructors.  ``ScenarioSpec.single_edge()``
and ``ScenarioSpec.federated()`` must keep producing byte-identical
records (floats compared via their exact hex form).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import CoICConfig
from repro.core.cluster import ClusterDeployment
from repro.core.scenario import (
    ClientSpec,
    EdgeSpec,
    InterEdgeLinkSpec,
    MobilitySpec,
    ScenarioSpec,
    WarmupSpec,
)
from repro.net import Link, Message
from repro.sim import Environment, RngStreams

from mobility_oracle import ReferenceWaypointUser, home_place_scan
from ordering import order_free_digest, recorder_digest, shuffle_ties


# Digests captured on the pre-refactor constructors (commit cb4e7b1)
# for the exact workloads below.
GOLDEN_SINGLE = \
    "eca8545032b4bafc20bd01be45354bfe7287f1289316cff25b6c97cce4a2a0a4"
GOLDEN_FEDERATED = \
    "302d95e0068590dd121eb8c06a411f521eb61f4c5134872ed4f809766fc13a73"
GOLDEN_ISOLATED = \
    "3d47f2dbde86530e6738ba3807d6d3b17cf34af01623eaef15e9be4a4cefc908"


class TestSeedEquivalence:
    #: Storage dtype under test; None leaves the deployment default.
    vector_dtype: str | None = None

    def config(self, seed: int) -> CoICConfig:
        cfg = CoICConfig(seed=seed)
        if self.vector_dtype is not None:
            cfg.cache.vector_dtype = self.vector_dtype
        return cfg

    def test_single_edge_facade_matches_pre_refactor(self):
        cfg = self.config(seed=3)
        cfg.network.wifi_mbps = 100
        cfg.network.backhaul_mbps = 10
        dep = ClusterDeployment(ScenarioSpec.single_edge(2), config=cfg)
        dep.run_tasks(dep.all_clients[0],
                      [dep.recognition_task(5, viewpoint=-0.2)])
        dep.run_tasks(dep.all_clients[1],
                      [dep.recognition_task(5, viewpoint=0.2)])
        dep.run_tasks(dep.all_clients[0], [dep.model_load_task(0)])
        dep.env.run()
        dep.run_tasks(dep.all_clients[1], [dep.model_load_task(0)])
        dep.run_tasks(dep.all_clients[0], [dep.panorama_task(1, 2)])
        dep.run_tasks(dep.origin_clients[0], [dep.recognition_task(9)])
        dep.run_tasks(dep.local_clients[1], [dep.recognition_task(4)])
        dep.run_concurrent([
            (0.0, dep.all_clients[0],
             dep.recognition_task(5, viewpoint=0.0)),
            (0.001, dep.all_clients[1],
             dep.recognition_task(5, viewpoint=0.1)),
        ])
        assert recorder_digest(dep.recorder) == GOLDEN_SINGLE

    def test_federated_facade_matches_pre_refactor(self):
        cfg = self.config(seed=7)
        cfg.network.wifi_mbps = 100
        cfg.network.backhaul_mbps = 10
        fed = ClusterDeployment(
            ScenarioSpec.federated(n_edges=3, clients_per_edge=2,
                                   metro_delay_ms=2.0),
            config=cfg)
        fed.run_tasks(fed.clients_by_edge[0][0], [fed.model_load_task(0)])
        fed.env.run()
        fed.run_tasks(fed.clients_by_edge[1][0], [fed.model_load_task(0)])
        fed.run_tasks(fed.clients_by_edge[0][1],
                      [fed.recognition_task(7, viewpoint=-0.2)])
        fed.env.run()
        fed.run_tasks(fed.clients_by_edge[2][1],
                      [fed.recognition_task(7, viewpoint=0.2)])
        fed.run_tasks(fed.clients_by_edge[2][0], [fed.panorama_task(0, 4)])
        fed.env.run()
        fed.run_tasks(fed.clients_by_edge[1][1], [fed.panorama_task(0, 4)])
        assert recorder_digest(fed.recorder) == GOLDEN_FEDERATED

    def test_isolated_facade_matches_pre_refactor(self):
        fed = ClusterDeployment(
            ScenarioSpec.federated(n_edges=2, federate=False),
            config=self.config(seed=7))
        fed.run_tasks(fed.clients_by_edge[0][0], [fed.model_load_task(1)])
        fed.env.run()
        fed.run_tasks(fed.clients_by_edge[1][0], [fed.model_load_task(1)])
        assert recorder_digest(fed.recorder) == GOLDEN_ISOLATED


class TestSeedEquivalenceFloat64(TestSeedEquivalence):
    """The same digests under the float64 oracle tier."""

    vector_dtype = "float64"


# The full default-policy metro scenario (4 federated edges, moving
# users, closed-loop recognition traffic) digested at commit b83e558
# (pre-layer-reuse).  Unlike the CoIC/federated seeds above this
# workload exercises mobility, handoff and federation peer probes in
# one run, so *any* stage-chain edit that perturbs default behaviour —
# not just the canned-spec paths — fails loudly here.
#
# Re-pinned once (from 822117df…6033) when the edge's same-tick lookup
# window was deleted: a lookup no longer waits out a zero timeout behind
# a flush process, so completions sharing a simulated instant append in
# a different order (four rows swap with a same-``end_s`` neighbour).
# The record multiset did not move — see GOLDEN_METRO_ORDER_FREE,
# pinned before that change and untouched by it.
GOLDEN_METRO = \
    "f9fb8fcecfbe2629101f79e8792bbc87bcbb4308ade3c6305bdf730c0715ceba"
# The same run's record *multiset* (rows sorted before hashing).  A
# change that only reorders completions sharing a simulated instant
# moves GOLDEN_METRO and must leave this one alone.
GOLDEN_METRO_ORDER_FREE = \
    "8182cff170080e7df37c6e03a2421acc63da82b70f9a9ffa22f61c2e7c84724a"


def default_metro_deployment(make_deployment, policy=None, config=None):
    mobility = MobilitySpec(n_places=16, mean_dwell_s=8.0,
                            duration_s=60.0, handoff_latency_s=0.05)
    spec = ScenarioSpec.metro(n_edges=4, clients_per_edge=1,
                              federate=True, mobility=mobility,
                              policy=policy)
    return make_deployment(spec=spec, config=config)


def default_metro_digest(make_deployment, policy=None, config=None,
                         digest=recorder_digest) -> str:
    from repro.eval.experiments.mobility_exp import drive_scenario

    dep = default_metro_deployment(make_deployment, policy=policy,
                                   config=config)
    drive_scenario(dep, 60.0, request_interval_s=2.0)
    return digest(dep.recorder)


class TestMetroGoldenDigest:
    #: Storage dtype under test; None leaves the deployment default.
    vector_dtype: str | None = None

    @pytest.fixture
    def config(self, make_config):
        config = make_config()
        if self.vector_dtype is not None:
            config.cache.vector_dtype = self.vector_dtype
        return config

    def test_default_metro_matches_pre_layer_reuse(self, make_deployment,
                                                   config):
        assert default_metro_digest(make_deployment,
                                    config=config) == GOLDEN_METRO

    def test_default_metro_record_multiset(self, make_deployment, config):
        assert default_metro_digest(
            make_deployment, config=config,
            digest=order_free_digest) == GOLDEN_METRO_ORDER_FREE

    def test_shuffled_ties_move_append_order_not_records(
            self, make_deployment, config):
        # Popping same-(time, priority) entries in another order is a
        # legal schedule: completions sharing an instant may append in
        # another order, but the same records must exist.  The append
        # order has to move under some seed, or the shuffle shuffles
        # nothing.
        from repro.eval.experiments.mobility_exp import drive_scenario

        moved = 0
        for seed in range(3):
            dep = default_metro_deployment(make_deployment, config=config)
            shuffle_ties(dep.env, seed)
            drive_scenario(dep, 60.0, request_interval_s=2.0)
            assert order_free_digest(dep.recorder) == GOLDEN_METRO_ORDER_FREE
            moved += recorder_digest(dep.recorder) != GOLDEN_METRO
        assert moved

    def test_inert_policy_is_byte_identical_to_no_policy(
            self, make_deployment, config):
        # EdgePolicySpec() — admission off, offload off, prewarm off,
        # layer_reuse=False — must not perturb the default chain: the
        # knobs added by the overload/affinity/layer-reuse layers only
        # act when switched on.
        from repro.core.scenario import EdgePolicySpec

        assert default_metro_digest(
            make_deployment, policy=EdgePolicySpec(),
            config=config) == GOLDEN_METRO

    def test_all_free_open_market_is_byte_identical(self, make_deployment,
                                                    config):
        # Declaring operators with zero prices and open consent wires
        # the FederationBroker into every probe order — and must not
        # move a byte: the broker filters and bills, it never re-ranks,
        # and an open market filters nothing and bills zero.
        from repro.core.scenario import OperatorSpec
        from repro.eval.experiments.mobility_exp import drive_scenario

        mobility = MobilitySpec(n_places=16, mean_dwell_s=8.0,
                                duration_s=60.0, handoff_latency_s=0.05)
        spec = ScenarioSpec.metro(n_edges=4, clients_per_edge=1,
                                  federate=True, mobility=mobility)
        spec = spec.with_operators(
            (OperatorSpec(name="metroA"), OperatorSpec(name="metroB")),
            {"edge0": "metroA", "edge1": "metroA",
             "edge2": "metroB", "edge3": "metroB"})
        dep = make_deployment(spec=spec, config=config)
        drive_scenario(dep, 60.0, request_interval_s=2.0)
        assert recorder_digest(dep.recorder) == GOLDEN_METRO
        # The market really was on the path: the broker exists and the
        # cross-operator probes settled (at price zero).
        assert dep.broker is not None
        assert all(edge.broker is dep.broker for edge in dep.edges)
        assert all(entry.price == 0.0 for entry in dep.recorder.ledger)

    def test_explicit_float64_compat_is_byte_identical(
            self, make_deployment, make_config):
        # The float64 oracle tier — the historical arithmetic — pins
        # the same digest as the float32 deployment default: storage
        # width moves no decision.
        config = make_config()
        config.cache.vector_dtype = "float64"
        assert default_metro_digest(make_deployment,
                                    config=config) == GOLDEN_METRO


class TestMetroGoldenDigestFloat64(TestMetroGoldenDigest):
    """The same digests under the float64 oracle tier."""

    vector_dtype = "float64"
    #: Already this class's ``test_default_metro_matches_pre_layer_reuse``.
    test_explicit_float64_compat_is_byte_identical = None


class TestCacheTier:
    def test_every_cache_takes_the_config_tier(self, make_deployment):
        from repro.core.scenario import EdgePolicySpec

        dep = make_deployment(policy=EdgePolicySpec())
        for cache in dep.caches:
            assert cache.vector_dtype == CoICConfig().cache.vector_dtype
            assert cache._vector_index_spec == "linear"


class TestCannedSpecs:
    def test_federated_spec_runs_concurrent_plans(self):
        fed = ClusterDeployment(
            ScenarioSpec.federated(n_edges=2, clients_per_edge=2))
        assert [len(row) for row in fed.clients_by_edge] == [2, 2]
        assert len(fed.all_clients) == 4
        fed.run_concurrent([
            (0.0, fed.clients_by_edge[0][0], fed.recognition_task(1)),
            (0.0, fed.clients_by_edge[1][0], fed.recognition_task(2)),
        ])
        assert len(fed.recorder.records) == 2


def line_spec(federate=True, peers=None):
    """edge0 -- edge1 -- edge2: a non-mesh inter-edge graph."""
    edges = tuple(
        EdgeSpec(name=f"edge{k}", clients=(ClientSpec(name=f"m{k}"),),
                 x=100.0 * k, y=0.0,
                 peers=peers[k] if peers is not None else None)
        for k in range(3))
    inter = (InterEdgeLinkSpec(a="edge0", b="edge1", delay_ms=2.0),
             InterEdgeLinkSpec(a="edge1", b="edge2", delay_ms=2.0))
    return ScenarioSpec(edges=edges, inter_edge=inter, federate=federate)


class TestArbitraryGraphs:
    def test_line_graph_routes_multi_hop(self):
        dep = ClusterDeployment(line_spec())
        assert dep.topology.shortest_path("edge0", "edge2") == \
            ["edge0", "edge1", "edge2"]

    def test_peer_probe_over_multi_hop_route(self):
        # edge2's only peer is edge0, two metro hops away: the probe is
        # routed through edge1 by Dijkstra, no direct link needed.
        spec = line_spec(peers=(("edge1",), ("edge0",), ("edge0",)))
        dep = ClusterDeployment(spec)
        task = dep.model_load_task(0)
        dep.run_tasks(dep.client_by_name["m0"], [task])
        dep.env.run()
        record = dep.run_tasks(dep.client_by_name["m2"], [task])[0]
        assert record.outcome == "hit"
        assert dep.edges[2].counts["peer_hits"] == 1

    def test_isolated_cluster_builds_plain_edges(self):
        """``federate=False``: same edge class, no peers, never probes."""
        dep = ClusterDeployment(line_spec(federate=False))
        assert [edge.peers for edge in dep.edges] == [[], [], []]
        record = dep.run_tasks(dep.client_by_name["m0"],
                               [dep.model_load_task(0)])[0]
        assert record.outcome == "miss"
        assert [edge.probe_log for edge in dep.edges] == [[], [], []]


def _flight_times(link, n=5):
    """Simulated duration of ``n`` back-to-back 1 kB transfers."""
    env = link.env
    times = []

    def send():
        for _ in range(n):
            start = env.now
            yield from link.transfer(Message(size_bytes=1000))
            times.append(env.now - start)

    env.run(until=env.process(send()))
    return times


class TestDeferredLinkStreams:
    def test_unimpaired_links_build_no_stream(self):
        dep = ClusterDeployment(line_spec())
        built = set(dep.rng._streams)
        for name in ("net.wifi.m0.edge0", "net.backhaul.edge0",
                     "net.metro.edge0.edge1"):
            assert name not in built
        # A link with no jitter and no loss holds no stream handle.
        assert all(link._rng is None for link in dep.topology.links())
        dep.run_tasks(dep.client_by_name["m0"], [dep.recognition_task(1)])
        assert "net.wifi.m0.edge0" not in dep.rng._streams

    def test_impaired_link_draws_the_up_front_sequence(self):
        config = CoICConfig()
        config.network.wifi_jitter_ms = 2.0
        dep = ClusterDeployment(line_spec(), config=config)
        uplink, _ = dep.topology.leaves["m0"].attachments["edge0"]
        assert uplink.jitter_s == 0.002
        assert "net.wifi.m0.edge0" not in dep.rng._streams
        reference = Link(
            Environment(), "ref", uplink.bandwidth_bps,
            propagation_s=uplink.propagation_s, jitter_s=uplink.jitter_s,
            rng=RngStreams(dep.config.seed).stream("net.wifi.m0.edge0"))
        assert _flight_times(uplink) == _flight_times(reference)
        assert "net.wifi.m0.edge0" in dep.rng._streams


class TestOneNoiseSource:
    """A frame's sensor noise is keyed by its capture id, so every
    recognizer of a deployment extracts the same bits from one frame
    and none of them owns a random stream."""

    @pytest.mark.parametrize("spec", [ScenarioSpec.single_edge(1),
                                      ScenarioSpec.federated(n_edges=2)],
                             ids=["single_edge", "federated"])
    def test_mobile_edge_and_cloud_extract_the_same_bits(self, spec):
        dep = ClusterDeployment(spec)
        frame = dep.recognition_task(5, viewpoint=0.3).frame
        assert frame.capture_id >= 1
        want = dep.space.observe(5, 0.3, noise_key=frame.capture_id).vector
        recognizers = [dep.mobile_recognizer, dep.cloud_recognizer,
                       *dep.edge_recognizers]
        assert len(recognizers) == 2 + len(spec.edges)
        for recognizer in recognizers:
            assert np.array_equal(recognizer.extract(frame).vector, want)
        dep.run_tasks(dep.all_clients[0], [dep.recognition_task(5)])
        assert not [name for name in dep.rng._streams
                    if name.startswith("vision")]


class TestHandoff:
    def test_handoff_moves_attachment_and_links(self):
        dep = ClusterDeployment(line_spec())
        client = dep.client_by_name["m0"]
        dep.env.run(until=dep.env.process(
            dep.handoff(client, "edge2", latency_s=0.1)))
        dep.env.run()
        assert client.edge_name == "edge2"
        assert client.attachments == [(0.0, "edge0"), (0.1, "edge2")]
        assert len(dep.handoff_log) == 1
        event = dep.handoff_log[0]
        assert (event.src_edge, event.dst_edge) == ("edge0", "edge2")
        assert event.completed_s == pytest.approx(0.1)
        # Old access duplex removed, new one up.
        assert "edge0" not in dep.topology.leaves["m0"].attachments
        for src, dst in (("m0", "edge0"), ("edge0", "m0")):
            with pytest.raises(KeyError):
                dep.topology.link(src, dst)
        new_up, new_down = dep.topology.leaves["m0"].attachments["edge2"]
        assert new_up.up and new_down.up
        assert new_up is dep.topology.link("m0", "edge2")
        assert new_down is dep.topology.link("edge2", "m0")

    def test_requests_stall_through_the_attach_gate(self):
        dep = ClusterDeployment(line_spec())
        client = dep.client_by_name["m0"]
        dep.env.process(dep.handoff(client, "edge1", latency_s=0.5))
        record = dep.run_tasks(client, [dep.recognition_task(1)])[0]
        # Issued mid-handoff: the dead time is part of the latency and
        # the request is served by the new edge.
        assert record.latency_s >= 0.5
        assert record.outcome in ("hit", "miss")
        assert client.edge_name == "edge1"

    def test_inflight_request_completes_against_old_edge(self):
        dep = ClusterDeployment(line_spec())
        client = dep.client_by_name["m0"]
        # Start the request first, then the handoff on the same tick:
        # the in-flight exchange must complete over the old link.
        request = dep.env.process(client.perform(dep.recognition_task(2)))

        def later():
            yield dep.env.timeout(1e-4)
            yield from dep.handoff(client, "edge1", latency_s=0.01)

        dep.env.process(later())
        dep.env.run(until=request)
        dep.env.run()
        record = dep.recorder.records[0]
        assert record.outcome in ("hit", "miss")  # not an error
        assert client.edge_name == "edge1"

    def test_response_to_unreachable_client_is_dropped(self):
        # City-scale race: a client blows its deadline and hands off,
        # the drained downlink is torn down, and the edge's response
        # (plus its error-respond fallback) hits a dead link.  The edge
        # must count a dropped response, not crash the simulation.
        dep = ClusterDeployment(line_spec(federate=False))
        client = dep.client_by_name["m0"]
        dep.topology.link("edge0", "m0").set_up(False)
        record = dep.run_tasks(client, [dep.recognition_task(1)])[0]
        assert record.outcome == "error"
        assert dep.edges[0].counts["responses_dropped"] >= 1

    def test_unreachable_client_request_counts_once(self):
        # The reply that cannot be sent is not an outcome, nor is the
        # error reply that cannot be sent after it: the request is one
        # dropped response.
        dep = ClusterDeployment(line_spec(federate=False))
        client = dep.client_by_name["m0"]
        dep.topology.link("edge0", "m0").set_up(False)
        dep.run_tasks(client, [dep.recognition_task(1)])
        counts = dep.edges[0].counts
        assert [counts[o] for o in ("hit", "miss", "error")] == [0, 0, 0]
        assert counts["responses_dropped"] == 1

    def test_handoff_to_same_edge_is_noop(self):
        dep = ClusterDeployment(line_spec())
        client = dep.client_by_name["m0"]
        dep.env.run(until=dep.env.process(dep.handoff(client, "edge0")))
        assert dep.handoff_log == []
        assert client.attachments == [(0.0, "edge0")]

    def test_unknown_edge_rejected(self):
        dep = ClusterDeployment(line_spec())
        with pytest.raises(KeyError):
            next(dep.handoff(dep.client_by_name["m0"], "edge99"))


def metro_spec(seed_places=16, federate=True, warmup=None):
    mobility = MobilitySpec(n_places=seed_places, mean_dwell_s=10.0,
                            duration_s=60.0, handoff_latency_s=0.05)
    return ScenarioSpec.metro(n_edges=4, clients_per_edge=1,
                              federate=federate, mobility=mobility,
                              warmup=warmup)


def attachment_timeline(dep) -> list[tuple[float, str, str]]:
    """Every (time_s, client, edge) attachment, in time order."""
    return sorted((when, client.name, edge)
                  for client in dep.all_clients
                  for when, edge in client.attachments)


class TestMobility:
    def test_itineraries_drive_handoffs(self, make_deployment):
        dep = make_deployment(spec=metro_spec())
        dep.start_mobility()
        dep.run_for(60.0)
        per_client = {name: 0 for name in dep.client_names}
        for event in dep.handoff_log:
            per_client[event.client] += 1
        assert min(per_client.values()) >= 1
        timeline = attachment_timeline(dep)
        # Initial attachments for everyone plus one entry per handoff.
        assert len(timeline) == len(dep.client_names) + len(dep.handoff_log)

    def test_same_seed_same_attachment_timeline(self, make_deployment):
        def run_once():
            dep = make_deployment(spec=metro_spec())
            dep.start_mobility()
            dep.run_for(60.0)
            return attachment_timeline(dep), recorder_digest(dep.recorder)

        first_timeline, first_digest = run_once()
        second_timeline, second_digest = run_once()
        assert first_timeline == second_timeline
        assert first_digest == second_digest
        assert len(first_timeline) > len(
            make_deployment(spec=metro_spec()).client_names)

    def test_different_seed_different_timeline(self, make_deployment):
        def timeline(seed):
            dep = make_deployment(spec=metro_spec(), seed=seed)
            dep.start_mobility()
            dep.run_for(60.0)
            return attachment_timeline(dep)

        assert timeline(0) != timeline(1)

    def test_mobility_requires_spec(self):
        dep = ClusterDeployment(line_spec())
        with pytest.raises(ValueError):
            dep.start_mobility()

    def test_mobility_cannot_start_twice(self, make_deployment):
        dep = make_deployment(spec=metro_spec())
        dep.start_mobility()
        with pytest.raises(RuntimeError):
            dep.start_mobility()

    def test_users_share_one_read_only_gravity_timetable(self,
                                                         make_deployment,
                                                         monkeypatch):
        from repro.workload import mobility as mobility_module

        walkers = []

        class Spy(mobility_module.RandomWaypointUser):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                walkers.append((self.name, self.gravity))

        monkeypatch.setattr(mobility_module, "RandomWaypointUser", Spy)
        n = 16
        uniform = (1.0,) * n
        stadium = (9.0,) + uniform[1:]
        mobility = MobilitySpec(
            n_places=n, mean_dwell_s=5.0, duration_s=60.0, bias=stadium,
            bias_schedule=((0.0, uniform), (20.0, stadium), (40.0, uniform)))
        spec = ScenarioSpec.metro(n_edges=4, clients_per_edge=3,
                                  mobility=mobility)
        dep = make_deployment(spec=spec, seed=7)
        dep.start_mobility()
        # One walker per client, all on one timetable; the deployment
        # keeps the itineraries, not the walkers or their streams.
        assert [name for name, _ in walkers] == [
            client.name for client in dep.all_clients]
        gravity = walkers[0][1]
        assert all(g is gravity for _, g in walkers)
        assert not hasattr(dep, "users")
        assert not [name for name in dep.rng._streams
                    if name.startswith("mobility.user.")]
        assert not gravity.bias.flags.writeable
        assert len(gravity.segments) == 3
        assert not any(w.flags.writeable for w in gravity.segments)
        assert gravity._rows
        assert not any(row.flags.writeable
                       for row in gravity._rows.values())
        for client in dep.all_clients:
            reference = ReferenceWaypointUser(
                client.name, dep.world,
                RngStreams(7).stream(f"mobility.user.{client.name}"),
                mean_dwell_s=mobility.mean_dwell_s,
                home_place=home_place_scan(spec, dep.world,
                                           client.edge_name),
                bias=mobility.bias, bias_schedule=mobility.bias_schedule)
            assert dep.itineraries[client.name] == reference.itinerary(60.0)

    def test_served_metro_builds_no_client_inbox(self, make_deployment):
        from repro.eval.experiments.mobility_exp import drive_scenario

        dep = make_deployment(spec=metro_spec())
        drive_scenario(dep, 30.0, request_interval_s=2.0)
        assert dep.recorder.records and dep.handoff_log
        host = dep.topology.host
        for name in dep.client_names:
            assert "inbox" not in vars(host(name)), name
        for name in dep.edge_names:
            assert "inbox" in vars(host(name)), name
        # A one-way message to a client still lands: the first put
        # builds the inbox.
        client = dep.all_clients[0]
        note = Message(size_bytes=100, kind="note", src=client.edge_name,
                       dst=client.name)
        dep.env.run(until=dep.env.process(dep.rpc.send(note)))
        assert host(client.name).inbox.items == [note]


class TestWarmup:
    def test_warmup_turns_first_request_into_a_hit(self, make_deployment):
        warmup = WarmupSpec(classes=(3,), models=(0,))
        spec = ScenarioSpec.federated(n_edges=2)
        spec = ScenarioSpec.from_dict({**spec.to_dict(),
                                       "warmup": warmup.to_dict()})
        dep = make_deployment(spec=spec)
        assert all(len(cache) == 2 for cache in dep.caches)
        record = dep.run_tasks(dep.clients_by_edge[0][0],
                               [dep.recognition_task(3, viewpoint=0.1)])[0]
        assert record.outcome == "hit"
        load = dep.run_tasks(dep.clients_by_edge[1][0],
                             [dep.model_load_task(0)])[0]
        assert load.outcome == "hit"

    def test_warmup_respects_edge_filter(self, make_deployment):
        warmup = WarmupSpec(classes=(1, 2), edges=("edge0",))
        spec = ScenarioSpec.from_dict({
            **ScenarioSpec.federated(n_edges=2).to_dict(),
            "warmup": warmup.to_dict()})
        dep = make_deployment(spec=spec)
        assert len(dep.caches[0]) == 2
        assert len(dep.caches[1]) == 0


def mixed_access_spec():
    edges = (EdgeSpec(name="edge0",
                      clients=(ClientSpec(name="lte0", access="lte"),
                               ClientSpec(name="wifi0"))),
             EdgeSpec(name="edge1"))
    inter = (InterEdgeLinkSpec(a="edge0", b="edge1", delay_ms=2.0),)
    return ScenarioSpec(edges=edges, inter_edge=inter)


class TestLteAccess:
    def test_lte_clients_get_asymmetric_epc_links(self, make_deployment):
        dep = make_deployment(spec=mixed_access_spec())
        net = dep.config.network
        uplink, downlink = dep.topology.leaves["lte0"].attachments["edge0"]
        assert uplink.bandwidth_bps == net.lte_uplink_mbps * 1e6
        assert downlink.bandwidth_bps == net.lte_downlink_mbps * 1e6
        # Radio + EPC core traversal, not the WiFi ~1 ms.
        expected = (net.lte_radio_delay_ms + net.lte_core_delay_ms) / 1e3
        assert uplink.propagation_s == pytest.approx(expected)
        wifi_up, wifi_down = dep.topology.leaves["wifi0"].attachments["edge0"]
        assert wifi_up.bandwidth_bps == net.wifi_mbps * 1e6

    def test_lte_round_trip_is_slower_than_wifi(self, make_deployment):
        dep = make_deployment(spec=mixed_access_spec())
        lte = dep.run_tasks(dep.client_by_name["lte0"],
                            [dep.recognition_task(1, viewpoint=0.0)])[0]
        dep.env.run()
        wifi = dep.run_tasks(dep.client_by_name["wifi0"],
                             [dep.recognition_task(2, viewpoint=0.0)])[0]
        assert lte.outcome == "miss" and wifi.outcome == "miss"
        # Same edge, same cloud path; the EPC core latency and the thin
        # uplink make the LTE user strictly slower.
        assert lte.latency_s > wifi.latency_s

    def test_handoff_preserves_access_technology(self, make_deployment):
        dep = make_deployment(spec=mixed_access_spec())
        client = dep.client_by_name["lte0"]
        dep.env.run(until=dep.env.process(
            dep.handoff(client, "edge1", latency_s=0.1)))
        dep.env.run()
        uplink, downlink = dep.topology.leaves["lte0"].attachments["edge1"]
        net = dep.config.network
        assert uplink.bandwidth_bps == net.lte_uplink_mbps * 1e6
        assert downlink.bandwidth_bps == net.lte_downlink_mbps * 1e6


    @pytest.mark.parametrize("impairments", [True, False],
                             ids=["impaired", "unimpaired"])
    def test_lte_link_parameters_are_pinned(self, make_deployment,
                                            impairments):
        config = CoICConfig(seed=0)
        net = config.network
        net.lte_uplink_mbps, net.lte_downlink_mbps = 12.5, 75.0
        net.lte_radio_delay_ms, net.lte_core_delay_ms = 38.2, 12.8
        net.lte_jitter_ms, net.loss_rate = 3.5, 0.02
        spec = dataclasses.replace(mixed_access_spec(),
                                   impairments=impairments)
        dep = make_deployment(spec=spec, config=config)
        uplink, downlink = dep.topology.leaves["lte0"].attachments["edge0"]
        assert (uplink.bandwidth_bps, downlink.bandwidth_bps) == (12.5e6, 75e6)
        for link in (uplink, downlink):
            # radio/1e3 + core/1e3; the folded (radio + core)/1e3 is 0.051.
            assert link.propagation_s == 0.051000000000000004
            assert link.jitter_s == (0.0035 if impairments else 0.0)
            assert link.loss_rate == (0.02 if impairments else 0.0)
        # Impaired: one deferred stream, shared by both directions,
        # built on no draw.  Unimpaired: a link that never draws holds
        # no stream handle at all.
        assert uplink._rng is downlink._rng
        if impairments:
            assert uplink._rng.name == "net.lte.lte0.edge0"
        else:
            assert uplink._rng is None
        assert "net.lte.lte0.edge0" not in dep.rng._streams


    @pytest.mark.parametrize("impairments", [True, False],
                             ids=["impaired", "unimpaired"])
    def test_wifi_link_parameters_are_pinned(self, make_deployment,
                                             impairments):
        config = CoICConfig(seed=0)
        net = config.network
        net.wifi_mbps, net.wifi_delay_ms = 250.0, 1.5
        net.wifi_jitter_ms, net.loss_rate = 0.4, 0.01
        spec = dataclasses.replace(mixed_access_spec(),
                                   impairments=impairments)
        dep = make_deployment(spec=spec, config=config)
        uplink, downlink = dep.topology.leaves["wifi0"].attachments["edge0"]
        for link in (uplink, downlink):
            # A symmetric duplex at the configured 802.11ac rate.
            assert link.bandwidth_bps == 250e6
            assert link.propagation_s == 0.0015
            assert link.jitter_s == (0.0004 if impairments else 0.0)
            assert link.loss_rate == (0.01 if impairments else 0.0)
        assert uplink._rng is downlink._rng
        if impairments:
            assert uplink._rng.name == "net.wifi.wifi0.edge0"
        else:
            assert uplink._rng is None


class TestBackgroundTraffic:
    def test_backhaul_links_follow_the_diurnal_curve(self, make_deployment):
        from repro.core.scenario import BackgroundTrafficSpec

        background = BackgroundTrafficSpec(period_s=40.0, peak_util=0.5,
                                           update_s=10.0)
        spec = ScenarioSpec.metro(n_edges=2, clients_per_edge=1,
                                  background=background)
        dep = make_deployment(spec=spec)
        nominal = {link: link.bandwidth_bps
                   for pair in dep.backhaul.values() for link in pair}
        dep.run_for(21.0)
        # Last update at t=20 = period/2: the curve peaks (level=1.0),
        # leaving residual 1 - peak_util = 50% of nominal.
        for link, bps in nominal.items():
            assert link.bandwidth_bps == pytest.approx(0.5 * bps)
        assert dep.rate_changes >= 3 * len(nominal)

    def test_inter_edge_scope_spares_the_backhaul(self, make_deployment):
        from repro.core.scenario import BackgroundTrafficSpec

        background = BackgroundTrafficSpec(period_s=40.0, peak_util=0.5,
                                           update_s=10.0,
                                           scope="inter_edge")
        spec = ScenarioSpec.metro(n_edges=2, clients_per_edge=1,
                                  background=background)
        dep = make_deployment(spec=spec)
        backhaul_nominal = {link: link.bandwidth_bps
                            for pair in dep.backhaul.values()
                            for link in pair}
        mesh_nominal = {link: link.bandwidth_bps
                        for pair in dep.inter_edge_links.values()
                        for link in pair}
        dep.run_for(21.0)
        for link, bps in backhaul_nominal.items():
            assert link.bandwidth_bps == bps
        for link, bps in mesh_nominal.items():
            assert link.bandwidth_bps == pytest.approx(0.5 * bps)

    def test_each_update_reshapes_every_link_once(self, make_deployment):
        from repro.core.scenario import BackgroundTrafficSpec

        background = BackgroundTrafficSpec(period_s=40.0, peak_util=0.5,
                                           update_s=10.0, scope="all")
        spec = ScenarioSpec.metro(n_edges=2, clients_per_edge=1,
                                  background=background)
        dep = make_deployment(spec=spec)
        n_links = sum(len(pair) for links in (dep.backhaul,
                                              dep.inter_edge_links)
                      for pair in links.values())
        dep.run_for(25.0)
        # Updates at t = 0, 10 and 20.
        assert dep.rate_changes == 3 * n_links

    def test_trough_leaves_nominal_capacity(self, make_deployment):
        from repro.core.scenario import BackgroundTrafficSpec

        background = BackgroundTrafficSpec(period_s=40.0, peak_util=0.5,
                                           update_s=10.0)
        spec = ScenarioSpec.metro(n_edges=2, clients_per_edge=1,
                                  background=background)
        dep = make_deployment(spec=spec)
        nominal = {link: link.bandwidth_bps
                   for pair in dep.backhaul.values() for link in pair}
        dep.run_for(5.0)
        # t=0 is the curve's trough: the links keep their full rate, and
        # the update that set it still counts.
        for link, bps in nominal.items():
            assert link.bandwidth_bps == bps
        assert dep.rate_changes == len(nominal)

    def test_no_background_means_no_rate_changes(self, make_deployment):
        spec = ScenarioSpec.metro(n_edges=2, clients_per_edge=1)
        dep = make_deployment(spec=spec)
        dep.run_for(21.0)
        assert dep.rate_changes == 0
