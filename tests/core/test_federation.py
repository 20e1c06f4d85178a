"""Tests for repro.core.federation (multi-edge cooperation)."""

import pytest

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.edge import EdgeNode
from repro.core.federation import probe_order
from repro.core.pipeline import Pipeline, RespondStage, Stage
from repro.core.scenario import ScenarioSpec, WarmupSpec
from repro.net.message import Message


@pytest.fixture
def config():
    cfg = CoICConfig()
    cfg.network.wifi_mbps = 100
    cfg.network.backhaul_mbps = 10
    return cfg


def federated(config, **spec_kwargs):
    return ClusterDeployment(ScenarioSpec.federated(**spec_kwargs),
                             config=config)


class TestTopology:
    def test_shape(self, config):
        dep = federated(config, n_edges=3, clients_per_edge=2)
        assert len(dep.edges) == 3
        assert len(dep.clients_by_edge) == 3
        assert all(len(row) == 2 for row in dep.clients_by_edge)
        # Edges are fully meshed over metro links.
        assert dep.topology.shortest_path("edge0", "edge2") == \
            ["edge0", "edge2"]

    def test_validation(self, config):
        with pytest.raises(ValueError):
            ScenarioSpec.federated(n_edges=0)
        with pytest.raises(ValueError):
            ScenarioSpec.federated(clients_per_edge=0)

    def test_peer_lists_exclude_self(self, config):
        dep = federated(config, n_edges=3)
        for k, edge in enumerate(dep.edges):
            assert type(edge) is EdgeNode
            assert edge.host.name not in edge.peers
            assert len(edge.peers) == 2


class TestCrossEdgeSharing:
    def test_model_load_federated_hit(self, config):
        dep = federated(config, n_edges=2)
        task = dep.model_load_task(0)
        first = dep.run_tasks(dep.clients_by_edge[0][0], [task])[0]
        dep.env.run()
        second = dep.run_tasks(dep.clients_by_edge[1][0], [task])[0]
        assert first.outcome == "miss"
        assert second.outcome == "hit"
        assert dep.edges[1].counts["peer_hits"] == 1
        # The federated hit also landed in edge1's own cache.
        assert len(dep.caches[1]) == 1

    def test_isolated_edges_re_miss(self, config):
        dep = federated(config, n_edges=2, federate=False)
        task = dep.model_load_task(0)
        dep.run_tasks(dep.clients_by_edge[0][0], [task])
        dep.env.run()
        second = dep.run_tasks(dep.clients_by_edge[1][0], [task])[0]
        assert second.outcome == "miss"

    def test_federated_faster_than_isolated(self, config):
        def second_edge_latency(federate):
            dep = federated(config, n_edges=2, federate=federate)
            task = dep.model_load_task(1)
            dep.run_tasks(dep.clients_by_edge[0][0], [task])
            dep.env.run()
            return dep.run_tasks(dep.clients_by_edge[1][0],
                                 [task])[0].latency_s

        assert second_edge_latency(True) < second_edge_latency(False)

    def test_recognition_federated_hit(self, config):
        dep = federated(config, n_edges=2)
        r1 = dep.run_tasks(dep.clients_by_edge[0][0],
                           [dep.recognition_task(7, viewpoint=-0.2)])[0]
        dep.env.run()
        r2 = dep.run_tasks(dep.clients_by_edge[1][0],
                           [dep.recognition_task(7, viewpoint=0.2)])[0]
        assert (r1.outcome, r2.outcome) == ("miss", "hit")
        assert r2.correct

    def test_panorama_federated_hit(self, config):
        dep = federated(config, n_edges=2)
        task = dep.panorama_task(0, 5)
        dep.run_tasks(dep.clients_by_edge[0][0], [task])
        dep.env.run()
        r = dep.run_tasks(dep.clients_by_edge[1][0], [task])[0]
        assert r.outcome == "hit"

    def test_cold_everywhere_falls_through_to_cloud(self, config):
        dep = federated(config, n_edges=2)
        r = dep.run_tasks(dep.clients_by_edge[1][0],
                          [dep.model_load_task(0)])[0]
        assert r.outcome == "miss"
        assert dep.edges[1].counts["peer_misses"] == 1

    def test_three_edge_diffusion(self, config):
        """Content fetched once per federation, not once per edge."""
        dep = federated(config, n_edges=3)
        task = dep.model_load_task(0)
        dep.run_tasks(dep.clients_by_edge[0][0], [task])
        dep.env.run()
        dep.run_tasks(dep.clients_by_edge[1][0], [task])
        dep.env.run()
        r3 = dep.run_tasks(dep.clients_by_edge[2][0], [task])[0]
        assert r3.outcome == "hit"
        assert dep.cloud.counts["requests_served"] == 1

    def test_partitioned_peer_reply_costs_one_probe(self, config):
        """A peer that hears the probe but cannot answer drops its reply;
        the asking edge times the probe out and goes to the cloud."""
        dep = federated(config, n_edges=2)
        for dst in ("edge1", "cloud"):   # every way out of edge0
            dep.topology.link("edge0", dst).set_up(False)
        r = dep.run_tasks(dep.clients_by_edge[1][0],
                          [dep.model_load_task(0)])[0]
        dep.env.run()  # no unhandled failure is left behind either
        assert r.outcome == "miss"
        assert r.latency_s > dep.edges[1].peer_timeout_s
        assert dep.edges[0].counts["responses_dropped"] == 1
        assert dep.edges[0].counts["requests_served"] == 1
        assert dep.edges[1].counts["peer_misses"] == 1

    def test_peer_timeout_validated(self, config):
        dep = federated(config, n_edges=1)
        with pytest.raises(ValueError):
            EdgeNode(
                dep.env, dep.rpc, dep.topology.hosts["edge0"],
                cache=dep.caches[0], config=config,
                recognizer=dep.edges[0].recognizer,
                loader=dep.edges[0].loader, peer_timeout_s=0)


class TestAffinityProbeOrder:
    """Gossiped cache summaries steer peer probes likeliest-holder-first."""

    def _metro(self, config):
        # Metro spec with only the far edge (edge3) warmed: a miss at
        # edge0 must go hunting through the federation for class 7.
        spec = ScenarioSpec.metro(
            n_edges=4, clients_per_edge=1, federate=True,
            warmup=WarmupSpec(classes=(7,), edges=("edge3",)))
        return ClusterDeployment(spec, config=config)

    def test_spec_order_probes_every_cold_peer_first(self, config):
        dep = self._metro(config)
        record = dep.run_tasks(dep.clients_by_edge[0][0],
                               [dep.recognition_task(7)])[0]
        assert record.outcome == "hit"
        edge0 = dep.edges[0]
        assert edge0.counts["peer_hits"] == 1
        # Without summaries, probing walks the configured order and
        # pays a backhaul round trip at edge1 and edge2 before edge3.
        assert len(edge0.probe_log) == 3

    def test_summaries_cut_probes_per_hit(self, config):
        dep = self._metro(config)
        edge0 = dep.edges[0]
        # One gossip round has landed: edge0 holds a fresh summary of
        # every peer (normally pushed by the deployment's gossip loop).
        for name, cache in dep.cache_by_name.items():
            if name != "edge0":
                edge0.peer_summaries[name] = cache.summary()
        record = dep.run_tasks(dep.clients_by_edge[0][0],
                               [dep.recognition_task(7)])[0]
        assert record.outcome == "hit"
        assert edge0.counts["peer_hits"] == 1
        # The sketch points straight at the holder: one probe, no
        # wasted backhaul round trips at the cold peers.
        assert len(edge0.probe_log) == 1

    def test_probe_order_unchanged_without_summaries(self, config):
        dep = self._metro(config)
        edge0 = dep.edges[0]
        descriptor = dep.caches[3].descriptor(dep.caches[3].entries()[0])
        assert probe_order(edge0, descriptor) == edge0.peers

    def test_cold_summaries_fall_back_to_spec_order(self, config):
        dep = self._metro(config)
        edge0 = dep.edges[0]
        # All peers report empty caches: every score ties at 0.0 and
        # the stable sort preserves the configured nearest-first order.
        from repro.core.cache import CacheSummary

        for peer in edge0.peers:
            edge0.peer_summaries[peer] = CacheSummary(kinds={}, sketches={})
        descriptor = dep.caches[3].descriptor(dep.caches[3].entries()[0])
        assert probe_order(edge0, descriptor) == edge0.peers


class _RespondTap(RespondStage):
    """The respond stage, keeping what it was asked to send."""

    def __init__(self):
        self.sent = []

    def run(self, edge, ctx):
        self.sent.append((ctx.outcome, dict(ctx.extra_headers)))
        yield from super().run(edge, ctx)


class _ArrivalTap(Stage):
    """A first stage that only keeps when each request arrived and how."""

    name = "arrival_tap"

    def __init__(self):
        self.arrivals = []

    def run(self, edge, ctx):
        self.arrivals.append(
            (edge.env.now, bool(ctx.msg.headers.get("force_forward"))))
        return
        yield  # a stage is a generator


def tap(edge):
    """Put recording stages at both ends of ``edge``'s pipeline."""
    arrival, respond = _ArrivalTap(), _RespondTap()
    *stages, last = edge.pipeline.stages
    assert last.name == RespondStage.name
    edge.pipeline = Pipeline([arrival, *stages, respond])
    return arrival, respond


class TestMissCoalescing:
    """Peers + cloud leg are one coalesced fetch (federation used to
    register the in-flight marker only after the probe round, so a
    second request inside the probe window probed and fetched again)."""

    @pytest.mark.parametrize("kind", ["panorama", "model_load"])
    def test_second_request_rides_the_first_fetch(self, config, kind):
        dep = federated(config, n_edges=3, clients_per_edge=2)
        _, respond = tap(dep.edges[0])
        task = (dep.panorama_task(0, 0) if kind == "panorama"
                else dep.model_load_task(0))
        first, second = dep.clients_by_edge[0]
        dep.run_concurrent([(0.0, first, task), (0.002, second, task)])
        dep.env.run()
        assert dep.cloud.counts["requests_served"] == 1
        assert len(dep.edges[0].probe_log) == 2
        records = sorted(dep.recorder.records, key=lambda r: r.start_s)
        assert [r.outcome for r in records] == ["miss", "hit"]
        assert respond.sent == [("miss", {}), ("hit", {"coalesced": True})]
        if kind == "model_load":
            # Waiters are released by the background parse, not by the
            # raw file's arrival: the second viewer gets the loaded form.
            assert records[1].detail == {"parsed": True}
        assert dep.edges[0]._inflight == {}

    def test_failed_fetch_releases_the_marker(self, config):
        dep = federated(config, n_edges=2)
        dep.topology.link("edge0", "cloud").set_up(False)
        dep.topology.link("edge0", "edge1").set_up(False)
        record = dep.run_tasks(dep.clients_by_edge[0][0],
                               [dep.panorama_task(0, 0)])[0]
        assert record.outcome == "error"
        assert dep.edges[0]._inflight == {}


RECOGNITION_CLASS = 7


def _resolve_case(request):
    """Config knobs, warm-up and task factory of one request shape."""
    cfg = CoICConfig()
    cfg.network.wifi_mbps = 100
    cfg.network.backhaul_mbps = 10
    if request == "client_descriptor":
        cfg.recognition.descriptor_source = "client"
        cfg.recognition.attach_input = False
    elif request == "speculative":
        cfg.recognition.speculative_forward = True
    if request == "hash":
        return (cfg, WarmupSpec(models=(0,), edges=("edge1",)),
                lambda dep: dep.model_load_task(0))
    return (cfg, WarmupSpec(classes=(RECOGNITION_CLASS,), edges=("edge1",)),
            lambda dep: dep.recognition_task(RECOGNITION_CLASS))


class TestResolveOrder:
    """The miss order ``ResolveStage`` owns: local hit -> awaited
    speculative result -> ``need_input`` -> peers -> cloud."""

    @pytest.mark.parametrize("peer_holds", [True, False],
                             ids=["peer_holds", "nobody_holds"])
    @pytest.mark.parametrize("request_shape", [
        "edge_frame", "client_descriptor", "speculative", "hash"])
    def test_matrix(self, request_shape, peer_holds):
        cfg, warmup, make_task = _resolve_case(request_shape)
        dep = ClusterDeployment(ScenarioSpec.federated(n_edges=2),
                                config=cfg)
        if peer_holds:
            dep.warm_caches(warmup)
        edge0, cache0 = dep.edges[0], dep.caches[0]
        arrival, respond = tap(edge0)
        record = dep.run_tasks(dep.clients_by_edge[0][0],
                               [make_task(dep)])[0]
        dep.env.run()  # a model miss parses in the background

        if request_shape == "client_descriptor":
            # Round one is answered with need_input before any backhaul
            # is spent; the re-sent frame is what probes.
            (_, first_forced), (resent_at, forced) = arrival.arrivals
            assert (first_forced, forced) == (False, True)
            assert all(when >= resent_at for when, _ in edge0.probe_log)
        else:
            assert len(arrival.arrivals) == 1

        if request_shape == "speculative":
            # The hedged forward is already in flight: never probe,
            # whoever holds the entry.
            assert edge0.probe_log == []
            served_by_peer = False
        else:
            assert [peer for _, peer in edge0.probe_log] == ["edge1"]
            served_by_peer = peer_holds

        if served_by_peer:
            assert dep.cloud.counts["requests_served"] == 0
            assert record.outcome == "hit"
            assert respond.sent == [("hit", {"federated": True})]
            # Inserted locally, valued at the probe round trip.
            (entry,) = cache0.entries()
            (probed_at, _), = edge0.probe_log
            assert entry.cost_s == entry.created_at - probed_at
            assert 0 < entry.cost_s < record.latency_s
        else:
            assert dep.cloud.counts["requests_served"] == 1
            assert record.outcome == "miss"
            assert respond.sent == [("miss", {})]
            assert len(cache0) == 1

    def test_frame_without_descriptor_goes_straight_to_the_cloud(self):
        """A forced forward that carries no descriptor has nothing to
        probe with and nothing to key an insert under."""
        cfg, warmup, make_task = _resolve_case("edge_frame")
        dep = ClusterDeployment(ScenarioSpec.federated(n_edges=2),
                                config=cfg)
        dep.warm_caches(warmup)
        task = make_task(dep)
        request = Message(
            size_bytes=64 + task.input_bytes, kind="ic_request",
            payload=task, src="mobile0_0", dst="edge0",
            headers={"has_input": True, "force_forward": True})
        response = dep.env.run(until=dep.rpc.call(request, timeout=5.0))
        assert response.kind == "ic_result"
        assert response.headers["outcome"] == "miss"
        assert "federated" not in response.headers
        assert dep.edges[0].probe_log == []
        assert dep.cloud.counts["requests_served"] == 1
        assert len(dep.caches[0]) == 0
