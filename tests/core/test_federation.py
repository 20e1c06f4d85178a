"""Tests for repro.core.federation (multi-edge cooperation)."""

import pytest

from repro.core.config import CoICConfig
from repro.core.federation import FederatedDeployment, FederatedEdgeNode


@pytest.fixture
def config():
    cfg = CoICConfig()
    cfg.network.wifi_mbps = 100
    cfg.network.backhaul_mbps = 10
    return cfg


class TestTopology:
    def test_shape(self, config):
        dep = FederatedDeployment(config, n_edges=3, clients_per_edge=2)
        assert len(dep.edges) == 3
        assert len(dep.clients) == 3
        assert all(len(row) == 2 for row in dep.clients)
        # Edges are fully meshed over metro links.
        assert dep.topology.shortest_path("edge0", "edge2") == \
            ["edge0", "edge2"]

    def test_validation(self, config):
        with pytest.raises(ValueError):
            FederatedDeployment(config, n_edges=0)
        with pytest.raises(ValueError):
            FederatedDeployment(config, clients_per_edge=0)

    def test_peer_lists_exclude_self(self, config):
        dep = FederatedDeployment(config, n_edges=3)
        for k, edge in enumerate(dep.edges):
            assert isinstance(edge, FederatedEdgeNode)
            assert edge.host.name not in edge.peers
            assert len(edge.peers) == 2


class TestCrossEdgeSharing:
    def test_model_load_federated_hit(self, config):
        dep = FederatedDeployment(config, n_edges=2)
        task = dep.model_load_task(0)
        first = dep.run_tasks(dep.clients[0][0], [task])[0]
        dep.env.run()
        second = dep.run_tasks(dep.clients[1][0], [task])[0]
        assert first.outcome == "miss"
        assert second.outcome == "hit"
        assert dep.edges[1].peer_hits == 1
        # The federated hit also landed in edge1's own cache.
        assert len(dep.caches[1]) == 1

    def test_isolated_edges_re_miss(self, config):
        dep = FederatedDeployment(config, n_edges=2, federate=False)
        task = dep.model_load_task(0)
        dep.run_tasks(dep.clients[0][0], [task])
        dep.env.run()
        second = dep.run_tasks(dep.clients[1][0], [task])[0]
        assert second.outcome == "miss"

    def test_federated_faster_than_isolated(self, config):
        def second_edge_latency(federate):
            dep = FederatedDeployment(config, n_edges=2,
                                      federate=federate)
            task = dep.model_load_task(1)
            dep.run_tasks(dep.clients[0][0], [task])
            dep.env.run()
            return dep.run_tasks(dep.clients[1][0], [task])[0].latency_s

        assert second_edge_latency(True) < second_edge_latency(False)

    def test_recognition_federated_hit(self, config):
        dep = FederatedDeployment(config, n_edges=2)
        r1 = dep.run_tasks(dep.clients[0][0],
                           [dep.recognition_task(7, viewpoint=-0.2)])[0]
        dep.env.run()
        r2 = dep.run_tasks(dep.clients[1][0],
                           [dep.recognition_task(7, viewpoint=0.2)])[0]
        assert (r1.outcome, r2.outcome) == ("miss", "hit")
        assert r2.correct

    def test_panorama_federated_hit(self, config):
        dep = FederatedDeployment(config, n_edges=2)
        task = dep.panorama_task(0, 5)
        dep.run_tasks(dep.clients[0][0], [task])
        dep.env.run()
        r = dep.run_tasks(dep.clients[1][0], [task])[0]
        assert r.outcome == "hit"

    def test_cold_everywhere_falls_through_to_cloud(self, config):
        dep = FederatedDeployment(config, n_edges=2)
        r = dep.run_tasks(dep.clients[1][0],
                          [dep.model_load_task(0)])[0]
        assert r.outcome == "miss"
        assert dep.edges[1].peer_misses == 1

    def test_three_edge_diffusion(self, config):
        """Content fetched once per federation, not once per edge."""
        dep = FederatedDeployment(config, n_edges=3)
        task = dep.model_load_task(0)
        dep.run_tasks(dep.clients[0][0], [task])
        dep.env.run()
        dep.run_tasks(dep.clients[1][0], [task])
        dep.env.run()
        r3 = dep.run_tasks(dep.clients[2][0], [task])[0]
        assert r3.outcome == "hit"
        assert dep.cloud.requests_served == 1

    def test_partitioned_peer_reply_costs_one_probe(self, config):
        """A peer that hears the probe but cannot answer drops its reply;
        the asking edge times the probe out and goes to the cloud."""
        dep = FederatedDeployment(config, n_edges=2)
        for dst in ("edge1", "cloud"):   # every way out of edge0
            dep.topology.link("edge0", dst).set_up(False)
        r = dep.run_tasks(dep.clients[1][0],
                          [dep.model_load_task(0)])[0]
        dep.env.run()  # no unhandled failure is left behind either
        assert r.outcome == "miss"
        assert r.latency_s > dep.edges[1].peer_timeout_s
        assert dep.edges[0].responses_dropped == 1
        assert dep.edges[0].requests_served == 1
        assert dep.edges[1].peer_misses == 1

    def test_peer_timeout_validated(self, config):
        dep = FederatedDeployment(config, n_edges=1)
        with pytest.raises(ValueError):
            FederatedEdgeNode(
                dep.env, dep.rpc, dep.topology.hosts["edge0"],
                cache=dep.caches[0], config=config,
                recognizer=dep.edges[0].recognizer,
                loader=dep.edges[0].loader, peer_timeout_s=0)


class TestAffinityProbeOrder:
    """Gossiped cache summaries steer peer probes likeliest-holder-first."""

    def _metro(self, config):
        from repro.core.cluster import ClusterDeployment
        from repro.core.scenario import ScenarioSpec, WarmupSpec

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
        assert edge0.peer_hits == 1
        # Without summaries, probing walks the configured order and
        # pays a backhaul round trip at edge1 and edge2 before edge3.
        assert edge0.peer_probes == 3

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
        assert edge0.peer_hits == 1
        # The sketch points straight at the holder: one probe, no
        # wasted backhaul round trips at the cold peers.
        assert edge0.peer_probes == 1

    def test_probe_order_unchanged_without_summaries(self, config):
        dep = self._metro(config)
        edge0 = dep.edges[0]
        descriptor = dep.caches[3].entries()[0].descriptor
        assert edge0._probe_order(descriptor) == edge0.peers

    def test_cold_summaries_fall_back_to_spec_order(self, config):
        dep = self._metro(config)
        edge0 = dep.edges[0]
        # All peers report empty caches: every score ties at 0.0 and
        # the stable sort preserves the configured nearest-first order.
        from repro.core.cache import CacheSummary

        for peer in edge0.peers:
            edge0.peer_summaries[peer] = CacheSummary(kinds={}, sketches={})
        descriptor = dep.caches[3].entries()[0].descriptor
        assert edge0._probe_order(descriptor) == edge0.peers
