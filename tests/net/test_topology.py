"""Unit tests for repro.net.topology."""

import pytest

from repro.net import NoRouteError, Topology
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def topo(env):
    return Topology(env)


class TestConstruction:
    def test_add_host_idempotent(self, topo):
        a = topo.add_host("a")
        assert topo.add_host("a") is a

    def test_self_link_rejected(self, topo):
        with pytest.raises(ValueError):
            topo.add_link("a", "a", 1e6)

    def test_duplex_creates_both_directions(self, topo):
        fwd, bwd = topo.add_duplex("a", "b", 1e6)
        assert topo.link("a", "b") is fwd
        assert topo.link("b", "a") is bwd

    def test_readding_a_link_is_refused(self, topo):
        # The live link keeps its routing hook; a silent swap would leave
        # the old one wired, and downing it would cut the live route.
        live = topo.add_link("a", "b", 1e6)
        with pytest.raises(ValueError, match="already exists"):
            topo.add_link("a", "b", 1e6)
        assert topo.link("a", "b") is live
        assert topo.shortest_path("a", "b") == ["a", "b"]

    def test_duplex_over_a_reversed_link_adds_nothing(self, topo):
        topo.add_link("b", "a", 1e6)
        with pytest.raises(ValueError, match="already exists"):
            topo.add_duplex("a", "b", 1e6)
        assert topo.neighbors("a") == []

    def test_links_enumeration(self, topo):
        topo.add_duplex("a", "b", 1e6)
        topo.add_link("b", "c", 1e6)
        assert len(topo.links()) == 3


class TestRemoveLink:
    def test_removed_link_is_gone_and_its_stale_handle_is_inert(self, topo):
        topo.add_duplex("a", "b", 1e6)
        topo.add_duplex("b", "c", 1e6)
        topo.add_duplex("a", "c", 1e5)
        stale = topo.link("a", "b")
        assert topo.remove_link("a", "b") is stale
        with pytest.raises(KeyError):
            topo.link("a", "b")
        assert not stale.up
        assert len(topo.links()) == 5
        assert topo.shortest_path("a", "b") == ["a", "c", "b"]
        views = dict(topo._adj["a"])
        routes = dict(topo._routes)
        stale.set_up(True)
        stale.set_bandwidth(1e9)
        assert topo._adj["a"] == views
        assert topo._routes == routes
        assert topo.shortest_path("a", "b") == ["a", "c", "b"]

    def test_removed_pair_can_be_added_afresh(self, topo):
        topo.add_duplex("a", "b", 1e6)
        old = topo.remove_link("a", "b")
        new = topo.add_link("a", "b", 1e6)
        assert new is not old and topo.link("a", "b") is new
        assert topo.shortest_path("a", "b") == ["a", "b"]

    def test_unknown_pair_raises(self, topo):
        topo.add_link("a", "b", 1e6)
        with pytest.raises(KeyError):
            topo.remove_link("b", "a")
        with pytest.raises(KeyError):
            topo.remove_link("a", "ghost")
        topo.remove_link("a", "b")
        with pytest.raises(KeyError):
            topo.remove_link("a", "b")


class TestRouting:
    def test_direct_path(self, topo):
        topo.add_link("a", "b", 1e6)
        assert topo.shortest_path("a", "b") == ["a", "b"]

    def test_two_hop_path(self, topo):
        topo.add_link("m", "e", 1e6, propagation_s=0.001)
        topo.add_link("e", "c", 1e6, propagation_s=0.010)
        assert topo.shortest_path("m", "c") == ["m", "e", "c"]

    def test_prefers_lower_latency(self, topo):
        # Direct slow link vs two fast hops.
        topo.add_link("a", "b", 1e6, propagation_s=1.0)
        topo.add_link("a", "r", 1e9, propagation_s=0.001)
        topo.add_link("r", "b", 1e9, propagation_s=0.001)
        assert topo.shortest_path("a", "b") == ["a", "r", "b"]

    def test_same_host_path(self, topo):
        topo.add_host("a")
        assert topo.shortest_path("a", "a") == ["a"]

    def test_unknown_host_raises(self, topo):
        topo.add_host("a")
        with pytest.raises(KeyError):
            topo.shortest_path("a", "ghost")

    def test_no_route_raises(self, topo):
        topo.add_host("a")
        topo.add_host("isolated")
        with pytest.raises(NoRouteError):
            topo.shortest_path("a", "isolated")

    def test_down_links_excluded(self, topo):
        link = topo.add_link("a", "b", 1e6)
        topo.add_link("a", "r", 1e6, propagation_s=0.5)
        topo.add_link("r", "b", 1e6, propagation_s=0.5)
        link.set_up(False)
        assert topo.shortest_path("a", "b") == ["a", "r", "b"]

    def test_rate_change_reroutes_a_cached_path(self, topo):
        # The direct link wins at 1 Gbps; throttled, the two-hop detour
        # does, though the direct route was already cached.
        direct = topo.add_link("a", "b", 1e9, propagation_s=0.002)
        topo.add_link("a", "r", 1e9, propagation_s=0.001)
        topo.add_link("r", "b", 1e9, propagation_s=0.001)
        assert topo.shortest_path("a", "b") == ["a", "b"]
        direct.set_bandwidth(1e3)
        assert topo.shortest_path("a", "b") == ["a", "r", "b"]
        direct.set_bandwidth(1e9)
        assert topo.shortest_path("a", "b") == ["a", "b"]

    def test_down_interior_link_reroutes(self, topo):
        """A mid-path link going down leaves no stale cached route."""
        for a, b in (("a", "b"), ("b", "c"), ("c", "d")):
            topo.add_duplex(a, b, 1e9, propagation_s=0.001)
        topo.add_duplex("b", "e", 1e8, propagation_s=0.005)
        topo.add_duplex("e", "d", 1e8, propagation_s=0.005)
        assert topo.shortest_path("a", "d") == ["a", "b", "c", "d"]
        topo.link("b", "c").set_up(False)
        assert topo.shortest_path("a", "d") == ["a", "b", "e", "d"]
        assert all(link.up for link in topo.path_links("a", "d"))
        topo.link("b", "c").set_up(True)
        assert topo.shortest_path("a", "d") == ["a", "b", "c", "d"]

    def test_path_links_order(self, topo):
        topo.add_link("m", "e", 1e6)
        topo.add_link("e", "c", 1e6)
        links = topo.path_links("m", "c")
        assert [l.name for l in links] == ["m->e", "e->c"]

    def test_nominal_latency_sums_hops(self, topo):
        topo.add_link("m", "e", 8e6, propagation_s=0.001)
        topo.add_link("e", "c", 8e6, propagation_s=0.010)
        # 1 MB: 1 s per hop at 8 Mbps, plus props.
        expected = 1.0 + 0.001 + 1.0 + 0.010
        assert topo.nominal_latency("m", "c", 1_000_000) == pytest.approx(
            expected)

    def test_nominal_latency_follows_a_rate_change(self, topo):
        link = topo.add_link("m", "e", 1e6, propagation_s=0.01)
        assert topo.nominal_latency("m", "e", 125_000) == pytest.approx(1.01)
        link.set_bandwidth(2e6)
        assert topo.nominal_latency("m", "e", 125_000) == pytest.approx(0.51)

    def test_neighbors(self, topo):
        topo.add_duplex("a", "b", 1e6)
        link = topo.add_link("a", "c", 1e6)
        assert set(topo.neighbors("a")) == {"b", "c"}
        link.set_up(False)
        assert topo.neighbors("a") == ["b"]


class TestLeaves:
    def test_attach_builds_the_access_pair(self, topo):
        up, down = topo.attach("phone", "edge", 5e6, 20e6,
                               propagation_s=0.01)
        assert (up.name, down.name) == ("phone->edge", "edge->phone")
        assert (up.bandwidth_bps, down.bandwidth_bps) == (5e6, 20e6)
        assert up.propagation_s == down.propagation_s == 0.01
        assert topo.link("phone", "edge") is up
        assert topo.link("edge", "phone") is down
        assert set(topo.links()) == {up, down}
        assert topo.neighbors("phone") == ["edge"]
        assert topo.neighbors("edge") == ["phone"]
        assert list(topo.hosts) == ["edge"]
        assert topo.leaves["phone"].attachments == {"edge": (up, down)}
        assert topo.host("phone") is topo.leaves["phone"]

    def test_leaf_and_site_names_do_not_mix(self, topo):
        topo.add_duplex("edgeA", "edgeB", 1e6)
        topo.attach("phone", "edgeA", 1e8, 1e8)
        with pytest.raises(ValueError, match="is a leaf"):
            topo.add_link("phone", "edgeB", 1e6)
        with pytest.raises(ValueError, match="is a leaf"):
            topo.add_duplex("edgeB", "phone", 1e6)
        with pytest.raises(ValueError, match="is a leaf"):
            topo.attach("other", "phone", 1e8, 1e8)
        with pytest.raises(ValueError, match="is a site"):
            topo.attach("edgeB", "edgeA", 1e8, 1e8)
        with pytest.raises(ValueError, match="already attached"):
            topo.attach("phone", "edgeA", 1e8, 1e8)
        with pytest.raises(KeyError):
            topo.remove_link("phone", "edgeA")
        with pytest.raises(KeyError):
            topo.detach("phone", "edgeB")
        with pytest.raises(KeyError):
            topo.detach("ghost", "edgeA")
        assert "other" not in topo.leaves and "phone" not in topo.hosts

    def test_leaf_never_transits(self, topo):
        # Dual-homed phone between two edges: the two fast hops through
        # it would beat the slow metro link, but a leaf may only start
        # or end routes.
        topo.add_duplex("edgeA", "edgeB", 1e6, propagation_s=0.5)
        topo.attach("phone", "edgeA", 1e9, 1e9, propagation_s=0.001)
        topo.attach("phone", "edgeB", 1e9, 1e9, propagation_s=0.001)
        assert topo.shortest_path("edgeA", "edgeB") == ["edgeA", "edgeB"]
        # Routes from/to the phone itself still work.
        assert topo.shortest_path("phone", "edgeB") == ["phone", "edgeB"]
        assert topo.shortest_path("edgeA", "phone") == ["edgeA", "phone"]

    def test_hop_through_a_leaf_is_no_route(self, topo):
        # The only way from "a" to "c" is the phone: still not one a
        # route may take.
        topo.attach("phone", "a", 1e9, 1e9)
        topo.attach("phone", "c", 1e9, 1e9)
        with pytest.raises(NoRouteError):
            topo.shortest_path("a", "c")
        assert topo.shortest_path("a", "phone") == ["a", "phone"]
        assert topo.shortest_path("phone", "c") == ["phone", "c"]

    def test_down_access_link_is_no_route(self, topo):
        topo.add_duplex("edgeA", "edgeB", 1e6)
        up, down = topo.attach("phone", "edgeA", 1e8, 1e8)
        up.set_up(False)
        with pytest.raises(NoRouteError):
            topo.shortest_path("phone", "edgeB")
        assert topo.shortest_path("edgeB", "phone") == [
            "edgeB", "edgeA", "phone"]
        down.set_up(False)
        with pytest.raises(NoRouteError):
            topo.shortest_path("edgeB", "phone")
        up.set_up(True)
        assert topo.shortest_path("phone", "edgeB") == [
            "phone", "edgeA", "edgeB"]

    def test_leaf_churn_keeps_the_site_route_cached(self, topo):
        # Nothing a leaf does can change a site route: attach, detach,
        # dual-homed routes and access-link changes keep the cached
        # (edgeA, edgeB) entry; a backhaul rate change drops it.
        topo.add_duplex("edgeA", "edgeB", 1e6, propagation_s=0.002)
        backhaul = topo.add_duplex("edgeB", "cloud", 1e7)
        up, down = topo.attach("phone", "edgeA", 1e8, 1e8)
        assert topo.shortest_path("phone", "edgeB") == [
            "phone", "edgeA", "edgeB"]
        route = topo._routes[("edgeA", "edgeB")]
        up.set_bandwidth(1e6)
        down.set_up(False)
        down.set_up(True)
        topo.attach("phone", "edgeB", 1e8, 1e8)
        assert topo.shortest_path("phone", "cloud") == [
            "phone", "edgeB", "cloud"]
        assert topo.shortest_path("cloud", "phone") == [
            "cloud", "edgeB", "phone"]
        topo.detach("phone", "edgeB")
        topo.attach("tablet", "edgeB", 1e8, 1e8)
        assert topo.shortest_path("phone", "tablet") == [
            "phone", "edgeA", "edgeB", "tablet"]
        assert topo._routes[("edgeA", "edgeB")] is route
        backhaul[0].set_bandwidth(2e7)
        assert ("edgeA", "edgeB") not in topo._routes

    def test_dual_homed_leaf_takes_the_first_named_of_equal_routes(
            self, topo):
        # From the cloud over two equal-cost backhauls, with equal
        # access pairs, the tie goes to the lower-named site, whatever
        # the order the phone attached in — as when a phone was a host
        # on plain duplex links.
        for edge in ("edgeB", "edgeA"):
            topo.add_duplex(edge, "cloud", 1e7, propagation_s=0.005)
        topo.attach("phone", "edgeB", 1e8, 1e8, propagation_s=0.001)
        topo.attach("phone", "edgeA", 1e8, 1e8, propagation_s=0.001)
        assert topo.shortest_path("cloud", "phone") == [
            "cloud", "edgeA", "phone"]
        assert topo.shortest_path("phone", "cloud") == [
            "phone", "edgeA", "cloud"]

    def test_routes_correct_after_handoff(self, topo):
        # Make-before-break: attach to edgeB, tear down edgeA, and the
        # phone's fresh routes go via the new attachment.
        topo.add_duplex("edgeA", "edgeB", 1e6, propagation_s=0.002)
        topo.attach("phone", "edgeA", 1e8, 1e8)
        assert topo.shortest_path("phone", "edgeB") == [
            "phone", "edgeA", "edgeB"]
        topo.attach("phone", "edgeB", 1e8, 1e8)
        old = topo.detach("phone", "edgeA")
        assert not any(link.up for link in old)
        assert topo.shortest_path("phone", "edgeB") == ["phone", "edgeB"]
        assert topo.shortest_path("edgeB", "phone") == ["edgeB", "phone"]
        assert topo.shortest_path("phone", "edgeA") == [
            "phone", "edgeB", "edgeA"]
        # The detached handles are inert.
        for link in old:
            link.set_up(True)
        assert topo.shortest_path("phone", "edgeA") == [
            "phone", "edgeB", "edgeA"]
        with pytest.raises(KeyError):
            topo.link("phone", "edgeA")
