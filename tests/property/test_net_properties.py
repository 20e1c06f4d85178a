"""Property-based tests for network timing invariants."""

import heapq

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.net import Link, Message, NoRouteError, Topology
from repro.sim import Environment


@given(size=st.integers(min_value=0, max_value=10_000_000),
       bandwidth_mbps=st.floats(min_value=0.1, max_value=1000),
       propagation_ms=st.floats(min_value=0, max_value=500))
@settings(max_examples=100, deadline=None)
def test_one_way_delay_decomposition(size, bandwidth_mbps, propagation_ms):
    env = Environment()
    link = Link(env, "l", bandwidth_mbps * 1e6,
                propagation_s=propagation_ms / 1e3)
    delay = link.one_way_delay(size)
    assert delay == pytest.approx(
        size * 8 / (bandwidth_mbps * 1e6) + propagation_ms / 1e3)
    assert delay >= propagation_ms / 1e3


@given(size_a=st.integers(min_value=0, max_value=1_000_000),
       size_b=st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=50, deadline=None)
def test_transfer_time_monotone_in_size(size_a, size_b):
    env = Environment()
    link = Link(env, "l", 10e6, propagation_s=0.01)
    small, large = sorted((size_a, size_b))
    assert link.one_way_delay(small) <= link.one_way_delay(large)


@given(sizes=st.lists(st.integers(min_value=1, max_value=100_000),
                      min_size=1, max_size=10))
@settings(max_examples=40, deadline=None)
def test_measured_transfer_matches_model_without_queueing(sizes):
    """Sequential transfers take exactly the modeled time each."""
    env = Environment()
    link = Link(env, "l", 8e6, propagation_s=0.005)
    measured = []

    def sender(env):
        for size in sizes:
            start = env.now
            yield from link.transfer(Message(size_bytes=size))
            measured.append(env.now - start)

    env.run(until=env.process(sender(env)))
    for size, elapsed in zip(sizes, measured):
        assert elapsed == pytest.approx(link.one_way_delay(size))


@given(hops=st.integers(min_value=1, max_value=6),
       size=st.integers(min_value=1, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_path_latency_is_sum_of_hops(hops, size):
    env = Environment()
    topo = Topology(env)
    names = [f"h{i}" for i in range(hops + 1)]
    for a, b in zip(names, names[1:]):
        topo.add_link(a, b, 10e6, propagation_s=0.001)
    total = topo.nominal_latency(names[0], names[-1], size)
    per_hop = topo.link(names[0], names[1]).one_way_delay(size)
    assert total == pytest.approx(hops * per_hop)


def _reference_costs(topo, src):
    """Plain Dijkstra over every up link from ``src``; a leaf is never
    interior.  Returns the cost to each reachable host."""
    dist, frontier, done = {src: 0.0}, [(0.0, src)], set()
    while frontier:
        d, here = heapq.heappop(frontier)
        if here in done:
            continue
        done.add(here)
        if here != src and here in topo.leaves:
            continue
        for nxt in topo.neighbors(here):
            nd = d + topo.link(here, nxt).one_way_delay(
                Topology.ROUTE_PROBE_BYTES)
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                heapq.heappush(frontier, (nd, nxt))
    return dist


def assert_site_views_are_live(topo):
    """The site map holds sites only and, for each, its live site links
    (up or down), derived from scratch from ``links()``; every cached
    site route is what a fresh search finds; and each leaf holds its
    attachments and no site map entry."""
    named = {link.name: link for link in topo.links()}
    expected = {a: {} for a in topo.hosts}
    for a in topo.hosts:
        for b in topo.hosts:
            if f"{a}->{b}" in named:
                expected[a][b] = named[f"{a}->{b}"]
    assert topo._adj == expected
    assert not set(topo.leaves) & set(topo.hosts)
    for (a, b), route in topo._routes.items():
        assert a in topo.hosts and b in topo.hosts
        assert route == topo._dijkstra(a, b)
    for name, leaf in topo.leaves.items():
        for site, (up, down) in leaf.attachments.items():
            assert site in topo.hosts
            assert named[f"{name}->{site}"] is up
            assert named[f"{site}->{name}"] is down


#: Sites h0..h6 take every site op; h0 is also a hub with a fixed fan
#: of site spokes, so a change on h0 has many in-neighbours.  Leaves
#: l0..l3 start on h0, h0, h1 and h2 and attach, detach and re-weight
#: all run long, dual-homed (or cut off) included.
_N_HOSTS, _N_SPOKES, _N_LEAVES = 7, 4, 4
_HOST = st.integers(min_value=0, max_value=_N_HOSTS - 1)
_LEAF = st.integers(min_value=0, max_value=_N_LEAVES - 1)
_RATE = st.sampled_from([1e6, 1e7, 1e8])
_CHURN = st.lists(st.one_of(
    st.tuples(st.just("add"), _HOST, _HOST, _RATE,
              st.sampled_from([0.0, 0.001, 0.01])),
    st.tuples(st.just("up"), st.integers(min_value=0), st.booleans()),
    st.tuples(st.just("repeat"), st.integers(min_value=0), st.booleans()),
    st.tuples(st.just("rate"), st.integers(min_value=0), _RATE),
    st.tuples(st.just("remove"), st.integers(min_value=0)),
    st.tuples(st.just("readd"), st.integers(min_value=0)),
    st.tuples(st.just("attach"), _LEAF, _HOST, _RATE, _RATE),
    st.tuples(st.just("detach"), _LEAF, st.integers(min_value=0)),
), min_size=1, max_size=30)


@given(ops=_CHURN)
@settings(max_examples=200, deadline=None)
def test_routes_match_reference_under_churn(ops):
    """After every topology change the site views equal the ones derived
    from scratch, and every route is a cheapest path over live links
    with no leaf inside.

    ``links`` keeps every link ever made, removed and detached ones
    included, so the admin and rate ops also hit stale handles, which
    must change nothing.
    """
    topo = Topology(Environment())
    names = [f"h{i}" for i in range(_N_HOSTS)]
    spokes = [f"s{i}" for i in range(_N_SPOKES)]
    leaves = [f"l{i}" for i in range(_N_LEAVES)]
    for name in names:
        topo.add_host(name)
    links = []
    for spoke in spokes:
        links.extend(topo.add_duplex(names[0], spoke, 1e7,
                                     propagation_s=0.001))
    for leaf, site in zip(leaves, ("h0", "h0", "h1", "h2")):
        links.extend(topo.attach(leaf, site, 1e7, 1e8, propagation_s=0.001))
    live = {link.name: link for link in links}
    removed: list[tuple[str, str, float, float]] = []
    assert_site_views_are_live(topo)

    def add(a, b, bandwidth, propagation):
        if f"{a}->{b}" in live:
            with pytest.raises(ValueError, match="already exists"):
                topo.add_link(a, b, bandwidth, propagation_s=propagation)
        else:
            link = topo.add_link(a, b, bandwidth, propagation_s=propagation)
            links.append(link)
            live[link.name] = link

    for op in ops:
        if op[0] == "add":
            a, b = names[op[1]], names[op[2]]
            if a == b:
                continue
            add(a, b, op[3], op[4])
        elif op[0] == "remove":
            sited = [l for l in live.values()
                     if l.name.split("->")[0] in topo.hosts
                     and l.name.split("->")[1] in topo.hosts]
            if not sited:
                continue
            link = sited[op[1] % len(sited)]
            a, b = link.name.split("->")
            assert topo.remove_link(a, b) is link
            del live[link.name]
            removed.append((a, b, link.bandwidth_bps, link.propagation_s))
        elif op[0] == "readd":
            if not removed:
                continue
            add(*removed.pop(op[1] % len(removed)))
        elif op[0] == "attach":
            leaf, site = leaves[op[1]], names[op[2]]
            if f"{leaf}->{site}" in live:
                with pytest.raises(ValueError, match="already attached"):
                    topo.attach(leaf, site, op[3], op[4])
                continue
            pair = topo.attach(leaf, site, op[3], op[4],
                               propagation_s=0.001)
            links.extend(pair)
            live.update((link.name, link) for link in pair)
        elif op[0] == "detach":
            held = list(topo.leaves[leaves[op[1]]].attachments)
            if not held:
                continue
            site = held[op[2] % len(held)]
            for link in topo.detach(leaves[op[1]], site):
                assert not link.up
                del live[link.name]
        elif op[0] in ("up", "repeat"):
            # "repeat" re-sends the same admin state: a no-op transition.
            for _ in range(1 if op[0] == "up" else 2):
                links[op[1] % len(links)].set_up(op[2])
        else:
            links[op[1] % len(links)].set_bandwidth(op[2])

        assert {link.name: link for link in topo.links()} == live
        assert_site_views_are_live(topo)
        ends = names + spokes[:1] + leaves
        for src in ends:
            costs = _reference_costs(topo, src)
            for dst in ends:
                if src == dst:
                    continue
                if dst not in costs:
                    with pytest.raises(NoRouteError):
                        topo.shortest_path(src, dst)
                    continue
                path = topo.shortest_path(src, dst)
                assert path[0] == src and path[-1] == dst
                assert not set(path[1:-1]) & set(leaves)
                hops = topo.path_links(src, dst)
                assert all(link.up for link in hops)
                assert sum(link.one_way_delay(Topology.ROUTE_PROBE_BYTES)
                           for link in hops) == pytest.approx(costs[dst])
