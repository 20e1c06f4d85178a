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


def _reference_route_cost(topo, src, dst):
    """Plain Dijkstra over up links; terminal hosts are never interior."""
    dist, frontier, done = {src: 0.0}, [(0.0, src)], set()
    while frontier:
        d, here = heapq.heappop(frontier)
        if here in done:
            continue
        done.add(here)
        if here != src and topo.is_terminal(here):
            continue
        for nxt in topo.neighbors(here):
            nd = d + topo.link(here, nxt).one_way_delay(
                Topology.ROUTE_PROBE_BYTES)
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                heapq.heappush(frontier, (nd, nxt))
    return dist.get(dst)


_HOST = st.integers(min_value=0, max_value=6)
_CHURN = st.lists(st.one_of(
    st.tuples(st.just("add"), _HOST, _HOST,
              st.sampled_from([1e6, 1e7, 1e8]),
              st.sampled_from([0.0, 0.001, 0.01])),
    st.tuples(st.just("up"), st.integers(min_value=0), st.booleans()),
    st.tuples(st.just("rate"), st.integers(min_value=0),
              st.sampled_from([1e6, 1e7, 1e8])),
    st.tuples(st.just("terminal"), _HOST, st.booleans()),
), min_size=1, max_size=30)


@given(ops=_CHURN)
@settings(max_examples=200, deadline=None)
def test_routes_match_reference_under_churn(ops):
    """After every topology change the transit view equals the one derived
    from scratch, and every route is a cheapest path over live links."""
    topo = Topology(Environment())
    names = [f"h{i}" for i in range(7)]
    for name in names:
        topo.add_host(name)
    links = []
    for op in ops:
        if op[0] == "add":
            a, b = names[op[1]], names[op[2]]
            if a == b or b in topo._adj[a]:
                continue
            links.append(topo.add_link(a, b, op[3], propagation_s=op[4]))
        elif op[0] == "terminal":
            topo.mark_terminal(names[op[1]], op[2])
        elif not links:
            continue
        elif op[0] == "up":
            links[op[1] % len(links)].set_up(op[2])
        else:
            links[op[1] % len(links)].set_bandwidth(op[2])

        up = {a: {b: topo.link(a, b) for b in topo.neighbors(a)}
              for a in names}
        assert topo._up_adj == up
        assert topo._transit_adj == {
            p: {n: link for n, link in up[p].items()
                if not topo.is_terminal(n) and set(up[n]) - {p}}
            for p in names}
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                cost = _reference_route_cost(topo, src, dst)
                if cost is None:
                    with pytest.raises(NoRouteError):
                        topo.shortest_path(src, dst)
                    continue
                path = topo.shortest_path(src, dst)
                assert path[0] == src and path[-1] == dst
                assert not any(map(topo.is_terminal, path[1:-1]))
                hops = topo.path_links(src, dst)
                assert all(link.up for link in hops)
                assert sum(link.one_way_delay(Topology.ROUTE_PROBE_BYTES)
                           for link in hops) == pytest.approx(cost)
