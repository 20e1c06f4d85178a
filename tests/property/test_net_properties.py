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


def reference_transit(topo):
    """The transit view derived from scratch: p's entry for n is the up
    link p->n iff n is not terminal and has an up out-link other than
    straight back to p."""
    up = {a: set(topo.neighbors(a)) for a in topo.hosts}
    return {p: {n: topo.link(p, n) for n in up[p]
                if not topo.is_terminal(n) and up[n] - {p}}
            for p in topo.hosts}


def assert_transit_is_live(topo):
    """``_transit_adj`` equals :func:`reference_transit` and holds the
    live ``Link`` objects themselves."""
    expected = reference_transit(topo)
    assert topo._transit_adj == expected
    for p, view in topo._transit_adj.items():
        for n, link in view.items():
            assert link is topo.link(p, n)


#: Hosts h0..h6 take every op; h0 is also a hub with a fixed fan of
#: spokes (half of them terminal, like attached clients), so a change on
#: h0 has many in-neighbours whose views it must leave alone.
_N_HOSTS, _N_SPOKES = 7, 8
_HOST = st.integers(min_value=0, max_value=_N_HOSTS - 1)
_ANY_HOST = st.integers(min_value=0, max_value=_N_HOSTS + _N_SPOKES - 1)
_CHURN = st.lists(st.one_of(
    st.tuples(st.just("add"), _HOST, _HOST,
              st.sampled_from([1e6, 1e7, 1e8]),
              st.sampled_from([0.0, 0.001, 0.01])),
    st.tuples(st.just("up"), st.integers(min_value=0), st.booleans()),
    st.tuples(st.just("repeat"), st.integers(min_value=0), st.booleans()),
    st.tuples(st.just("rate"), st.integers(min_value=0),
              st.sampled_from([1e6, 1e7, 1e8])),
    st.tuples(st.just("terminal"), _ANY_HOST, st.booleans()),
    st.tuples(st.just("remark"), _ANY_HOST),
    st.tuples(st.just("remove"), st.integers(min_value=0)),
    st.tuples(st.just("readd"), st.integers(min_value=0)),
), min_size=1, max_size=30)


@given(ops=_CHURN)
@settings(max_examples=200, deadline=None)
def test_routes_match_reference_under_churn(ops):
    """After every topology change the transit view equals the one derived
    from scratch, and every route is a cheapest path over live links.

    ``links`` keeps every link ever made, removed ones included, so the
    admin and rate ops also hit stale handles, which must change nothing.
    """
    topo = Topology(Environment())
    names = [f"h{i}" for i in range(_N_HOSTS)]
    spokes = [f"s{i}" for i in range(_N_SPOKES)]
    everyone = names + spokes
    for name in names:
        topo.add_host(name)
    links = []
    for k, spoke in enumerate(spokes):
        links.extend(topo.add_duplex(names[0], spoke, 1e7,
                                     propagation_s=0.001))
        if k % 2:
            topo.mark_terminal(spoke)
    live = {link.name: link for link in links}
    removed: list[tuple[str, str, float, float]] = []
    assert_transit_is_live(topo)

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
            if not live:
                continue
            link = list(live.values())[op[1] % len(live)]
            a, b = link.name.split("->")
            assert topo.remove_link(a, b) is link
            del live[link.name]
            removed.append((a, b, link.bandwidth_bps, link.propagation_s))
        elif op[0] == "readd":
            if not removed:
                continue
            add(*removed.pop(op[1] % len(removed)))
        elif op[0] == "terminal":
            topo.mark_terminal(everyone[op[1]], op[2])
        elif op[0] == "remark":
            topo.mark_terminal(everyone[op[1]], False)
            topo.mark_terminal(everyone[op[1]], True)
        elif op[0] in ("up", "repeat"):
            # "repeat" re-sends the same admin state: a no-op transition.
            for _ in range(1 if op[0] == "up" else 2):
                links[op[1] % len(links)].set_up(op[2])
        else:
            links[op[1] % len(links)].set_bandwidth(op[2])

        assert {link.name: link for link in topo.links()} == live
        up = {a: {b: topo.link(a, b) for b in topo.neighbors(a)}
              for a in everyone}
        assert topo._up_adj == up
        assert_transit_is_live(topo)
        # Routes among the core hosts and two spokes (one terminal).
        for src in names + spokes[:2]:
            for dst in names + spokes[:2]:
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
