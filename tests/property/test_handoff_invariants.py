"""Conservation across handoffs on a small city.

A 3x3 grid metro of 20 moving clients per edge, with a demand surge
and diurnal backhaul cross-traffic, runs until its itineraries end; then
issuing stops and the deployment drains.  Whatever the churn did on the
way, the end state must balance: every issued request has a terminal
record, nothing is in flight, each client holds exactly one access
duplex, up and to its current edge, the topology holds only those plus
the spec's backhaul and inter-edge links, and the site views equal the
ones derived from scratch.  A drawn-seed property checks
the same on a 2x2 grid with short dwells, and a ping-pong case hands a
client back before its first drain ends.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import CoICConfig
from repro.core.cluster import ClusterDeployment
from repro.core.scenario import (
    BackgroundTrafficSpec,
    MobilitySpec,
    ScenarioSpec,
)

from test_net_properties import assert_site_views_are_live

HORIZON_S = 60.0
INTERVAL_S = 2.0


def small_city_spec() -> ScenarioSpec:
    n_places = 36
    uniform = (1.0,) * n_places
    stadium = (8.0,) + uniform[1:]
    third = HORIZON_S / 3.0
    mobility = MobilitySpec(
        n_places=n_places, mean_dwell_s=6.0, duration_s=HORIZON_S,
        bias_schedule=((0.0, uniform), (third, stadium),
                       (2.0 * third, uniform)))
    background = BackgroundTrafficSpec(period_s=HORIZON_S, peak_util=0.4,
                                       update_s=2.0, scope="backhaul")
    return ScenarioSpec.metro(n_edges=9, clients_per_edge=20, federate=False,
                              mobility=mobility, background=background,
                              mesh="grid")


def run_city(dep: ClusterDeployment, horizon_s: float, seed: int) -> int:
    """Move and load every client for ``horizon_s``, then stop issuing
    and drain; returns the number of requests issued."""
    dep.start_mobility()
    issued = 0
    stopping = False

    def request_loop(client, rng):
        nonlocal issued
        yield float(rng.uniform(0.0, INTERVAL_S))
        seq = 0
        while not stopping:
            visible = dep.visible_classes(client)
            task = dep.recognition_task(
                int(visible[rng.integers(len(visible))]),
                viewpoint=float(rng.uniform(-0.5, 0.5)),
                user=client.name, seq=seq)
            seq += 1
            issued += 1
            yield dep.env.process(client.perform(task))
            yield INTERVAL_S

    for i, client in enumerate(dep.all_clients):
        dep.env.process(request_loop(client,
                                     np.random.default_rng([seed, i])))
    dep.run_for(horizon_s)
    stopping = True
    dep.run_for(dep.config.request_timeout_s + 10.0)
    return issued


def assert_quiescent(dep: ClusterDeployment, issued: int) -> None:
    """Every request ended and only the live set of links is left."""
    assert issued == len(dep.recorder.records)
    leaves = dep.topology.leaves
    assert {(name, site) for name, leaf in leaves.items()
            for site in leaf.attachments} == {(c.name, c.edge_name)
                                              for c in dep.all_clients}
    for client in dep.all_clients:
        assert client.inflight == 0, client.name
        pair = leaves[client.name].attachments[client.edge_name]
        assert all(link.up for link in pair), client.name
        assert pair == (dep.topology.link(client.name, client.edge_name),
                        dep.topology.link(client.edge_name, client.name))
    spec = dep.spec
    assert len(dep.topology.links()) == 2 * (
        len(dep.all_clients) + len(spec.edges) + len(spec.inter_edge))
    assert_site_views_are_live(dep.topology)


def test_city_handoffs_conserve_requests_and_links():
    dep = ClusterDeployment(small_city_spec(), config=CoICConfig(seed=3))
    issued = run_city(dep, HORIZON_S, seed=3)
    assert len(dep.handoff_log) > 100  # the churn actually happened
    assert_quiescent(dep, issued)


@given(seed=st.integers(min_value=0, max_value=2**16),
       dwell_s=st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=10, deadline=None)
def test_drawn_grid_quiesces_to_its_live_set(seed, dwell_s):
    mobility = MobilitySpec(n_places=16, mean_dwell_s=dwell_s,
                            duration_s=10.0, handoff_latency_s=0.2)
    spec = ScenarioSpec.metro(n_edges=4, clients_per_edge=5, federate=False,
                              mobility=mobility, mesh="grid")
    dep = ClusterDeployment(spec, config=CoICConfig(seed=seed))
    issued = run_city(dep, 10.0, seed=seed)
    assert dep.handoff_log
    assert_quiescent(dep, issued)


def test_ping_pong_keeps_the_held_duplex():
    """A -> B -> A while a request still holds A: B's pair is removed, and
    the stale retire of A finds the client back home and does nothing."""
    spec = ScenarioSpec.metro(n_edges=2, clients_per_edge=1, federate=False)
    dep = ClusterDeployment(spec, config=CoICConfig(seed=0))
    client = dep.all_clients[0]
    home = client.edge_name
    away = next(name for name in dep.edge_names if name != home)
    attachments = dep.topology.leaves[client.name].attachments
    pair = attachments[home]
    request = dep.env.process(client.perform(dep.recognition_task(1)))
    bounced = []

    def ping_pong():
        yield dep.env.timeout(1e-4)
        yield from dep.handoff(client, away, latency_s=1e-3)
        yield from dep.handoff(client, home, latency_s=1e-3)
        bounced.append(client.inflight)

    dep.env.process(ping_pong())
    dep.env.run(until=request)
    dep.env.run()
    assert bounced == [1]  # both handoffs ended before the first drain
    assert dep.recorder.records[0].outcome in ("hit", "miss")
    assert client.edge_name == home
    assert attachments == {home: pair}
    assert all(link.up for link in pair)
    with pytest.raises(KeyError):
        dep.topology.link(client.name, away)
    assert_quiescent(dep, 1)
