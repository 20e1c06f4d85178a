"""Conservation across handoffs on a small city.

A 3x3 grid metro of 20 moving clients per edge, with a demand surge
and diurnal backhaul cross-traffic, runs until its itineraries end; then
issuing stops and the deployment drains.  Whatever the churn did on the
way, the end state must balance: every issued request has a terminal
record, nothing is in flight, each client holds exactly one up access
duplex (to its current edge), and the maintained transit view equals
the one derived from scratch.
"""

import numpy as np

from repro.core import CoICConfig
from repro.core.cluster import ClusterDeployment
from repro.core.scenario import (
    BackgroundTrafficSpec,
    MobilitySpec,
    ScenarioSpec,
)

from test_net_properties import assert_transit_is_live

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


def test_city_handoffs_conserve_requests_and_links():
    dep = ClusterDeployment(small_city_spec(), config=CoICConfig(seed=3))
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
        dep.env.process(request_loop(client, np.random.default_rng([3, i])))
    dep.run_for(HORIZON_S)
    stopping = True
    dep.run_for(dep.config.request_timeout_s + 10.0)

    assert len(dep.handoff_log) > 100  # the churn actually happened
    assert issued == len(dep.recorder.records)
    for client in dep.all_clients:
        assert client.inflight == 0, client.name
        up_edges = [edge for (name, edge), pair in dep.access_links.items()
                    if name == client.name and any(link.up for link in pair)]
        assert up_edges == [client.edge_name], client.name
        assert all(link.up for link in
                   dep.access_links[(client.name, client.edge_name)])
    assert_transit_is_live(dep.topology)
