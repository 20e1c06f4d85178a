"""Shared test fixtures: scenario factories and a fixed hypothesis profile.

The scenario-construction blob the core tests kept re-typing — a
``CoICConfig`` with the 100/10 Mbps test network plus a small cluster of
linked edges — lives here once, as factory fixtures:

* ``make_spec``    — a linked-edges :class:`ScenarioSpec` (full-mesh
  inter-edge graph, named clients per edge, optional policy/warmup).
* ``make_deployment`` — a :class:`ClusterDeployment` over such a spec
  with the standard test config (or any config/seed override).
* ``seeded_rng``   — independent ``numpy`` generators for tests that
  need their own deterministic randomness.
* ``loop_env``     — a fresh :class:`Environment` per ``run()`` loop
  (the inlined hot loop, and ``step()`` per event under a trace hook).

The hypothesis profile lives in ``tests/property/conftest.py`` so this
file stays importable without hypothesis installed — only the property
suite needs it.
"""

import numpy as np
import pytest

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.scenario import (
    ClientSpec,
    EdgeSpec,
    InterEdgeLinkSpec,
    ScenarioSpec,
)
from repro.sim import Environment


@pytest.fixture
def make_spec():
    """Factory for the small linked-edges scenario the core tests use.

    ``clients`` gives each edge its client names: edge ``k`` is called
    ``edge{k}`` and carries ``clients[k]``.  The inter-edge graph is a
    full mesh (one duplex link for the common two-edge case), matching
    the hand-written specs this fixture replaced.
    """

    def factory(clients=(("m0", "m1"), ("far0",)), policy=None,
                warmup=None, inter_edge=True):
        edges = tuple(
            EdgeSpec(name=f"edge{k}",
                     clients=tuple(ClientSpec(name=name) for name in row))
            for k, row in enumerate(clients))
        links = ()
        if inter_edge:
            links = tuple(
                InterEdgeLinkSpec(a=a.name, b=b.name)
                for i, a in enumerate(edges) for b in edges[i + 1:])
        return ScenarioSpec(edges=edges, inter_edge=links,
                            warmup=warmup, policy=policy)

    return factory


@pytest.fixture
def make_config():
    """Factory for the standard test config: seeded, 100/10 Mbps net."""

    def factory(seed=0, wifi_mbps=100.0, backhaul_mbps=10.0,
                edge_workers=None):
        config = CoICConfig(seed=seed)
        config.network.wifi_mbps = wifi_mbps
        config.network.backhaul_mbps = backhaul_mbps
        if edge_workers is not None:
            config.edge_workers = edge_workers
        return config

    return factory


@pytest.fixture
def make_deployment(make_spec, make_config):
    """Factory for a deployment over the standard 100/10 Mbps test net.

    Builds ``spec`` (or one from ``make_spec(**spec_kwargs)``) with a
    ``CoICConfig`` shaped like the blob the core tests duplicated:
    seeded, 100 Mbps WiFi, 10 Mbps backhaul, optional worker override.
    Pass ``config=`` to take over config construction entirely.
    """

    def factory(spec=None, seed=0, wifi_mbps=100.0, backhaul_mbps=10.0,
                edge_workers=None, config=None, **spec_kwargs):
        if config is None:
            config = make_config(seed=seed, wifi_mbps=wifi_mbps,
                                 backhaul_mbps=backhaul_mbps,
                                 edge_workers=edge_workers)
        if spec is None:
            spec = make_spec(**spec_kwargs)
        return ClusterDeployment(spec, config=config)

    return factory


@pytest.fixture
def seeded_rng():
    """Factory for independent, deterministic numpy generators."""

    def factory(seed=0):
        return np.random.Generator(np.random.PCG64(seed))

    return factory


@pytest.fixture(params=["wheel", "step"])
def loop_env(request):
    """A fresh environment, once for each loop ``run()`` can take.

    ``wheel`` leaves it bare, so ``run()`` takes the inlined hot loop;
    ``step`` installs a no-op trace hook, so ``run()`` calls ``step()``
    once per event.  A test on it pins that both loops process the same
    events the same way.
    """
    env = Environment()
    if request.param == "step":
        env.set_trace(lambda when, priority, event: None)
    return env
