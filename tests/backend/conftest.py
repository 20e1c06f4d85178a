"""Shared fixture for the real-backend tests: a tiny edge's payload."""

import pytest

from repro.backend.runner import build_edge_payload
from repro.core.config import CoICConfig
from repro.core.scenario import EdgeSpec, ScenarioSpec, WarmupSpec


@pytest.fixture
def edge_payload():
    """Factory for one ``EdgeService`` payload: ``edge0``, 4 classes.

    A 16-d embedding with a wide viewpoint tolerance and a 10 MB cache,
    built the way the runner builds every edge — from a spec and a
    config.  ``cloud=None`` makes the edge its own oracle; ``policy`` is
    the spec's :class:`~repro.core.scenario.EdgePolicySpec`.
    """

    def factory(cloud=None, warm=(), vector_dtype="float32", policy=None):
        config = CoICConfig(seed=0)
        rec = config.recognition
        rec.descriptor_dim, rec.n_classes = 16, 4
        rec.viewpoint_scale, rec.noise_sigma = 0.02, 0.005
        rec.max_viewpoint_delta = 5.0
        config.cache.vector_dtype = vector_dtype
        spec = ScenarioSpec(
            edges=(EdgeSpec(name="edge0", cache_mb=10.0),),
            warmup=WarmupSpec(classes=warm) if warm else None,
            policy=policy)
        return build_edge_payload(spec, "edge0", config, cloud)

    return factory
