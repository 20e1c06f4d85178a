"""A3 — eviction policy comparison under Zipf model-load traffic.

The poster's cache uses a "simple cache management policy"; §4 promises
better management.  This ablation pressures a byte-capped edge cache with
a skewed 3D-model load stream whose objects differ 40x in size, and
compares the policy family on hit ratio and delivered latency.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.scenario import ScenarioSpec
from repro.sim.rng import RngStreams
from repro.workload.zipf import ZipfSampler

DEFAULT_POLICIES = ("lru", "lfu", "fifo", "size", "gdsf")


@dataclasses.dataclass(frozen=True)
class EvictionRow:
    """One (policy, capacity) cell."""

    policy: str
    capacity_frac: float
    hit_ratio: float
    mean_ms: float
    evictions: int


def _catalog_sizes(n_models: int, rng: np.random.Generator) -> tuple:
    """Log-normal model sizes, ~100 KB to ~4 MB."""
    sizes = np.exp(rng.normal(np.log(600), 0.9, size=n_models))
    return tuple(int(np.clip(s, 100, 4000)) for s in sizes)


def run_eviction(policies: typing.Sequence[str] = DEFAULT_POLICIES,
                 capacity_fracs: typing.Sequence[float] = (0.05, 0.15, 0.40),
                 n_models: int = 100, n_requests: int = 300,
                 popularity_alpha: float = 0.8, spacing_s: float = 0.5,
                 seed: int = 0) -> list[EvictionRow]:
    """Sweep (policy x capacity) over one fixed Zipf load stream."""
    rng = RngStreams(seed)
    sizes_kb = _catalog_sizes(n_models, rng.stream("catalog"))
    sampler = ZipfSampler(n_models, popularity_alpha, rng.stream("load"))
    request_ids = [sampler.sample() for _ in range(n_requests)]
    # Total bytes of all *loaded* forms: the 100% capacity reference.
    from repro.render.mesh import LOADED_EXPANSION

    total_loaded = sum(int(kb * 1024 * LOADED_EXPANSION)
                       for kb in sizes_kb)

    rows = []
    for capacity_frac in capacity_fracs:
        for policy in policies:
            config = CoICConfig(seed=seed)
            config.rendering.catalog_sizes_kb = sizes_kb
            config.cache.policy = policy
            config.cache.capacity_mb = max(
                total_loaded * capacity_frac / 1e6, 1.0)
            deployment = ClusterDeployment(
                ScenarioSpec.single_edge(1), config=config)
            tasks = [deployment.model_load_task(model_id)
                     for model_id in request_ids]
            deployment.run_tasks(deployment.all_clients[0], tasks,
                                 spacing_s=spacing_s)
            deployment.env.run()  # drain background parses
            rows.append(EvictionRow(
                policy=policy, capacity_frac=capacity_frac,
                hit_ratio=deployment.recorder.hit_ratio("model_load"),
                mean_ms=deployment.recorder.summary(
                    task_kind="model_load").mean * 1e3,
                evictions=deployment.caches[0].stats.evictions))
    return rows
