"""A7c — metro cluster throughput: simulated requests served per host core.

The index tiers are measured in isolation by ``index_scaling``; this
experiment asks the whole-system question — how fast does the simulator
push recognition requests through the 4-edge metro spec under each
cache configuration?  One row per configuration: the float64/linear
oracle tier, the float32/linear deployment default, and float32 IVF.  The
metric is simulated requests completed per second of host wall clock
per core (the driver is single-threaded, so cores == 1); simulated
outcomes (hit ratio, latency) ride along to show the tiers do not
change what the cluster computes, only how fast the host computes it.
"""

from __future__ import annotations

import dataclasses
import time
import typing

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.scenario import (
    EdgePolicySpec,
    MobilitySpec,
    ScenarioSpec,
)
from repro.eval.experiments.mobility_exp import drive_scenario

DEFAULT_CONFIGS = (
    ("float64_linear", "linear", "float64"),
    ("float32_linear", "linear", "float32"),
    ("float32_ivf", "ivf", "float32"),
)


@dataclasses.dataclass(frozen=True)
class ThroughputRow:
    """One cache configuration driven through the metro spec."""

    label: str
    vector_index: str
    vector_dtype: str
    requests: int
    sim_duration_s: float
    build_s: float
    wall_s: float
    requests_per_sec_per_core: float
    hit_ratio: float
    mean_ms: float
    lookup_batches: int


def run_cluster_throughput(
        configs: typing.Sequence[tuple[str, str, str]] = DEFAULT_CONFIGS,
        duration_s: float = 60.0, request_interval_s: float = 0.5,
        n_edges: int = 4, clients_per_edge: int = 4,
        seed: int = 0) -> list[ThroughputRow]:
    """Drive the metro spec once per cache configuration, wall-timed.

    Every configuration sees the identical scenario: a federated
    ``n_edges``-grid metro with mobile users and closed-loop recognition
    traffic (the same shape the golden-digest tests pin).  Only the
    edge caches' index tier and storage dtype vary, via
    ``EdgePolicySpec`` overrides — exactly how a deployment would opt
    in.
    """
    rows = []
    for label, vector_index, vector_dtype in configs:
        mobility = MobilitySpec(n_places=4 * n_edges,
                                mean_dwell_s=8.0,
                                duration_s=duration_s,
                                handoff_latency_s=0.05)
        policy = EdgePolicySpec(vector_index=vector_index,
                                vector_dtype=vector_dtype)
        spec = ScenarioSpec.metro(
            n_edges=n_edges, clients_per_edge=clients_per_edge,
            federate=True, mobility=mobility, policy=policy)
        start = time.perf_counter()
        deployment = ClusterDeployment(spec, config=CoICConfig(seed=seed))
        build_s = time.perf_counter() - start

        start = time.perf_counter()
        drive_scenario(deployment, duration_s=duration_s,
                       request_interval_s=request_interval_s)
        wall_s = time.perf_counter() - start

        recorder = deployment.recorder
        summary = recorder.summary(task_kind="recognition")
        rows.append(ThroughputRow(
            label=label,
            vector_index=vector_index,
            vector_dtype=vector_dtype,
            requests=summary.n,
            sim_duration_s=duration_s,
            build_s=build_s,
            wall_s=wall_s,
            requests_per_sec_per_core=summary.n / wall_s,
            hit_ratio=recorder.hit_ratio(task_kind="recognition"),
            mean_ms=summary.mean * 1e3,
            lookup_batches=sum(edge.lookup_batches
                               for edge in deployment.edges)))
    return rows
