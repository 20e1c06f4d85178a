"""A16 — execution-backend comparison: simulated vs real wall clock.

Every other experiment measures the *simulated* system; this one
deploys the same :class:`~repro.core.scenario.ScenarioSpec` on the
real execution backend (:mod:`repro.backend`) and measures the wall
clock of actual socket round trips: real vectorized cache lookups at
the edges, a latency-shimmed cloud stub behind them.  One row per
backend mode over the identical workload trace:

* ``sim`` — the discrete-event simulation replaying the trace
  (sequentially, the parity-oracle mode), wall-timed.
* ``real_inline`` — every edge an asyncio server in this process
  (real loopback sockets, no process spawn cost).
* ``real_process`` — the deployment shape: one OS process per edge.

Outcome columns (hit ratio, outcome counts) ride along to show the
backends agree on *what* was computed; the wall-clock column is the
one that differs — that gap is the simulator's speed advantage, and
the real rows' requests/sec is the number a single-host deployment of
this code actually sustains.
"""

from __future__ import annotations

import dataclasses
import time
import typing

from repro.core.config import CoICConfig
from repro.core.scenario import (
    ClientSpec,
    EdgeSpec,
    ScenarioSpec,
    WarmupSpec,
)

DEFAULT_MODES = ("sim", "real_inline", "real_process")


@dataclasses.dataclass(frozen=True)
class RealThroughputRow:
    """One backend mode replaying the shared workload trace."""

    backend: str
    requests: int
    wall_s: float
    requests_per_sec: float
    hit_ratio: float
    hits: int
    misses: int
    mean_ms: float
    accuracy: float


def _experiment_config(seed: int) -> CoICConfig:
    """A config sized so the cloud shim stays test-friendly."""
    config = CoICConfig(seed=seed)
    config.recognition.n_classes = 40
    config.recognition.resolution = "1080p"
    config.network.backhaul_mbps = 1000.0
    return config


def _experiment_spec(n_edges: int, clients_per_edge: int) -> ScenarioSpec:
    edges = tuple(
        EdgeSpec(name=f"edge{k}",
                 clients=tuple(ClientSpec(name=f"m{k}_{i}")
                               for i in range(clients_per_edge)))
        for k in range(n_edges))
    return ScenarioSpec(edges=edges,
                        warmup=WarmupSpec(classes=tuple(range(8))))


def _summarize(backend: str, recorder, wall_s: float) -> RealThroughputRow:
    summary = recorder.summary(task_kind="recognition")
    counts = recorder.outcome_counts(task_kind="recognition")
    return RealThroughputRow(
        backend=backend, requests=summary.n, wall_s=wall_s,
        requests_per_sec=summary.n / wall_s if wall_s > 0 else 0.0,
        hit_ratio=recorder.hit_ratio(task_kind="recognition"),
        hits=counts.get("hit", 0), misses=counts.get("miss", 0),
        mean_ms=summary.mean * 1e3,
        accuracy=recorder.accuracy(task_kind="recognition"))


def run_real_throughput(
        modes: typing.Sequence[str] = DEFAULT_MODES,
        n_edges: int = 2, clients_per_edge: int = 2,
        requests_per_client: int = 10,
        seed: int = 0) -> list[RealThroughputRow]:
    """Replay one deterministic trace on each backend mode, wall-timed.

    The trace is built once (``build_workload``), so every row answers
    the same captures; the caches start identically warm.
    """
    from repro.backend.loadgen import build_workload
    from repro.backend.runner import run_real_scenario, run_simulated_trace

    config = _experiment_config(seed)
    spec = _experiment_spec(n_edges, clients_per_edge)
    items = build_workload(spec, config, requests_per_client)
    rows = []
    for mode in modes:
        if mode == "sim":
            start = time.perf_counter()
            deployment = run_simulated_trace(spec, config, items)
            wall_s = time.perf_counter() - start
            rows.append(_summarize("sim", deployment.recorder, wall_s))
        elif mode in ("real_inline", "real_process"):
            result = run_real_scenario(
                spec, config=config, items=items,
                mode=mode.removeprefix("real_"))
            rows.append(_summarize(mode, result.recorder, result.wall_s))
        else:
            raise ValueError(f"unknown backend mode {mode!r}")
    return rows
