"""Figure 2a: recognition latency under different network conditions.

The paper sweeps five (BW_mobile->edge, BW_edge->cloud) pairs shaped with
``tc`` and plots Origin / Cache Hit / Cache Miss recognition latency,
reporting "up to 52.28%" reduction.  This experiment reproduces the sweep
on the simulated testbed: for each pair it measures

* **Origin** — full offload to the cloud, no cache;
* **Cache Miss** — CoIC cold path (descriptor extracted, lookup fails,
  request forwarded, result inserted);
* **Cache Hit** — a second co-located user requesting the same object
  from a different viewpoint.

Configuration follows the paper's testbed: 4K camera frames, a
VGG16-class DNN, 802.11ac access, speculative forwarding on (the edge
pipelines its extraction with the cloud round trip, which is what keeps
the measured miss bar within a few percent of Origin, as in the figure).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.scenario import ScenarioSpec
from repro.eval.stats import reduction_pct

#: The five shaped pairs on the paper's x-axis, (mobile->edge, edge->cloud).
PAPER_BANDWIDTH_PAIRS: tuple[tuple[float, float], ...] = (
    (90, 9), (100, 10), (200, 20), (300, 30), (400, 40))

#: Paper headline: maximum recognition-latency reduction.
PAPER_MAX_REDUCTION_PCT = 52.28


@dataclasses.dataclass(frozen=True)
class Fig2aRow:
    """One bandwidth condition of Figure 2a (latencies in ms)."""

    wifi_mbps: float
    backhaul_mbps: float
    origin_ms: float
    hit_ms: float
    miss_ms: float

    @property
    def reduction_pct(self) -> float:
        """Hit latency reduction vs Origin (the paper's metric)."""
        return reduction_pct(self.origin_ms, self.hit_ms)


@dataclasses.dataclass(frozen=True)
class Fig2aResult:
    """The full sweep plus the headline number."""

    rows: tuple[Fig2aRow, ...]
    max_reduction_pct: float
    paper_max_reduction_pct: float = PAPER_MAX_REDUCTION_PCT


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def run_fig2a(pairs: typing.Sequence[tuple[float, float]] = PAPER_BANDWIDTH_PAIRS,
              repeats: int = 3, seed: int = 0,
              speculative_forward: bool = True,
              hit_viewpoint_delta: float = 0.6) -> Fig2aResult:
    """Run the Figure 2a sweep.

    Args:
        pairs: Bandwidth conditions (Mbps) to sweep.
        repeats: Distinct object classes measured per condition.
        seed: Deployment seed.
        speculative_forward: Edge pipelining of extraction and forward.
        hit_viewpoint_delta: Viewpoint gap between the miss-user and the
            hit-user observing the same object ("the same stop sign from
            a different angle").
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    rows = []
    for wifi_mbps, backhaul_mbps in pairs:
        config = CoICConfig(seed=seed)
        config.network.wifi_mbps = wifi_mbps
        config.network.backhaul_mbps = backhaul_mbps
        config.recognition.speculative_forward = speculative_forward
        deployment = ClusterDeployment(
            ScenarioSpec.single_edge(2), config=config)

        origin_ms: list[float] = []
        hit_ms: list[float] = []
        miss_ms: list[float] = []
        for r in range(repeats):
            object_class = r  # distinct classes keep the miss path cold
            task = deployment.recognition_task(
                object_class, viewpoint=-hit_viewpoint_delta / 2)
            record = deployment.run_tasks(
                deployment.origin_clients[0], [task])[0]
            assert record.outcome == "origin", record
            origin_ms.append(record.latency_s * 1e3)

            task = deployment.recognition_task(
                object_class, viewpoint=-hit_viewpoint_delta / 2)
            record = deployment.run_tasks(deployment.all_clients[0], [task])[0]
            assert record.outcome == "miss", record
            miss_ms.append(record.latency_s * 1e3)

            task = deployment.recognition_task(
                object_class, viewpoint=hit_viewpoint_delta / 2)
            record = deployment.run_tasks(deployment.all_clients[1], [task])[0]
            assert record.outcome == "hit", record
            hit_ms.append(record.latency_s * 1e3)

            # Drain abandoned speculative transfers so repeats are
            # independent measurements, not back-to-back load.
            deployment.env.run()

        rows.append(Fig2aRow(
            wifi_mbps=wifi_mbps, backhaul_mbps=backhaul_mbps,
            origin_ms=_mean(origin_ms), hit_ms=_mean(hit_ms),
            miss_ms=_mean(miss_ms)))
    max_reduction = max(row.reduction_pct for row in rows)
    return Fig2aResult(rows=tuple(rows), max_reduction_pct=max_reduction)
