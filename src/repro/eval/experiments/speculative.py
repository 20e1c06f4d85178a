"""A8 — speculative cloud forwarding: miss latency vs wasted backhaul.

An edge that extracts descriptors itself faces a sequencing choice on
every request: extract-then-forward (misses pay extraction *plus* the
cloud round trip) or forward-while-extracting (misses pay only the max of
the two, but every *hit* has shipped a frame to the cloud for nothing).
Figure 2a's miss bar sits just above Origin, which is the speculative
behaviour; this ablation quantifies both sides of that choice.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.scenario import ScenarioSpec
from repro.eval.experiments.fig2a import PAPER_BANDWIDTH_PAIRS


@dataclasses.dataclass(frozen=True)
class SpeculativeRow:
    """One bandwidth condition, both forwarding modes."""

    wifi_mbps: float
    backhaul_mbps: float
    miss_ms_sequential: float
    miss_ms_speculative: float
    hit_ms: float
    wasted_mb_per_hit: float

    @property
    def miss_saving_pct(self) -> float:
        return 100.0 * (1.0 - self.miss_ms_speculative
                        / self.miss_ms_sequential)


def _measure(config: CoICConfig, object_class: int
             ) -> tuple[float, float, float]:
    """(miss_ms, hit_ms, backhaul_bytes_during_hit) for one deployment."""
    deployment = ClusterDeployment(ScenarioSpec.single_edge(2), config=config)
    task = deployment.recognition_task(object_class, viewpoint=-0.3)
    miss = deployment.run_tasks(deployment.all_clients[0], [task])[0]
    assert miss.outcome == "miss", miss

    uplink, _ = deployment.backhaul["edge"]
    before = uplink.stats.bytes_sent
    task = deployment.recognition_task(object_class, viewpoint=0.3)
    hit = deployment.run_tasks(deployment.all_clients[1], [task])[0]
    assert hit.outcome == "hit", hit
    deployment.env.run()  # drain any abandoned speculative transfer
    wasted = uplink.stats.bytes_sent - before
    return miss.latency_s * 1e3, hit.latency_s * 1e3, float(wasted)


def run_speculative(
        pairs: typing.Sequence[tuple[float, float]] = PAPER_BANDWIDTH_PAIRS,
        seed: int = 0) -> list[SpeculativeRow]:
    """Compare sequential vs speculative forwarding across the sweep."""
    rows = []
    for wifi_mbps, backhaul_mbps in pairs:
        def make_config(speculative: bool) -> CoICConfig:
            config = CoICConfig(seed=seed)
            config.network.wifi_mbps = wifi_mbps
            config.network.backhaul_mbps = backhaul_mbps
            config.recognition.speculative_forward = speculative
            return config

        miss_seq, hit_ms, _ = _measure(make_config(False), object_class=1)
        miss_spec, _, wasted = _measure(make_config(True), object_class=1)
        rows.append(SpeculativeRow(
            wifi_mbps=wifi_mbps, backhaul_mbps=backhaul_mbps,
            miss_ms_sequential=miss_seq, miss_ms_speculative=miss_spec,
            hit_ms=hit_ms, wasted_mb_per_hit=wasted / 1e6))
    return rows
