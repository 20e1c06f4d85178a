"""A14 — city-scale kernel gauge: a simulated metro hour, wall-timed.

The paper's cooperative-edge story is a *city* — hundreds of edge sites,
tens of thousands of moving users — but simulating one is a kernel
stress test before it is anything else: every request crosses ~a dozen
timer hops, every user carries think/dwell timers, and the pending-event
set sits in the 10^4–10^5 range for the whole run.  This experiment
builds that city (edges on a grid, diurnal backhaul cross-traffic,
time-varying hotspot gravity so the crowd surges mid-run) and reports
how fast the host pushes it: kernel events per second of wall clock,
wall-clock per simulated hour, and peak RSS.  Run the full metro hour
with ``python -m repro run city_scale``; kernel speed regressions are
caught by the repo benchmark's ``sim_city`` workload (``bench/run.py``).

The driver pins the GC configuration city runs ship with: the kernel's
pooled sleeps and slotted events make the steady state allocation-light,
so the collector is frozen around the measured window and re-enabled
afterwards.  (Without the pool this would merely defer a huge scan;
with it there is simply little garbage to find.)
"""

from __future__ import annotations

import dataclasses
import gc
import time

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.scenario import (
    BackgroundTrafficSpec,
    MobilitySpec,
    ScenarioSpec,
)
from repro.eval.experiments.mobility_exp import drive_scenario


@dataclasses.dataclass(frozen=True)
class CityScaleRow:
    """One city-scale run, wall-timed."""

    n_edges: int
    n_clients: int
    sim_duration_s: float
    build_s: float
    wall_s: float
    events: int
    events_per_sec: float
    wall_s_per_sim_hour: float
    peak_rss_mb: float
    requests: int
    hit_ratio: float
    handoffs: int
    rate_changes: int


def _peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    import resource
    import sys

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KB, macOS bytes.
    return rss / 1e6 if sys.platform == "darwin" else rss / 1e3

def city_spec(n_edges: int, clients_per_edge: int, duration_s: float,
              mean_dwell_s: float) -> ScenarioSpec:
    """The city scenario: grid metro + gravity surge + diurnal backhaul.

    The hotspot gravity runs a three-act schedule over the simulated
    window — uniform, then an 8x surge toward the "stadium" place, then
    uniform again (the stadium empties at full time) — and the backhaul
    links carry one full diurnal cross-traffic cycle peaking at 40% of
    nominal capacity.
    """
    n_places = 4 * n_edges
    uniform = tuple(1.0 for _ in range(n_places))
    stadium = (8.0,) + tuple(1.0 for _ in range(n_places - 1))
    mobility = MobilitySpec(
        n_places=n_places, objects_per_place=4,
        mean_dwell_s=mean_dwell_s, duration_s=duration_s,
        handoff_latency_s=0.05,
        bias_schedule=((0.0, uniform),
                       (duration_s / 3.0, stadium),
                       (2.0 * duration_s / 3.0, uniform)))
    background = BackgroundTrafficSpec(
        period_s=duration_s, peak_util=0.4,
        update_s=max(1.0, duration_s / 60.0), scope="backhaul")
    return ScenarioSpec.metro(
        n_edges=n_edges, clients_per_edge=clients_per_edge,
        federate=False, mobility=mobility, background=background,
        mesh="grid")


def run_city_scale(n_edges: int = 100, clients_per_edge: int = 100,
                   duration_s: float = 3600.0,
                   request_interval_s: float = 30.0,
                   mean_dwell_s: float = 600.0,
                   seed: int = 0) -> CityScaleRow:
    """Simulate a city hour and report host-side kernel throughput.

    Defaults are the headline scale: 100 edges x 10^4 clients for one
    simulated hour.  Smoke callers shrink every knob; the row's shape is
    size-independent.
    """
    spec = city_spec(n_edges, clients_per_edge, duration_s, mean_dwell_s)
    start = time.perf_counter()
    deployment = ClusterDeployment(spec, config=CoICConfig(seed=seed))
    build_s = time.perf_counter() - start

    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        start = time.perf_counter()
        drive_scenario(deployment, duration_s=duration_s,
                       request_interval_s=request_interval_s)
        wall_s = time.perf_counter() - start
    finally:
        gc.enable()
        gc.unfreeze()
        gc.collect()

    events = deployment.env.events_processed
    summary = deployment.recorder.summary(task_kind="recognition")
    return CityScaleRow(
        n_edges=n_edges,
        n_clients=n_edges * clients_per_edge,
        sim_duration_s=duration_s,
        build_s=build_s,
        wall_s=wall_s,
        events=events,
        events_per_sec=events / wall_s,
        wall_s_per_sim_hour=wall_s * 3600.0 / duration_s,
        peak_rss_mb=_peak_rss_mb(),
        requests=summary.n,
        hit_ratio=deployment.recorder.hit_ratio(task_kind="recognition"),
        handoffs=len(deployment.handoff_log),
        rate_changes=deployment.rate_changes)
