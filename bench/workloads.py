"""The six benchmark workloads: what each one runs and why.

Sizes are properties of the workload, not options: the only variants
are the full size the benchmark reports and the ``smoke`` size the
contract test and ``--check`` use (same shape, small enough to set up
and run in about a second).  Everything the program itself decides is
left at ``CoICConfig()`` defaults, so a later change of a default shows
up in the numbers.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class SimWorkload:
    """A simulator workload: a metro ``ScenarioSpec`` plus a driver loop.

    One *round* — the work unit, see ``measure`` — is ``round_sim_s``
    simulated seconds, sized to take 10-50 ms of host time.  The first
    ``mark_rounds`` measured rounds are the *deterministic prefix*: the
    same simulated requests for a seed whatever the host's speed, so
    the digest, the ``model.*`` rows and ``peak_rss_mb`` are read when
    the prefix ends.
    """

    name: str
    n_edges: int
    clients_per_edge: int
    federate: bool
    mesh: str
    interval_s: float           # think time between a client's requests
    round_sim_s: float
    warm_rounds: int            # rounds run before timing starts
    mark_rounds: int
    horizon_sim_s: float        # itineraries/schedules cover this much
    n_places: int = 16
    mean_dwell_s: float = 30.0
    moving: bool = True         # False: clients never leave their edge
    n_classes: int | None = None  # None: CoICConfig default; classes
    #                               are then drawn from the place's objects
    cache_mb: float | None = None  # None: CoICConfig default capacity
    city: bool = False          # surge schedule + diurnal backhaul load
    prewarm_share: float = 0.0  # share of the world's classes pre-cached

    def smoke(self) -> "SimWorkload":
        """Same shape, a fraction of the size."""
        small = dataclasses.replace(
            self, warm_rounds=10, mark_rounds=20,
            n_classes=None if self.n_classes is None else 5000)
        if self.city:
            small = dataclasses.replace(
                small, n_edges=9, clients_per_edge=20, n_places=36,
                round_sim_s=3.0)
        return small


@dataclasses.dataclass(frozen=True)
class RealWorkload:
    """A real-backend workload: one edge + one cloud stub, in-loop.

    Both services run inside the generator's event loop with the cloud
    latency shim zeroed; traffic crosses the host loopback on exactly
    ``CONNECTIONS`` ordered connections.  A closed-loop phase (each
    connection sends its next request when the previous reply arrived)
    is followed by an open-loop phase at ``open_rate`` requests per
    second, timed from the instant each request was due.  The work
    units (see ``measure``) are a *burst* of ``burst_requests`` closed-
    loop requests and a *slice* of ``slice_requests`` scheduled ones.
    """

    name: str
    n_classes: int
    warmed: bool                # every class pre-inserted -> all hits
    cache_mb: float | None      # None: CoICConfig default capacity
    open_rate: float            # requests per second, fixed
    limit_s: float              # due -> reply latency limit
    warm_requests: int          # closed-loop requests before timing
    burst_requests: int
    slice_requests: int

    def smoke(self) -> "RealWorkload":
        return dataclasses.replace(
            self, n_classes=min(self.n_classes,
                                3000 if self.warmed else 10000),
            warm_requests=400)


#: Ordered client connections every real workload uses.
CONNECTIONS = 2

#: The cloud stub's latency model, zeroed: the benchmark measures the
#: program, not ``asyncio.sleep``.
ZERO_SHIM = {"backhaul_mbps": 1e9, "backhaul_delay_ms": 0,
             "inference_s": 0}

WORKLOADS: dict[str, SimWorkload | RealWorkload] = {w.name: w for w in (
    SimWorkload(
        name="sim_metro_hit", n_edges=4, clients_per_edge=4,
        federate=True, mesh="full", interval_s=0.5, round_sim_s=3.0,
        warm_rounds=40, mark_rounds=150, horizon_sim_s=24000.0,
        n_places=16, mean_dwell_s=8.0),
    SimWorkload(
        name="sim_metro_miss", n_edges=4, clients_per_edge=4,
        federate=True, mesh="full", interval_s=0.5, round_sim_s=3.0,
        warm_rounds=30, mark_rounds=80, horizon_sim_s=9000.0,
        moving=False, n_classes=50000, cache_mb=0.25),
    SimWorkload(
        name="sim_city", n_edges=36, clients_per_edge=100,
        federate=False, mesh="grid", interval_s=60.0, round_sim_s=0.3,
        warm_rounds=130, mark_rounds=200, horizon_sim_s=600.0,
        n_places=144, mean_dwell_s=120.0, city=True, prewarm_share=0.9),
    RealWorkload(
        name="real_hit_small", n_classes=1000, warmed=True, cache_mb=None,
        open_rate=1200.0, limit_s=5e-3, warm_requests=3000,
        burst_requests=40, slice_requests=30),
    RealWorkload(
        name="real_hit_large", n_classes=30000, warmed=True, cache_mb=None,
        open_rate=300.0, limit_s=10e-3, warm_requests=1000,
        burst_requests=10, slice_requests=12),
    RealWorkload(
        name="real_miss_evict", n_classes=50000, warmed=False, cache_mb=0.5,
        open_rate=800.0, limit_s=5e-3, warm_requests=3000,
        burst_requests=30, slice_requests=20),
)}
