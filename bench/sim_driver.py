"""Drive one simulator workload and measure it from outside.

The benchmark owns the driver loop (it does not import
``repro.eval.experiments``): one request loop per client, first request
staggered uniformly inside the think interval from the seed, so a t=0
thundering herd is not what gets measured.  The seed drives the
benchmark's own class/viewpoint/stagger draws and ``CoICConfig(seed=)``;
the program receives only the generated inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time

import numpy as np

from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.scenario import (
    BackgroundTrafficSpec,
    MobilitySpec,
    ScenarioSpec,
    WarmupSpec,
)

from layer_trace import Tracer, install, ledger_rows, self_us
from measure import Budget, Samples, peak_rss_mb, percentile, rss_kb
from workloads import SimWorkload

#: Outcomes that count as a failed operation.
FAILED_OUTCOMES = ("error", "shed")


@dataclasses.dataclass
class Window:
    """Totals of a run of rounds plus the per-round cost samples.

    A round's cost is host seconds per kernel *event*: events are what
    a round actually executed, whereas the requests that complete in a
    30 ms round mostly ran in the rounds before it.
    """

    samples: Samples = dataclasses.field(default_factory=Samples)
    rounds: int = 0
    wall_s: float = 0.0
    requests: int = 0
    events: int = 0

    def fast_us_per_req(self) -> float:
        """Reference-machine microseconds per completed request."""
        return (self.samples.fast_cost("round") * 1e6
                * self.events / self.requests)


def build_spec(w: SimWorkload) -> ScenarioSpec:
    schedule = None
    background = None
    if w.city:
        # Three acts over the horizon: uniform gravity, an 8x surge
        # toward the "stadium" place, uniform again; the backhaul
        # carries one diurnal cross-traffic cycle.
        uniform = (1.0,) * w.n_places
        stadium = (8.0,) + uniform[1:]
        third = w.horizon_sim_s / 3.0
        schedule = ((0.0, uniform), (third, stadium), (2.0 * third, uniform))
        background = BackgroundTrafficSpec(
            period_s=w.horizon_sim_s, peak_util=0.4,
            update_s=max(1.0, w.horizon_sim_s / 60.0), scope="backhaul")
    mobility = MobilitySpec(
        n_places=w.n_places, mean_dwell_s=w.mean_dwell_s,
        duration_s=w.horizon_sim_s, bias_schedule=schedule)
    return ScenarioSpec.metro(
        n_edges=w.n_edges, clients_per_edge=w.clients_per_edge,
        federate=w.federate, mobility=mobility, background=background,
        mesh=w.mesh)


class Simulation:
    """A built deployment with its request loops started.

    Constructing one is the workload's set-up; ``build_s`` and
    ``prewarm_s`` split it for the ledger.
    """

    def __init__(self, w: SimWorkload, seed: int):
        self.w = w
        config = CoICConfig(seed=seed)
        if w.n_classes is not None:
            config.recognition.n_classes = w.n_classes
        if w.cache_mb is not None:
            config.cache.capacity_mb = w.cache_mb
        start = time.perf_counter()
        self.dep = ClusterDeployment(build_spec(w), config=config)
        if w.moving:
            self.dep.start_mobility(w.horizon_sim_s)
        self.build_s = time.perf_counter() - start

        start = time.perf_counter()
        if w.prewarm_share > 0.0:
            # Pre-cache most of the world's objects everywhere: a cold
            # city makes every first request a 4K upload over a shared
            # backhaul, and the requests that then time out are a
            # property of that herd, not of the layers measured here.
            world = sorted({c for place in self.dep.world.places
                            for c in place.object_classes})
            keep = max(1, round(1.0 / (1.0 - w.prewarm_share)))
            self.dep.warm_caches(WarmupSpec(classes=[
                c for i, c in enumerate(world) if i % keep]))
        self.prewarm_s = time.perf_counter() - start

        self.issued = 0
        self.stopping = False
        stagger = np.random.default_rng([seed, 0])
        for i, client in enumerate(self.dep.all_clients):
            self.dep.env.process(self._request_loop(
                client, float(stagger.uniform(0.0, w.interval_s)),
                np.random.default_rng([seed, 1, i])))

    def _request_loop(self, client, first_s: float, rng):
        dep, w = self.dep, self.w
        yield first_s
        seq = 0
        while not self.stopping:
            if w.n_classes is None:
                visible = dep.visible_classes(client)
                object_class = int(visible[rng.integers(len(visible))])
            else:
                object_class = int(rng.integers(w.n_classes))
            task = dep.recognition_task(
                object_class, viewpoint=float(rng.uniform(-0.5, 0.5)),
                user=client.name, seq=seq)
            seq += 1
            self.issued += 1
            yield dep.env.process(client.perform(task))
            yield w.interval_s

    @property
    def records(self) -> list:
        return self.dep.recorder.records

    def round(self) -> tuple[float, int, int]:
        """Advance one round; wall seconds, requests completed, events."""
        done, events = len(self.records), self.dep.env.events_processed
        start = time.perf_counter()
        self.dep.run_for(self.w.round_sim_s)
        return (time.perf_counter() - start, len(self.records) - done,
                self.dep.env.events_processed - events)

    def rounds(self, budget: Budget, after_each=None) -> Window:
        """Rounds until the budget or the workload's horizon ends."""
        window = Window()
        deadline = budget.deadline()
        while (window.rounds < budget.max_units()
               and (not window.rounds or time.perf_counter() < deadline)
               and (self.dep.env.now + self.w.round_sim_s
                    <= self.w.horizon_sim_s)):
            window.samples.calibrate()
            wall_s, requests, events = self.round()
            window.rounds += 1
            window.wall_s += wall_s
            window.requests += requests
            window.events += events
            if events:
                window.samples.add("round", wall_s / events)
            if after_each is not None:
                after_each()
        return window

    def drain(self) -> None:
        """Stop issuing and let every request in flight finish."""
        self.stopping = True
        patience_s = self.dep.config.request_timeout_s + 10.0
        end = self.dep.env.now + patience_s
        while self.issued > len(self.records) and self.dep.env.now < end:
            self.dep.run_for(1.0)


def set_up(w: SimWorkload, seed: int) -> None:
    """Set-up only: build the deployment and start its loops."""
    Simulation(w, seed)


def _digest(records) -> str:
    """Semantic fingerprint: outcome, serving edge, latency to 1 us."""
    sha = hashlib.sha256()
    for r in records:
        sha.update(f"{r.outcome}|{r.edge}|{round(r.latency_s * 1e6)}\n"
                   .encode("ascii"))
    return sha.hexdigest()[:16]


def _cache_counters(dep) -> dict[str, int]:
    stats = [cache.stats for cache in dep.caches]
    return {"lookups": sum(s.lookups for s in stats),
            "hits": sum(s.hits for s in stats),
            "evictions": sum(s.evictions for s in stats)}


def run(w: SimWorkload, seed: int, budget: Budget, traced: bool,
        process_started: float) -> dict:
    """Set up, warm, measure, drain and check one simulator workload."""
    sim = Simulation(w, seed)
    setup_s = time.perf_counter() - process_started
    dep = sim.dep

    start = time.perf_counter()
    for _ in range(w.warm_rounds):
        sim.round()
    warm_s = time.perf_counter() - start
    warm_records = len(sim.records)

    # The deterministic prefix ends after `mark_rounds` measured rounds.
    measured = 0
    mark: dict = {}

    def after_round() -> None:
        nonlocal measured
        measured += 1
        if measured == w.mark_rounds:
            mark.update(records=len(sim.records), rss_mb=peak_rss_mb())

    rss_start_kb = rss_kb()
    plain = sim.rounds(budget.share(0.25) if traced else budget, after_round)
    rss_growth_kb = rss_kb() - rss_start_kb
    timed = Window()
    spans: dict = {}
    if traced:
        tracer = Tracer()
        install(tracer)
        try:
            handoffs = len(dep.handoff_log)
            before = _cache_counters(dep)
            timed = sim.rounds(budget.share(0.75), after_round)
            spans = tracer.totals()
            after = _cache_counters(dep)
            handoffs = len(dep.handoff_log) - handoffs
        finally:
            tracer.uninstall()
    mark_reached = bool(mark)
    if not mark_reached:
        mark.update(records=len(sim.records), rss_mb=peak_rss_mb())
    sim.drain()

    records = sim.records
    failed = (sum(r.outcome in FAILED_OUTCOMES or r.correct is False
                  for r in records)
              + sim.issued - len(records))
    prefix = records[warm_records:mark["records"]]
    latencies_ms = [r.latency_s * 1e3 for r in prefix]
    outcomes = dep.recorder.outcome_counts()
    correct = (sim.issued == len(records) and bool(prefix)
               and all(r.correct is not False for r in records))

    # On the simulator "latency" is host time per simulated request, so
    # p50_us restates req_per_s; the contract wants both everywhere.
    us_per_req = plain.fast_us_per_req()
    metrics = {
        "setup_s": setup_s,
        "req_per_s": 1e6 / us_per_req,
        "p50_us": us_per_req,
        "peak_rss_mb": mark["rss_mb"],
    }
    if traced:
        requests = timed.requests
        metrics.update(ledger_rows(spans, requests))
        # The remainder closes the ledger: wall time per request minus
        # every wrapped self time is the pipeline / edge / client /
        # kernel generator machinery no outside wrapper can split.
        metrics["pipeline.other_us_per_req"] = (
            (timed.wall_s * 1e6 - self_us(spans)) / requests)
        lookups = after["lookups"] - before["lookups"]
        metrics.update({
            "kernel.events_per_req": timed.events / requests,
            "kernel.events_per_s": plain.events / plain.wall_s,
            "cache.evictions_per_req":
                (after["evictions"] - before["evictions"]) / requests,
            "cache.hit_ratio":
                (after["hits"] - before["hits"]) / lookups if lookups
                else 0.0,
            "index.entries": float(sum(len(c) for c in dep.caches)),
            "metrics.rss_kb_per_1k_req":
                max(0.0, rss_growth_kb) / plain.requests * 1e3,
            "cluster.build_s": sim.build_s + sim.prewarm_s,
            "cluster.warm_s": warm_s,
            "cluster.handoffs_per_req": handoffs / requests,
            "cluster.handoff_us_each":
                (spans["cluster.handoff"].self_ns / 1e3 / handoffs
                 if handoffs and "cluster.handoff" in spans else 0.0),
            "model.hit_ratio":
                sum(r.outcome == "hit" for r in prefix) / len(prefix),
            "model.mean_ms": sum(latencies_ms) / len(latencies_ms),
            "model.p99_ms": percentile(latencies_ms, 99),
            "model.failed_share":
                sum(r.outcome in FAILED_OUTCOMES for r in prefix)
                / len(prefix),
            "trace.overhead_ratio": timed.fast_us_per_req() / us_per_req,
            "measure.reference_ms": plain.samples.fast_reference_s() * 1e3,
            "measure.disturbance_ratio": plain.samples.disturbance(),
        })
    return {
        "metrics": metrics,
        "attempted": sim.issued,
        "failed": failed,
        "correct": correct,
        "notes": {
            "digest": _digest(records[:mark["records"]]),
            "prefix_complete": mark_reached,
            "rounds": plain.rounds + timed.rounds,
            "outcomes": outcomes,
            "handoffs": len(dep.handoff_log),
            "sim_seconds": dep.env.now,
        },
    }
