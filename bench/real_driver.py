"""Drive one real-backend workload and measure it from outside.

One ``EdgeService`` and one ``CloudService`` (latency shim zeroed) run
*inline*, inside the generator's event loop, and are driven over real
loopback sockets with real ``backend.protocol`` frames on exactly two
ordered connections.  Inline, not one process per service: with two
connections on this two-core box process mode is wake-up-latency bound
(the servers idle while the scheduler hands a reply across processes),
inline is CPU bound — inline measures the program, process mode
measures the scheduler.

The seed drives the class/viewpoint draws and ``CoICConfig(seed=)``;
the program receives only the generated requests.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time

import numpy as np

from repro.backend import protocol
from repro.backend.cloud_server import CloudService
from repro.backend.edge_server import EdgeService
from repro.backend.runner import build_edge_payload
from repro.core.config import CoICConfig
from repro.core.scenario import ClientSpec, EdgeSpec, ScenarioSpec, WarmupSpec

from layer_trace import Tracer, install, ledger_rows, self_us
from measure import Budget, Samples, median, peak_rss_mb, percentile
from workloads import CONNECTIONS, ZERO_SHIM, RealWorkload

HOST = "127.0.0.1"
EDGE = "edge0"
#: Bare round trips timed for the ``*_rtt_us`` floors.
RTT_PROBES = 300
#: Ceiling on one burst or slice, so a hung server fails the run.
PHASE_TIMEOUT_S = 60.0
#: Closed-loop bursts per open-loop slice (about equal time on each).
BURSTS_PER_UNIT = 2


@dataclasses.dataclass
class OpenLoopLog:
    """Per-request open-loop bookkeeping across a window's slices."""

    late: list[float] = dataclasses.field(default_factory=list)
    latency: list[float] = dataclasses.field(default_factory=list)
    within: int = 0         # correct replies inside the latency limit
    backlog: int = 0
    sending_s: float = 0.0
    slices: int = 0


class Requests:
    """The seeded request stream, handed out in order."""

    BLOCK = 1 << 16

    def __init__(self, w: RealWorkload, seed: int):
        self._rng = np.random.default_rng([seed, 2])
        self._n_classes = w.n_classes
        self._classes: list[int] = []
        self._viewpoints: list[float] = []
        self.sent = 0

    def next(self) -> dict:
        """The next ``recognize`` frame; ``capture_id`` = 1-based order."""
        i = self.sent
        if i >= len(self._classes):
            self._classes.extend(
                self._rng.integers(self._n_classes, size=self.BLOCK).tolist())
            self._viewpoints.extend(
                self._rng.uniform(-0.5, 0.5, size=self.BLOCK).tolist())
        self.sent += 1
        return {"op": "recognize", "user": "bench", "seq": i,
                "capture_id": i + 1, "object_class": self._classes[i],
                "viewpoint": self._viewpoints[i], "input_bytes": 0}


class Deployment:
    """Cloud stub + edge service + the generator's connections."""

    def __init__(self, w: RealWorkload, seed: int):
        self.w = w
        config = CoICConfig(seed=seed)
        config.recognition.n_classes = w.n_classes
        spec = ScenarioSpec(
            edges=(EdgeSpec(name=EDGE, clients=(ClientSpec(name="bench"),),
                            cache_mb=w.cache_mb),),
            warmup=(WarmupSpec(classes=range(w.n_classes))
                    if w.warmed else None))
        self._spec, self._config = spec, config
        self.requests = Requests(w, seed)
        self.replied = 0
        self.failed = 0
        self.cloud: CloudService | None = None
        self.edge: EdgeService | None = None
        self.connections: list[tuple] = []
        self.build_s = 0.0

    async def start(self) -> None:
        start = time.perf_counter()
        self.cloud = CloudService(ZERO_SHIM)
        await self.cloud.start(HOST)
        self.edge = EdgeService(build_edge_payload(
            self._spec, EDGE, self._config, (HOST, self.cloud.port)))
        await self.edge.start(HOST)
        for _ in range(CONNECTIONS):
            self.connections.append(
                await asyncio.open_connection(HOST, self.edge.port))
        self.build_s = time.perf_counter() - start

    async def stop(self) -> None:
        for _reader, writer in self.connections:
            writer.close()
        if self.edge is not None:
            await self.edge.stop()
        if self.cloud is not None:
            await self.cloud.stop()

    # -- load ----------------------------------------------------------------

    def _count(self, request: dict, reply: dict) -> bool:
        """Book one reply; True when it is the right answer."""
        self.replied += 1
        ok = (reply.get("outcome") in ("hit", "miss")
              and reply.get("label") == request["object_class"])
        self.failed += not ok
        return ok

    async def burst(self, size: int) -> float:
        """``size`` closed-loop requests; seconds per request.

        Every connection sends its next request as soon as its previous
        reply arrived, until the burst's quota is sent.  The loop never
        idles inside a burst (generator and services share one thread),
        so burst time over burst size is the full cost of one request.
        """
        quota_end = self.requests.sent + size

        async def connection(reader, writer) -> None:
            while self.requests.sent < quota_end:
                request = self.requests.next()
                self._count(request,
                            await protocol.call(reader, writer, request))

        start = time.perf_counter()
        await asyncio.wait_for(
            asyncio.gather(*(connection(r, w) for r, w in self.connections)),
            PHASE_TIMEOUT_S)
        return (time.perf_counter() - start) / size

    async def open_slice(self, log: "OpenLoopLog") -> float:
        """One slice of requests on a fixed schedule; its median latency.

        Latency runs from the instant a request was *due*: a request
        that is due waits for whichever connection frees first, and
        that wait counts.  asyncio timers are millisecond-grained, so
        the last stretch before a due time is a yielding spin (the
        services share this loop and run meanwhile).
        """
        clock = asyncio.get_running_loop().time
        gap = 1.0 / self.w.open_rate
        n = self.w.slice_requests
        origin = last_sent = clock() + 0.002
        taken = 0
        latency: list[float] = []

        async def connection(reader, writer) -> None:
            nonlocal taken, last_sent
            while taken < n:
                due = origin + taken * gap
                taken += 1
                while True:
                    ahead = due - clock()
                    if ahead <= 0.0:
                        break
                    await asyncio.sleep(ahead - 0.0015 if ahead > 0.002
                                        else 0.0)
                request = self.requests.next()
                sent = clock()
                reply = await protocol.call(reader, writer, request)
                done = clock()
                ok = self._count(request, reply)
                latency.append(done - due)
                log.late.append(sent - due)
                log.within += ok and done - due <= self.w.limit_s
                last_sent = max(last_sent, sent)
                # Still queued when the slice's schedule ended: a
                # backlog that grows invalidates the open-loop rows.
                log.backlog += sent > origin + n * gap

        await asyncio.wait_for(
            asyncio.gather(*(connection(r, w) for r, w in self.connections)),
            PHASE_TIMEOUT_S)
        log.latency.extend(latency)
        log.sending_s += last_sent - origin
        log.slices += 1
        return median(latency)

    async def window(self, budget: Budget, open_log: "OpenLoopLog | None"
                     ) -> Samples:
        """Work units until the budget ends, references in between.

        One unit is ``BURSTS_PER_UNIT`` closed-loop bursts and, with an
        ``open_log``, one open-loop slice: the two kinds alternate so
        that both sample the whole window.
        """
        samples = Samples()
        deadline = budget.deadline()
        units = 0
        while units < budget.max_units() and (
                not units or time.perf_counter() < deadline):
            for _ in range(BURSTS_PER_UNIT):
                samples.calibrate()
                cpu = time.process_time()
                samples.add("closed",
                            await self.burst(self.w.burst_requests))
                samples.add("closed_cpu", (time.process_time() - cpu)
                            / self.w.burst_requests)
            if open_log is not None:
                samples.calibrate()
                samples.add("open", await self.open_slice(open_log))
            units += 1
        return samples

    async def round_trips(self, port: int, message: dict) -> float:
        """p50 of bare request/reply round trips to a live service."""
        reader, writer = await asyncio.open_connection(HOST, port)
        try:
            samples = []
            for _ in range(RTT_PROBES):
                start = time.perf_counter()
                await protocol.call(reader, writer, message)
                samples.append(time.perf_counter() - start)
        finally:
            writer.close()
        return percentile(samples, 50) * 1e6


def run(w: RealWorkload, seed: int, budget: Budget, traced: bool,
        process_started: float) -> dict:
    return asyncio.run(_run(w, seed, budget, traced, process_started))


async def _run(w: RealWorkload, seed: int, budget: Budget, traced: bool,
               process_started: float) -> dict:
    dep = Deployment(w, seed)
    try:
        await dep.start()
        setup_s = time.perf_counter() - process_started
        return await _measure(dep, budget, traced, setup_s)
    finally:
        await dep.stop()


def set_up(w: RealWorkload, seed: int) -> None:
    """Set-up only: build, start, connect, tear down."""
    async def _set_up() -> None:
        dep = Deployment(w, seed)
        try:
            await dep.start()
        finally:
            await dep.stop()

    asyncio.run(_set_up())


async def _measure(dep: Deployment, budget: Budget, traced: bool,
                   setup_s: float) -> dict:
    edge, cloud = dep.edge, dep.cloud

    start = time.perf_counter()
    await dep.burst(dep.w.warm_requests)
    warm_s = time.perf_counter() - start

    open_log = OpenLoopLog()
    plain = await dep.window(budget.share(0.5) if traced else budget,
                             open_log)
    metrics = {
        "setup_s": setup_s,
        "req_per_s": 1.0 / plain.fast_cost("closed"),
        "p50_us": plain.fast_cost("open") * 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }

    if traced:
        stats_rtt = await dep.round_trips(edge.port, {"op": "stats"})
        resolve_rtt = await dep.round_trips(cloud.port, {
            "op": "resolve", "object_class": 0, "capture_id": 0,
            "input_bytes": 0})
        tracer = Tracer()
        install(tracer)
        try:
            sent, resolved = dep.requests.sent, cloud.resolved
            stats = edge.cache.stats
            lookups, hits, evictions, shed = (
                stats.lookups, stats.hits, stats.evictions, edge.shed_count)
            timed = await dep.window(budget.share(0.5), None)
            spans = tracer.totals()
        finally:
            tracer.uninstall()
        requests = dep.requests.sent - sent
        wall_us = sum(timed.costs["closed"]) * dep.w.burst_requests * 1e6
        metrics.update(ledger_rows(spans, requests))
        metrics.update({
            "cache.evictions_per_req":
                (stats.evictions - evictions) / requests,
            "cache.hit_ratio":
                (stats.hits - hits) / (stats.lookups - lookups),
            "index.entries": float(len(edge.cache)),
            "cluster.build_s": dep.build_s,
            "cluster.warm_s": warm_s,
            "edge_server.stats_rtt_us": stats_rtt,
            # The remainder closes the ledger: asyncio, sockets, the
            # service's own request handling and the generator.
            "edge_server.other_us_per_req":
                (wall_us - self_us(spans)) / requests,
            "edge_server.cpu_us_per_req":
                median(plain.costs["closed_cpu"]) * 1e6,
            "edge_server.shed_share":
                (edge.shed_count - shed) / requests,
            "cloud_server.resolve_rtt_us": resolve_rtt,
            "cloud_server.resolves_per_req":
                (cloud.resolved - resolved) / requests,
            "loadgen.late_p50_us": percentile(open_log.late, 50) * 1e6,
            "loadgen.late_p99_us": percentile(open_log.late, 99) * 1e6,
            "loadgen.open_p99_us": percentile(open_log.latency, 99) * 1e6,
            "loadgen.slo_share": open_log.within / len(open_log.latency),
            "loadgen.open_n": float(len(open_log.latency)),
            "loadgen.offered_rps":
                (len(open_log.latency) - open_log.slices)
                / open_log.sending_s,
            "loadgen.backlog_end": float(open_log.backlog),
            "trace.overhead_ratio":
                timed.fast_cost("closed") / plain.fast_cost("closed"),
            "measure.reference_ms": plain.fast_reference_s() * 1e3,
            "measure.disturbance_ratio": plain.disturbance(),
        })

    counters = edge.counters()
    attempted = dep.requests.sent
    # Every request sent was answered, and the service's own counters
    # account for each of them; a wrong label is a failed operation.
    correct = (dep.replied == attempted
               and counters["served"] + counters["shed"] == attempted
               and counters["hits"] + counters["misses"]
               == counters["served"])
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": dep.failed,
        "correct": correct,
        "notes": {"edge": counters, "cloud_resolved": cloud.resolved,
                  "closed_bursts": len(plain.costs["closed"]),
                  "open_slices": open_log.slices},
    }
