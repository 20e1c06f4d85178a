"""Deploy a ScenarioSpec on the real execution backend.

:func:`run_real_scenario` is the ``backend="real"`` counterpart of
building a :class:`~repro.core.cluster.ClusterDeployment` and driving
it: the same spec, the same config, the same workload trace and the
same ``CoICClient`` — but the edges are real asyncio socket servers
(optionally real OS processes), each client's requests cross real
sockets, and the timestamps in the returned
:class:`~repro.core.metrics.MetricsRecorder` are wall clock.

Two execution modes:

* ``mode="process"`` — the deployment shape: one spawned OS process
  per edge plus one for the cloud stub, ports exchanged over pipes,
  graceful shutdown frames on exit.  This is what the CLI uses and
  what the fault-injection tests SIGKILL.
* ``mode="inline"`` — every service lives in the caller's event loop
  (still real loopback sockets and the real wire protocol).  Hermetic
  and fast: what the unmarked test tier and coverage runs exercise.

Scope: each real edge runs the simulator's own stage chain for the
spec's policy, over recognition requests — local cache hit,
cloud-resolved miss, a client-extracted descriptor and the
``need_input`` exchange it can cost, and the admission stage's shed
(with the client's backoff) or cloud redirect, with ``queue_limit``
counting requests waiting for a worker slot on both backends.
Simulation-only machinery (federation probes, peer offload, gossip,
mobility handoffs, layer reuse) needs peers or frames the wire cannot
carry yet; a spec using those still runs, but each edge serves from its
own cache only.

:func:`run_simulated_trace` replays the identical workload trace
through the simulation sequentially — the parity oracle the test suite
compares real outcomes against.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
import typing

from repro.backend import runtime
from repro.backend.cloud_server import CloudService
from repro.backend.edge_server import EdgeService
from repro.backend.loadgen import WorkloadItem, build_workload
from repro.backend.server import serve_process
from repro.core.client import CoICClient
from repro.core.cluster import client_options, embedding_space
from repro.core.config import CoICConfig
from repro.core.metrics import MetricsRecorder
from repro.core.tasks import RecognitionTask
from repro.sim.rng import RngStreams
from repro.vision.model_zoo import CLOUD_GPU_2018, MOBILE_SOC_2018, get_network
from repro.vision.recognition import Recognizer

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.scenario import ScenarioSpec

#: How long to wait for a spawned service to report its port.
SPAWN_TIMEOUT_S = 30.0


@dataclasses.dataclass
class RealRunResult:
    """Outcome of one real-backend run.

    Attributes:
        recorder: Wall-clock request records, schema-identical to the
            simulated recorder.
        wall_s: Wall-clock seconds the replay took (load phase only;
            spawn and shutdown excluded).
        mode: ``"process"`` or ``"inline"``.
        edge_counters: Final per-edge serving counters (from the
            ``bye``/``stats`` frames; empty dicts for edges that died).
    """

    recorder: MetricsRecorder
    wall_s: float
    mode: str
    edge_counters: list[dict]

    @property
    def requests(self) -> int:
        return len(self.recorder.records)

    @property
    def requests_per_sec(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0


def build_cloud_payload(config: CoICConfig) -> dict:
    """The cloud stub's latency shim, derived from the config."""
    network = get_network(config.recognition.network,
                          descriptor_dim=config.recognition.descriptor_dim)
    inference_s = (CLOUD_GPU_2018.invocation_overhead_s
                   + CLOUD_GPU_2018.seconds_for_gflops(network.total_gflops))
    return {
        "backhaul_mbps": config.network.backhaul_mbps,
        "backhaul_delay_ms": config.network.backhaul_delay_ms,
        "inference_s": inference_s,
    }


def build_edge_payload(spec: "ScenarioSpec", edge_name: str,
                       config: CoICConfig,
                       cloud: tuple[str, int] | None) -> dict:
    """The construction dict for one edge's EdgeService (picklable).

    The edge is built from the same spec and config the simulator
    builds it from; ``cloud`` is the cloud stub's ``(host, port)``.
    """
    return {"name": edge_name, "spec": spec, "config": config,
            "cloud": cloud}


# -- drivers ------------------------------------------------------------------


async def _drive_clients(spec: "ScenarioSpec", config: CoICConfig,
                         items: list[WorkloadItem],
                         ports: dict[str, int], recorder: MetricsRecorder,
                         pace_s: float, sequential: bool) -> None:
    """Replay the trace against live edges (any mode): one
    ``CoICClient`` per spec client, built as the simulator builds it,
    each request's ``perform`` driven on asyncio."""
    env, rng, rec = runtime.Env(), RngStreams(config.seed), config.recognition
    recognizer = Recognizer(get_network(rec.network,
                                        descriptor_dim=rec.descriptor_dim),
                            MOBILE_SOC_2018, embedding_space(config))
    addresses = {name: ("127.0.0.1", port) for name, port in ports.items()}
    clients: dict[str, CoICClient] = {}
    for espec in spec.edges:
        # Attached edge first, then the rest of the spec as failover.
        order = sorted(addresses.values(),
                       key=lambda address: address != addresses[espec.name])
        for cspec in espec.clients:
            clients[cspec.name] = CoICClient(
                env, runtime.Rpc(edges=order), cspec.name, config,
                recognizer=recognizer, loader=None, recorder=recorder,
                edge_name=espec.name,
                **client_options(spec, config, rng, cspec.name))

    async def replay(trace: list[WorkloadItem]) -> None:
        for item in trace:
            await runtime.drive(clients[item.client].perform(
                RecognitionTask(frame=item.frame(config))))
            if pace_s > 0.0:
                await asyncio.sleep(pace_s)

    # Sequential replay keeps global trace order: the parity mode (the
    # simulated sequential replay's cache insertion order, exactly).
    by_client: dict[str, list[WorkloadItem]] = {}
    for item in items:
        by_client.setdefault(item.client, []).append(item)
    traces = [items] if sequential else list(by_client.values())
    try:
        await asyncio.gather(*map(replay, traces))
    finally:
        for client in clients.values():
            client.rpc.close()


async def _shutdown_service(port: int) -> dict:  # pragma: no cover - process mode
    """Send a shutdown frame; returns the final counters (or {})."""
    route = runtime.Route("service", [("127.0.0.1", port)], 0, 0.0)
    try:
        reply = await asyncio.wait_for(route.call({"op": "shutdown"}), 10.0)
        return {k: v for k, v in reply.items() if k != "op"}
    except Exception:
        return {}
    finally:
        route.close()


async def _run_inline(spec: "ScenarioSpec", config: CoICConfig,
                      items: list[WorkloadItem], recorder: MetricsRecorder,
                      pace_s: float, sequential: bool) -> RealRunResult:
    cloud = CloudService(build_cloud_payload(config))
    await cloud.start()
    edges: dict[str, EdgeService] = {}
    ports: dict[str, int] = {}
    try:
        for espec in spec.edges:
            service = EdgeService(build_edge_payload(
                spec, espec.name, config, ("127.0.0.1", cloud.port)))
            await service.start()
            edges[espec.name] = service
            ports[espec.name] = service.port
        started = time.monotonic()
        await _drive_clients(spec, config, items, ports, recorder,
                             pace_s, sequential)
        wall_s = time.monotonic() - started
        counters = [edges[e.name].counters() for e in spec.edges]
    finally:
        for service in edges.values():
            await service.stop()
        await cloud.stop()
    return RealRunResult(recorder=recorder, wall_s=wall_s, mode="inline",
                         edge_counters=counters)


def _spawn(ctx, service_cls, payload: dict):  # pragma: no cover - process mode
    """Start ``service_cls(payload)`` in its own process; (process, port)."""
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=serve_process,
                          args=(child_conn, service_cls, payload),
                          daemon=True)
    process.start()
    child_conn.close()
    if not parent_conn.poll(SPAWN_TIMEOUT_S):
        process.terminate()
        raise RuntimeError(f"backend process did not report a port "
                           f"within {SPAWN_TIMEOUT_S}s")
    tag, port = parent_conn.recv()
    assert tag == "port", tag
    return process, port


# Process mode is exercised by the `real_backend`-marked tests and the
# CLI smoke in CI's real-backend job, which the hermetic coverage job
# deselects — hence the no-cover pragmas on this block.
async def _run_process(  # pragma: no cover - process mode
        spec: "ScenarioSpec", config: CoICConfig,
        items: list[WorkloadItem], recorder: MetricsRecorder,
        pace_s: float, sequential: bool, kill_edge: str | None,
        kill_after_s: float) -> RealRunResult:
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    cloud_proc, cloud_port = _spawn(ctx, CloudService,
                                    build_cloud_payload(config))
    edge_procs: dict[str, typing.Any] = {}
    ports: dict[str, int] = {}
    killer: asyncio.TimerHandle | None = None
    try:
        for espec in spec.edges:
            payload = build_edge_payload(spec, espec.name, config,
                                         ("127.0.0.1", cloud_port))
            process, port = _spawn(ctx, EdgeService, payload)
            edge_procs[espec.name] = process
            ports[espec.name] = port
        if kill_edge is not None:
            killer = asyncio.get_running_loop().call_later(
                kill_after_s, edge_procs[kill_edge].kill)
        started = time.monotonic()
        await _drive_clients(spec, config, items, ports, recorder,
                             pace_s, sequential)
        wall_s = time.monotonic() - started
        counters = []
        for espec in spec.edges:
            if edge_procs[espec.name].is_alive():
                counters.append(await _shutdown_service(ports[espec.name]))
            else:
                counters.append({})
        await _shutdown_service(cloud_port)
    finally:
        if killer is not None:
            killer.cancel()
        for process in [*edge_procs.values(), cloud_proc]:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
    return RealRunResult(recorder=recorder, wall_s=wall_s, mode="process",
                         edge_counters=counters)


# -- public API ---------------------------------------------------------------


def run_real_scenario(spec: "ScenarioSpec",
                      config: CoICConfig | None = None,
                      requests_per_client: int = 5,
                      pace_s: float = 0.0,
                      mode: str = "process",
                      sequential: bool = False,
                      kill_edge: str | None = None,
                      kill_after_s: float = 0.5,
                      items: list[WorkloadItem] | None = None
                      ) -> RealRunResult:
    """Run ``spec`` on the real backend; returns wall-clock metrics.

    Args:
        spec: Any scenario spec (its ``backend`` field is advisory —
            calling this function *is* choosing the real backend).
        config: Deployment config (default ``CoICConfig()``).
        requests_per_client: Trace length per client (ignored when an
            explicit ``items`` trace is given).
        pace_s: Client think time between requests.
        mode: ``"process"`` (spawned OS processes) or ``"inline"``
            (same event loop; hermetic).
        sequential: Replay the trace one request at a time in global
            trace order — the parity mode matching the simulated
            sequential replay's cache-state evolution exactly.
        kill_edge: Process mode only: SIGKILL this edge's process
            ``kill_after_s`` seconds into the load phase (fault
            injection; clients fail over to surviving edges).
        items: Explicit trace to replay instead of building one.
    """
    if mode not in ("process", "inline"):
        raise ValueError(f"mode must be 'process' or 'inline', got {mode!r}")
    if kill_edge is not None and mode != "process":
        raise ValueError("kill_edge requires mode='process'")
    config = config or CoICConfig()
    if items is None:
        items = build_workload(spec, config, requests_per_client)
    recorder = MetricsRecorder()
    if mode == "inline":
        return asyncio.run(_run_inline(spec, config, items, recorder,
                                       pace_s, sequential))
    return asyncio.run(  # pragma: no cover - process mode
        _run_process(spec, config, items, recorder, pace_s, sequential,
                     kill_edge, kill_after_s))


def run_simulated_trace(spec: "ScenarioSpec", config: CoICConfig,
                        items: list[WorkloadItem]):
    """Replay the same trace through the simulation, sequentially.

    Returns the :class:`~repro.core.cluster.ClusterDeployment` after
    the replay — its ``recorder`` is the parity oracle for a
    ``sequential=True`` real run over the identical ``items``.
    """
    from repro.core.cluster import ClusterDeployment

    deployment = ClusterDeployment(spec, config=config)
    for item in items:
        client = deployment.client_by_name[item.client]
        deployment.run_tasks(
            client, [RecognitionTask(frame=item.frame(config))])
    return deployment
