"""Sim/real parity and robustness tests for the execution backend.

The unmarked tests run everything inline — real loopback sockets and
the real wire protocol inside the caller's event loop — so they stay
hermetic and run in tier-1.  Tests marked ``real_backend`` spawn one
OS process per edge plus a cloud stub (the deployment shape) and are
deselected by default; run them with ``pytest -m real_backend``.
"""

import asyncio
import collections
import sys

import pytest

from repro.backend import runtime, server
from repro.backend.cloud_server import CloudService
from repro.backend.edge_server import EdgeService
from repro.backend.loadgen import WorkloadItem, build_workload
from repro.backend.protocol import call, encode_frame, read_frame
from repro.backend.runner import (
    _drive_clients,
    build_cloud_payload,
    build_edge_payload,
    run_real_scenario,
    run_simulated_trace,
)
from repro.core.cluster import ClusterDeployment
from repro.core.config import CoICConfig
from repro.core.metrics import (
    MetricsRecorder,
    OUTCOME_ERROR,
    OUTCOME_HIT,
    OUTCOME_MISS,
    OUTCOME_PARTIAL,
    OUTCOME_SHED,
)
from repro.core.scenario import (
    ClientSpec,
    EdgePolicySpec,
    EdgeSpec,
    MobilitySpec,
    ScenarioSpec,
    WarmupSpec,
)
from repro.core.tasks import KIND_RECOGNITION, RecognitionTask
from repro.eval.experiments.mobility_exp import drive_scenario
from repro.eval.experiments.overload_exp import build_rush_hour
from repro.sim.kernel import Environment


def fast_config(seed=0, n_classes=12, network="mobilenet_v2"):
    """Small class space + light cloud shim so misses cost ~0.16s."""
    config = CoICConfig(seed=seed)
    config.recognition.n_classes = n_classes
    config.recognition.resolution = "720p"
    config.recognition.network = network
    config.network.backhaul_mbps = 1000.0
    return config


def small_spec(policy=None, warm=(1, 2, 3), clients=(("m0", "m1"), ("m2",))):
    edges = tuple(
        EdgeSpec(name=f"edge{k}",
                 clients=tuple(ClientSpec(name=name) for name in row))
        for k, row in enumerate(clients))
    return ScenarioSpec(edges=edges, policy=policy,
                        warmup=WarmupSpec(classes=warm) if warm else None)


def triples(recorder):
    return [(r.user, r.outcome, r.correct) for r in recorder.records]


OUTCOMES = (OUTCOME_HIT, OUTCOME_MISS, OUTCOME_PARTIAL, OUTCOME_SHED,
            OUTCOME_ERROR)


def edge_outcomes(counts):
    """The reply outcomes in one edge's counts (or counters frame)."""
    return {outcome: counts[outcome] for outcome in OUTCOMES
            if counts.get(outcome)}


def assert_counts_match_recorder(recorder, per_edge):
    """Conservation: for every edge E and outcome O, the client records
    served by E with outcome O number exactly E's count of O.

    ``per_edge`` is ``(name, counts)`` pairs: ``EdgeNode.counts`` on the
    simulator, the ``counters`` frame on the real backend.
    """
    per_edge = dict(per_edge)
    served = collections.defaultdict(collections.Counter)
    for record in recorder.records:
        served[record.edge][record.outcome] += 1
    assert set(served) <= set(per_edge)
    for name, counts in per_edge.items():
        assert edge_outcomes(counts) == dict(served[name]), name


class TestSimRealParity:
    def test_sequential_inline_replay_matches_the_simulation(self):
        # The parity contract: same spec, same config, same trace,
        # sequential replay -> identical per-request outcomes and
        # correctness on both backends (and identical empty ledgers).
        spec = small_spec()
        config = fast_config()
        items = build_workload(spec, config, 4)

        sim = run_simulated_trace(spec, config, items)
        real = run_real_scenario(spec, config=config, mode="inline",
                                 sequential=True, items=items)

        assert triples(real.recorder) == triples(sim.recorder)
        assert (real.recorder.outcome_counts()
                == sim.recorder.outcome_counts())
        # Both hit and miss paths must actually be exercised for the
        # parity claim to mean anything.
        assert set(real.recorder.outcome_counts()) == {OUTCOME_HIT,
                                                       OUTCOME_MISS}
        assert real.recorder.ledger == sim.recorder.ledger == []
        # Each edge counts the same outcomes on both backends.
        assert ([edge_outcomes(edge.counts) for edge in sim.edges]
                == [edge_outcomes(c) for c in real.edge_counters])
        assert_counts_match_recorder(
            real.recorder, zip(spec.edge_names, real.edge_counters))
        assert real.mode == "inline"
        assert real.requests == len(items)
        assert real.requests_per_sec > 0.0

    def test_fully_warm_edge_serves_every_request_from_cache(self):
        spec = small_spec(warm=(0, 1, 2, 3), clients=(("m0",),))
        config = fast_config(n_classes=4)
        real = run_real_scenario(spec, config=config, mode="inline",
                                 requests_per_client=6)

        assert real.recorder.outcome_counts() == {OUTCOME_HIT: 6}
        assert real.recorder.outcome_counts(KIND_RECOGNITION) == {
            OUTCOME_HIT: 6}
        assert real.recorder.accuracy() == 1.0
        assert all(r.edge == "edge0" for r in real.recorder.records)
        (counters,) = real.edge_counters
        assert counters["hits"] == 6
        assert counters["misses"] == 0
        assert counters["cache_entries"] == 4

    def test_miss_resolution_populates_the_real_cache(self):
        # Two captures of the same class: the first misses to the
        # cloud stub, the second hits the entry that miss inserted.
        spec = small_spec(warm=(), clients=(("m0",),))
        config = fast_config(n_classes=1)
        real = run_real_scenario(spec, config=config, mode="inline",
                                 sequential=True, requests_per_client=2)

        assert [r.outcome for r in real.recorder.records] == [
            OUTCOME_MISS, OUTCOME_HIT]
        assert all(r.correct for r in real.recorder.records)
        assert real.edge_counters[0]["cache_entries"] == 1

    @pytest.mark.parametrize("admission", ["shed", "redirect"])
    def test_overload_decision_parity(self, admission):
        # queue_limit counts requests waiting for a worker slot on both
        # backends, so 0 means always overloaded: every recognition
        # request takes the admission action, request for request.
        policy = EdgePolicySpec(admission=admission, queue_limit=0)
        spec = small_spec(policy=policy, warm=())
        config = fast_config()
        items = build_workload(spec, config, 2)

        sim = run_simulated_trace(spec, config, items)
        real = run_real_scenario(spec, config=config, mode="inline",
                                 sequential=True, items=items)

        assert triples(real.recorder) == triples(sim.recorder)
        if admission == "shed":
            assert real.recorder.outcome_counts() == {OUTCOME_SHED: 6}
            hints = [[r.detail["retry_after_s"] for r in recorder.records]
                     for recorder in (real.recorder, sim.recorder)]
            assert hints[0] == hints[1] and min(hints[0]) > 0
            assert sum(c["shed"] for c in real.edge_counters) == 6
        else:
            # Redirect relays to the cloud and caches nothing.
            assert real.recorder.outcome_counts() == {OUTCOME_MISS: 6}
            assert [c["cache_entries"] for c in real.edge_counters] == [0, 0]
            assert [len(cache) for cache in sim.caches] == [0, 0]

    @pytest.mark.parametrize("attach_input", [True, False],
                             ids=["with-input", "need-input"])
    def test_client_descriptor_parity(self, attach_input):
        # The client extracts the descriptor on the device and ships it
        # (with the frame, or without — then a miss costs the two-phase
        # need_input exchange): same outcomes on both backends, and each
        # edge counts the same outcomes and the same handled frames.
        config = fast_config()
        config.recognition.descriptor_source = "client"
        config.recognition.attach_input = attach_input
        spec = small_spec()
        items = build_workload(spec, config, 4)

        sim = run_simulated_trace(spec, config, items)
        real = run_real_scenario(spec, config=config, mode="inline",
                                 sequential=True, items=items)

        assert triples(real.recorder) == triples(sim.recorder)
        outcomes = real.recorder.outcome_counts()
        assert set(outcomes) == {OUTCOME_HIT, OUTCOME_MISS}
        assert ([edge_outcomes(edge.counts) for edge in sim.edges]
                == [edge_outcomes(c) for c in real.edge_counters])
        # Every miss without its input was asked for it once: a second
        # frame handled, and nothing counted for the need_input reply.
        handled = outcomes[OUTCOME_HIT] + outcomes[OUTCOME_MISS] * (
            1 if attach_input else 2)
        assert ([edge.counts["requests_served"] for edge in sim.edges]
                == [c["requests_served"] for c in real.edge_counters])
        assert sum(c["requests_served"]
                   for c in real.edge_counters) == handled
        assert all("need_input" not in c for c in real.edge_counters)


class TestConcurrentMisses:
    """Misses on one edge share its one cloud connection and overlap: a
    cloud call waits for the reply that echoes its id, holding no lock."""

    SHIM = {"backhaul_mbps": 1000.0, "backhaul_delay_ms": 0.0,
            "inference_s": 0.05}

    def test_eight_misses_finish_within_one_and_a_half_of_one(self):
        # 8 cold captures on 8 connections behind a 50 ms cloud: they
        # overlap, so the slowest takes at most 1.5x one miss alone.
        import time

        spec = small_spec(warm=(), clients=(("m0",),))
        config = fast_config(n_classes=16)

        async def one(port, object_class):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            started = time.monotonic()
            try:
                reply = await call(reader, writer, {
                    "op": "recognize", "capture_id": object_class + 1,
                    "object_class": object_class})
            finally:
                writer.close()
            return reply, time.monotonic() - started

        async def _run():
            cloud = CloudService(self.SHIM)
            await cloud.start()
            edge = EdgeService(build_edge_payload(
                spec, "edge0", config, ("127.0.0.1", cloud.port)))
            await edge.start()
            try:
                alone = await one(edge.port, 0)
                together = await asyncio.gather(
                    *(one(edge.port, k) for k in range(1, 9)))
                return alone, together, cloud.resolved
            finally:
                await edge.stop()
                await cloud.stop()

        (reply, alone_s), together, resolved = asyncio.run(_run())
        assert reply["outcome"] == OUTCOME_MISS
        assert [r["outcome"] for r, _ in together] == [OUTCOME_MISS] * 8
        assert [r["label"] for r, _ in together] == list(range(1, 9))
        assert resolved == 9
        assert max(elapsed for _, elapsed in together) <= 1.5 * alone_s

    def test_stopping_the_edge_fails_its_pending_cloud_call(
            self, edge_payload):
        # A miss waits on a 30 s cloud.  EdgeService.stop closes the
        # cloud route, which fails the pending call with RpcError: the
        # miss is answered with an error at once, not left hanging.
        import time

        async def _run():
            cloud = CloudService(dict(self.SHIM, inference_s=30.0))
            await cloud.start()
            edge = EdgeService(edge_payload(cloud=("127.0.0.1", cloud.port)))
            await edge.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", edge.port)
            stopping = None
            try:
                writer.write(encode_frame({"op": "recognize",
                                           "capture_id": 1,
                                           "object_class": 2}))
                while edge.active == 0:
                    await asyncio.sleep(0.005)
                started = time.monotonic()
                stopping = asyncio.ensure_future(edge.stop())
                reply = await asyncio.wait_for(read_frame(reader), 5.0)
                elapsed = time.monotonic() - started
            finally:
                writer.close()
                await (stopping or edge.stop())
                await cloud.stop()
            return reply, elapsed, edge.active

        reply, elapsed, active = asyncio.run(_run())
        assert reply["op"] == "error"
        assert reply["error"] == "cloud route closed"
        assert elapsed < 1.0 and active == 0

    def test_concurrent_misses_match_the_simulation(self):
        # Eight clients of one cold edge fire at once, two per class: the
        # same outcomes, the same edge counts and the same number of
        # cloud resolves on both backends.
        spec = small_spec(warm=(),
                          clients=(tuple(f"m{k}" for k in range(8)),))
        config = fast_config()
        items = [WorkloadItem(client=f"m{k}", edge="edge0", seq=0,
                              capture_id=k + 1, object_class=k % 4,
                              viewpoint=0.0) for k in range(8)]

        sim = ClusterDeployment(spec, config=config)
        sim.run_concurrent([
            (0.0, sim.client_by_name[item.client],
             RecognitionTask(frame=item.frame(config))) for item in items])

        async def _real():
            recorder = MetricsRecorder()
            cloud = CloudService(build_cloud_payload(config))
            await cloud.start()
            edge = EdgeService(build_edge_payload(
                spec, "edge0", config, ("127.0.0.1", cloud.port)))
            await edge.start()
            try:
                await _drive_clients(spec, config, items,
                                     {"edge0": edge.port}, recorder,
                                     pace_s=0.0, sequential=False)
                return recorder, edge.counters(), cloud.resolved
            finally:
                await edge.stop()
                await cloud.stop()

        recorder, counters, resolved = asyncio.run(_real())
        assert sorted(triples(recorder)) == sorted(triples(sim.recorder))
        assert recorder.outcome_counts() == {OUTCOME_MISS: 8}
        assert edge_outcomes(counters) == edge_outcomes(sim.edges[0].counts)
        assert resolved == sim.cloud.counts["requests_served"] == 8


class TestEdgeCountsMatchRecorder:
    """Every reply that ends a request is counted once, by the edge that
    sent it — the client's ``served_by`` attribution, seen from the
    edge.  (Specs without shed retries or client timeouts: a retried
    shed or a reply to an abandoned call is counted but not recorded.)"""

    @staticmethod
    def sim_edges(dep):
        return zip(dep.edge_names, (edge.counts for edge in dep.edges))

    def test_federated_metro_with_handoffs(self):
        dep = ClusterDeployment(
            ScenarioSpec.metro(mobility=MobilitySpec(duration_s=30.0)),
            config=CoICConfig(seed=0))
        drive_scenario(dep, 30.0, request_interval_s=1.0)
        counts = dep.counts()
        assert counts["peer_hits"] > 0 and dep.handoff_log
        assert counts[OUTCOME_HIT] + counts[OUTCOME_MISS] == len(
            dep.recorder.records)
        assert_counts_match_recorder(dep.recorder, self.sim_edges(dep))

    def test_overload_that_sheds_and_offloads(self):
        policy = EdgePolicySpec(admission="shed", offload="least_loaded",
                                queue_limit=2, offload_margin=2)
        dep = build_rush_hour(policy=policy, hot_clients=12,
                              duration_s=20.0)
        drive_scenario(dep, 20.0, request_interval_s=0.2)
        counts = dep.counts()
        assert counts[OUTCOME_SHED] > 0 and counts["offloaded_out"] > 0
        # An offload is counted where it was served, not where it came in.
        assert counts["offloaded_in"] == counts["offloaded_out"]
        assert_counts_match_recorder(dep.recorder, self.sim_edges(dep))


class TestRobustness:
    def test_shed_retries_resend_after_the_backoff(self, monkeypatch):
        # queue_limit=0 sheds every request on both backends; each client
        # waits out two jittered retry_after_s hints and re-sends.  The
        # waits are drawn alike — and on sockets they are really waited.
        waits = {"sim": [], "real": []}

        def spy(backend, timeout):
            def logged(env, delay, *rest):
                if sys._getframe(1).f_code.co_name == "_call_with_backoff":
                    waits[backend].append(delay)
                return timeout(env, delay, *rest)
            return logged

        real_timeout = runtime.Env.timeout
        monkeypatch.setattr(Environment, "timeout",
                            spy("sim", Environment.timeout))
        monkeypatch.setattr(runtime.Env, "timeout", spy(
            "real", lambda env, delay: real_timeout(delay)))
        policy = EdgePolicySpec(admission="shed", queue_limit=0,
                                shed_retries=2)
        spec = small_spec(policy=policy, warm=())
        config = fast_config()
        items = build_workload(spec, config, 2)

        sim = run_simulated_trace(spec, config, items)
        real = run_real_scenario(spec, config=config, mode="inline",
                                 sequential=True, items=items)

        assert triples(real.recorder) == triples(sim.recorder)
        assert real.recorder.outcome_counts() == {OUTCOME_SHED: 6}
        for recorder in (real.recorder, sim.recorder):
            assert [r.detail["retries"] for r in recorder.records] == [2] * 6
        assert waits["real"] == waits["sim"] and len(waits["real"]) == 12
        for k, record in enumerate(real.recorder.records):
            assert (record.end_s - record.start_s
                    >= sum(waits["real"][2 * k:2 * k + 2]))

    def test_request_timeout_records_an_error_outcome(self):
        # The client's deadline cuts a slow (vgg16) miss short with the
        # same error detail on both backends.
        spec = small_spec(warm=(), clients=(("m0",),))
        config = fast_config(network="vgg16")
        config.request_timeout_s = 0.05  # well under the ~0.4s miss
        items = build_workload(spec, config, 1)

        sim = run_simulated_trace(spec, config, items)
        real = run_real_scenario(spec, config=config, mode="inline",
                                 sequential=True, items=items)

        assert triples(real.recorder) == triples(sim.recorder) == [
            ("m0", OUTCOME_ERROR, None)]
        assert ([r.detail for r in real.recorder.records]
                == [r.detail for r in sim.recorder.records]
                == [{"error": "timed out after 0.05s"}])

    def test_every_edge_dead_costs_one_error_per_request_in_one_budget(
            self, monkeypatch):
        # Both edges refuse connections: each request walks the failover
        # order once — CONNECT_RETRIES + 1 connection attempts in all —
        # and ends in exactly one error record.
        import socket

        ports = {}
        for name in ("edge0", "edge1"):
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                ports[name] = probe.getsockname()[1]
        attempts = []
        connect = server.connect

        async def counted(host, port):
            attempts.append(port)
            return await connect(host, port)

        monkeypatch.setattr(server, "connect", counted)
        monkeypatch.setattr(runtime, "CONNECT_BACKOFF_S", 0.001)
        spec = small_spec(clients=(("m0",), ("m1",)))
        config = fast_config()
        items = build_workload(spec, config, 2)
        recorder = MetricsRecorder()

        asyncio.run(_drive_clients(spec, config, items, ports, recorder,
                                   pace_s=0.0, sequential=True))

        assert [r.outcome for r in recorder.records] == [OUTCOME_ERROR] * 4
        assert all(r.detail["error"].startswith("edge unreachable")
                   for r in recorder.records)
        assert len(attempts) <= len(items) * (runtime.CONNECT_RETRIES + 1)
        assert set(attempts) == set(ports.values())

    def test_drain_refuses_new_work_then_shutdown_reports_counters(
            self, edge_payload):
        # The graceful half of the shutdown story, at protocol level:
        # a draining edge sheds incoming work, and the shutdown frame
        # answers with the final serving counters — with or without an
        # admit stage of the policy's own, which the draining one
        # replaces.
        for policy in (None, EdgePolicySpec(admission="shed",
                                            queue_limit=4)):
            payload = edge_payload(vector_dtype="float64", policy=policy)
            first, second, bye, stages = asyncio.run(
                self._serve_drain_shutdown(payload))
            # One admit stage, the shed-everything one, heads the chain.
            assert [stage.name for stage in stages] == [
                "admit", "lookup", "resolve", "respond"]
            assert stages[0].spec.queue_limit == 0
            assert first["outcome"] == OUTCOME_MISS and first["label"] == 2
            assert second["outcome"] == OUTCOME_SHED
            assert second["retry_after_s"] > 0
            assert bye["op"] == "bye"
            assert bye["served"] == 1 and bye["misses"] == 1
            assert bye["shed"] == 1 and bye["cache_entries"] == 1

    @staticmethod
    async def _serve_drain_shutdown(payload):
        """One request, a drain, one more request, then ``shutdown``."""
        service = EdgeService(payload)
        await service.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port)
        request = {"op": "recognize", "capture_id": 1,
                   "object_class": 2, "viewpoint": 0.1}
        try:
            first = await call(reader, writer, request)
            await service.drain(timeout_s=1.0)
            second = await call(reader, writer, dict(request, capture_id=2))
            bye = await call(reader, writer, {"op": "shutdown"})
        finally:
            writer.close()
            await service.stop()
        return first, second, bye, service.edge.pipeline.stages

    def test_dead_cloud_costs_an_error_reply_not_the_connection(
            self, edge_payload):
        # The cloud address refuses connections.  A cold capture gets
        # an error reply on the same connection (the simulated edge
        # answers an unreachable cloud the same way), hits + misses ==
        # served still holds, and the connection keeps serving.
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        payload = edge_payload(cloud=("127.0.0.1", dead_port), warm=(1,),
                               vector_dtype="float64")

        async def _run():
            service = EdgeService(payload)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            try:
                cold = await call(reader, writer, {
                    "op": "recognize", "capture_id": 1, "object_class": 2})
                warm = await call(reader, writer, {
                    "op": "recognize", "capture_id": 2, "object_class": 1})
                counters = await call(reader, writer, {"op": "stats"})
            finally:
                writer.close()
                await service.stop()
            return cold, warm, counters

        cold, warm, counters = asyncio.run(_run())
        assert cold["op"] == "error" and cold["served_by"] == "edge0"
        assert cold["error"].startswith("cloud unreachable")
        assert warm["outcome"] == OUTCOME_HIT and warm["label"] == 1
        assert (counters["served"], counters["hits"],
                counters["misses"]) == (1, 1, 0)
        assert counters["cache_entries"] == 1

    def test_concurrent_misses_on_a_dead_cloud_each_get_a_prompt_error(
            self, edge_payload):
        # Misses share the edge's one cloud connection.  The cloud route
        # re-attempts once, at once, so concurrent cold captures do not
        # queue behind each other's retries: every one is answered with
        # an error well within a single client backoff pause.
        import socket
        import time

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        payload = edge_payload(cloud=("127.0.0.1", dead_port), warm=(1,),
                               vector_dtype="float64")

        async def one(port, capture_id):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            started = time.monotonic()
            try:
                reply = await call(reader, writer, {
                    "op": "recognize", "capture_id": capture_id,
                    "object_class": 2 + capture_id % 2})
            finally:
                writer.close()
            return reply, time.monotonic() - started

        async def _run():
            service = EdgeService(payload)
            await service.start()
            try:
                return await asyncio.gather(
                    *(one(service.port, k) for k in range(8)))
            finally:
                await service.stop()

        results = asyncio.run(_run())
        assert all(reply["op"] == "error"
                   and reply["error"].startswith("cloud unreachable")
                   for reply, _ in results)
        assert max(elapsed for _, elapsed in results) < 0.25


class TestRunnerValidation:
    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_real_scenario(small_spec(), mode="threads")

    def test_speculative_forward_is_refused(self):
        config = fast_config()
        config.recognition.speculative_forward = True
        with pytest.raises(ValueError, match="speculative_forward"):
            run_real_scenario(small_spec(), config=config, mode="inline")

    def test_kill_edge_requires_process_mode(self):
        with pytest.raises(ValueError, match="kill_edge"):
            run_real_scenario(small_spec(), mode="inline",
                              kill_edge="edge1")


@pytest.mark.real_backend
class TestProcessMode:
    """Deployment-shape tests: spawned OS processes, real SIGKILL."""

    @pytest.mark.parametrize("descriptor_source", ["edge", "client"])
    def test_process_parity_smoke(self, descriptor_source):
        spec = small_spec()
        config = fast_config()
        config.recognition.descriptor_source = descriptor_source
        items = build_workload(spec, config, 3)

        sim = run_simulated_trace(spec, config, items)
        real = run_real_scenario(spec, config=config, mode="process",
                                 sequential=True, items=items)

        assert real.mode == "process"
        assert triples(real.recorder) == triples(sim.recorder)
        # Survivor shutdown collected both edges' final counters.
        assert [c["edge"] for c in real.edge_counters] == ["edge0",
                                                           "edge1"]
        assert sum(c["served"] for c in real.edge_counters) == len(items)

    def test_killed_edge_fails_over_and_the_run_completes(self):
        # SIGKILL edge1 while m2's first (slow vgg16) miss is in
        # flight: the client re-sends through the failover walk and
        # the whole trace still completes without an error outcome.
        spec = small_spec()
        config = fast_config(network="vgg16")
        real = run_real_scenario(spec, config=config, mode="process",
                                 requests_per_client=6,
                                 kill_edge="edge1", kill_after_s=0.2)

        assert real.requests == 18
        counts = real.recorder.outcome_counts()
        assert OUTCOME_ERROR not in counts
        assert set(counts) <= {OUTCOME_HIT, OUTCOME_MISS}
        # The killed edge never answered the shutdown frame...
        assert real.edge_counters[1] == {}
        # ...and every record that landed after the kill names the
        # survivor, including m2's failed-over requests.
        assert real.edge_counters[0]["served"] > 0
        m2_edges = [r.edge for r in real.recorder.records
                    if r.user == "m2"]
        assert m2_edges and m2_edges[-1] == "edge0"
