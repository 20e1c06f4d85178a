"""Sim/real parity and robustness tests for the execution backend.

The unmarked tests run everything inline — real loopback sockets and
the real wire protocol inside the caller's event loop — so they stay
hermetic and run in tier-1.  Tests marked ``real_backend`` spawn one
OS process per edge plus a cloud stub (the deployment shape) and are
deselected by default; run them with ``pytest -m real_backend``.
"""

import asyncio
import collections

import pytest

from repro.backend.edge_server import EdgeService
from repro.backend.loadgen import RealClient, WorkloadItem, build_workload
from repro.backend.protocol import call
from repro.backend.runner import run_real_scenario, run_simulated_trace
from repro.backend.server import FrameServer
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
from repro.core.tasks import KIND_RECOGNITION
from repro.eval.experiments.mobility_exp import drive_scenario
from repro.eval.experiments.overload_exp import build_rush_hour
from repro.sim.rng import RngStreams


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


class SheddingEdge(FrameServer):
    """Sheds the first ``k`` recognize frames, then answers correctly."""

    def __init__(self, k, hint_s):
        super().__init__()
        self.ops["recognize"] = (lambda m: (int(m["object_class"]),),
                                 self._recognize)
        self.k, self.hint_s, self.seen = k, hint_s, 0

    def counters(self):
        return {"seen": self.seen}

    async def _recognize(self, object_class):
        self.seen += 1
        if self.seen <= self.k:
            return {"op": "result", "outcome": OUTCOME_SHED,
                    "served_by": "edge0", "retry_after_s": self.hint_s}
        return {"op": "result", "outcome": OUTCOME_MISS,
                "label": object_class, "served_by": "edge0"}


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
    def test_shed_retries_resend_after_the_backoff(self):
        # An edge that sheds the first k frames: the client waits out
        # each jittered retry_after_s hint, re-sends, and is served.
        k, hint_s = 3, 0.02
        recorder = MetricsRecorder()
        item = WorkloadItem(client="m0", edge="edge0", seq=0, capture_id=1,
                            object_class=2, viewpoint=0.0, input_bytes=0)

        async def _run():
            edge = SheddingEdge(k, hint_s)
            await edge.start()
            client = RealClient(
                "m0", [("edge0", ("127.0.0.1", edge.port))], [item],
                recorder, timeout_s=5.0, shed_retries=k,
                backoff_rng=RngStreams(seed=0).stream("client.backoff.m0"))
            try:
                await client.run()
            finally:
                await edge.stop()
            return edge.seen

        assert asyncio.run(_run()) == k + 1
        (record,) = recorder.records
        assert record.outcome == OUTCOME_MISS and record.correct
        assert record.detail["retries"] == k
        assert record.end_s - record.start_s >= k * hint_s

    def test_request_timeout_records_an_error_outcome(self):
        spec = small_spec(warm=(), clients=(("m0",),))
        config = fast_config(network="vgg16")
        config.request_timeout_s = 0.05  # well under the ~0.4s miss
        real = run_real_scenario(spec, config=config, mode="inline",
                                 sequential=True, requests_per_client=1)

        (record,) = real.recorder.records
        assert record.outcome == OUTCOME_ERROR
        assert "timeout" in record.detail["error"]
        assert record.correct is None

    def test_drain_refuses_new_work_then_shutdown_reports_counters(
            self, edge_payload):
        # The graceful half of the shutdown story, at protocol level:
        # a draining edge sheds incoming work, and the shutdown frame
        # answers with the final serving counters.
        payload = edge_payload(metric="l2", vector_dtype="float64")

        async def _run():
            service = EdgeService(payload)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port)
            request = {"op": "recognize", "capture_id": 1,
                       "object_class": 2, "viewpoint": 0.1}
            try:
                first = await call(reader, writer, request)
                await service.drain(timeout_s=1.0)
                second = await call(reader, writer,
                                    dict(request, capture_id=2))
                bye = await call(reader, writer, {"op": "shutdown"})
            finally:
                writer.close()
                await service.stop()
            return first, second, bye

        first, second, bye = asyncio.run(_run())
        assert first["outcome"] == OUTCOME_MISS and first["label"] == 2
        assert second["outcome"] == OUTCOME_SHED
        assert second["retry_after_s"] > 0
        assert bye["op"] == "bye"
        assert bye["served"] == 1 and bye["misses"] == 1
        assert bye["shed"] == 1 and bye["cache_entries"] == 1

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

    def test_process_parity_smoke(self):
        spec = small_spec()
        config = fast_config()
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
