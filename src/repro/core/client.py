"""The CoIC mobile client.

The client's job per Figure 1: "Start IC Apps -> Extract IC Feature ->
send IC request -> receive IC result".  Concretely, per task family:

* recognition — optionally extract the descriptor on-device (config
  ``descriptor_source="client"``), upload frame and/or descriptor, await
  the result, display.
* model load — send the content-hash descriptor; on a hit the edge
  returns engine-ready geometry (upload to GPU and done); on a miss it
  returns the raw file (parse locally, then upload).
* panorama — send the content-hash descriptor; decode + crop whatever
  comes back.

``perform`` is a simulation process returning a
:class:`~repro.core.metrics.RequestRecord`; drive it with
``env.process(client.perform(task))`` — or, over real sockets, with
:func:`repro.backend.runtime.drive`.
"""

from __future__ import annotations

import typing

from repro.core.descriptors import HashDescriptor, VectorDescriptor
from repro.core.metrics import (
    MetricsRecorder,
    OUTCOME_ERROR,
    OUTCOME_SHED,
    RequestRecord,
)
from repro.core.tasks import (
    ModelLoadResult,
    ModelLoadTask,
    PanoramaTask,
    RecognitionTask,
    Task,
)
from repro.net.message import Message
from repro.net.transport import Rpc, RpcError
from repro.render.panorama import Viewport, crop_time_s
from repro.sim.kernel import Environment

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import CoICConfig
    from repro.render.loader import ModelLoader
    from repro.vision.recognition import Recognizer


class CoICClient:
    """A mobile device running IC apps through the CoIC edge.

    Args:
        env: Simulation environment.
        rpc: Transport endpoint.
        name: This client's host name in the topology.
        config: Deployment configuration.
        recognizer: Mobile-device recognizer (on-device extraction cost).
        loader: Mobile-device model loader (parse/upload costs).
        recorder: Destination for request records.
        edge_name: Host name of the CoIC edge.
    """

    def __init__(self, env: Environment, rpc: Rpc, name: str,
                 config: "CoICConfig", recognizer: "Recognizer",
                 loader: "ModelLoader", recorder: MetricsRecorder,
                 edge_name: str = "edge", attach_sketch: bool = False,
                 shed_retries: int = 0, backoff_rng=None):
        if shed_retries < 0:
            raise ValueError("shed_retries must be >= 0")
        self.env = env
        self.rpc = rpc
        self.name = name
        self.config = config
        self.recognizer = recognizer
        self.loader = loader
        self.recorder = recorder
        self.edge_name = edge_name
        #: How many times a shed recognition request is re-sent after
        #: honoring the edge's ``retry_after_s`` hint (0 = give up
        #: immediately, the pre-backoff behaviour).
        self.shed_retries = shed_retries
        #: RNG for the backoff jitter (a retrying crowd must not
        #: re-stampede in lockstep); None disables the jitter.
        self.backoff_rng = backoff_rng
        #: Total shed-backoff re-sends this client performed.
        self.shed_retried = 0
        #: Attach a cheap perceptual input sketch to recognition
        #: requests (costs SKETCH_COST_S on-device, a few hundred bytes
        #: on the wire) so an affinity balancer can score peers before
        #: the edge has extracted anything.  Deployments enable this
        #: when the scenario policy runs ``offload="affinity"`` with
        #: edge-side descriptor extraction.
        self.attach_sketch = attach_sketch
        self.viewport = Viewport()
        #: (time_s, edge_name) history; mobility re-attachment appends.
        self.attachments: list[tuple[float, str]] = [(env.now, edge_name)]
        #: Requests currently between perform() entry and completion.
        self.inflight = 0
        self._drained = None
        self._attach_gate = None

    # -- attachment -----------------------------------------------------------------

    @property
    def attached(self) -> bool:
        """False while the client is mid-handoff (radio re-associating)."""
        return self._attach_gate is None

    def detach(self) -> None:
        """Start a handoff: new requests stall until :meth:`attach`.

        Requests already in flight keep completing against the previous
        edge (the deployment keeps its link up until they drain).
        """
        if self._attach_gate is None:
            self._attach_gate = self.env.event()

    def attach(self, edge_name: str, now: float | None = None) -> None:
        """(Re-)point this client at a serving edge and release the gate.

        Requests issued after this call target ``edge_name``; requests
        already in flight complete against the previous edge.  The
        deployment's handoff process drives link teardown/re-setup
        around this call.
        """
        self.edge_name = edge_name
        self.attachments.append(
            (self.env.now if now is None else now, edge_name))
        if self._attach_gate is not None:
            gate, self._attach_gate = self._attach_gate, None
            # Only a stalled request holds the gate: with none, it is
            # dropped without a queue entry.
            if gate.callbacks:
                gate.succeed()

    def drained(self):
        """Event that fires when no request is in flight (maybe now)."""
        if self.inflight == 0:
            event = self.env.event()
            event.succeed()
            return event
        if self._drained is None:
            self._drained = self.env.event()
        return self._drained

    # -- public API -----------------------------------------------------------------

    def perform(self, task: Task):
        """Simulation process: run one task end-to-end, record and return
        its :class:`RequestRecord`."""
        started = self.env.now
        while self._attach_gate is not None:
            # Mid-handoff: the radio is between access points.  The wait
            # counts against this request's latency, which is exactly the
            # QoE cost the handoff-latency knob models.
            yield self._attach_gate
        self.inflight += 1
        edge = self.edge_name
        try:
            if isinstance(task, RecognitionTask):
                outcome, correct, detail, edge = yield from (
                    self._do_recognition(task))
            elif isinstance(task, ModelLoadTask):
                outcome, correct, detail, edge = yield from (
                    self._do_model_load(task))
            elif isinstance(task, PanoramaTask):
                outcome, correct, detail, edge = yield from (
                    self._do_panorama(task))
            else:
                raise TypeError(f"client cannot perform {task!r}")
        except RpcError as exc:
            outcome, correct, detail = OUTCOME_ERROR, None, {"error": str(exc)}
        finally:
            self.inflight -= 1
            if self.inflight == 0 and self._drained is not None:
                drained, self._drained = self._drained, None
                drained.succeed()
        record = RequestRecord(task_kind=task.kind, outcome=outcome,
                               user=self.name, start_s=started,
                               end_s=self.env.now, correct=correct,
                               detail=detail, edge=edge)
        self.recorder.record(record)
        return record

    # -- recognition ----------------------------------------------------------------

    def _do_recognition(self, task: RecognitionTask):
        rec = self.config.recognition
        # Snapshot the serving edge: a handoff completing mid-request
        # must not split the two-phase exchange across edges.
        edge_name = self.edge_name
        headers: dict = {}
        size = 64
        if rec.descriptor_source == "client":
            # On-device backbone pass, then ship the compact descriptor.
            yield self.recognizer.extraction_time()
            observation = self.recognizer.extract(task.frame)
            descriptor = VectorDescriptor(kind=task.kind,
                                          vector=observation.vector)
            headers["descriptor"] = descriptor
            size += descriptor.size_bytes
            if rec.attach_input:
                headers["has_input"] = True
                size += task.input_bytes
        else:
            # Edge extracts: the frame itself is the request body.
            headers["has_input"] = True
            size += task.input_bytes
        if self.attach_sketch and "descriptor" not in headers:
            # A perceptual sketch of the frame — milliseconds on-device,
            # not a backbone pass — deterministic per capture, so the
            # edge's affinity balancer and any cache summary agree on
            # its signature.
            from repro.core.sketch import SKETCH_COST_S, SKETCH_DIM, \
                input_sketch

            yield SKETCH_COST_S
            observation = self.recognizer.extract(task.frame)
            headers["sketch"] = input_sketch(observation.vector)
            size += SKETCH_DIM * 4 + 16

        def first_round() -> Message:
            return Message(size_bytes=size, kind="ic_request", payload=task,
                           src=self.name, dst=edge_name,
                           headers=dict(headers))

        response, retried = yield from self._call_with_backoff(first_round)

        if response.kind == "need_input":
            # Two-phase miss: the edge wants the frame after all.
            retry_headers = {"descriptor": headers.get("descriptor"),
                             "has_input": True, "force_forward": True}
            if "sketch" in headers:
                retry_headers["sketch"] = headers["sketch"]

            def second_round() -> Message:
                return Message(size_bytes=64 + task.input_bytes,
                               kind="ic_request", payload=task,
                               src=self.name, dst=edge_name,
                               headers=dict(retry_headers))

            # One retry budget spans the whole request: re-sends spent
            # on the first round are not granted again here.
            response, more = yield from self._call_with_backoff(
                second_round, budget=self.shed_retries - retried)
            retried += more

        served_by = response.headers.get("served_by", edge_name)
        if response.kind == "error":
            return OUTCOME_ERROR, None, {"error": response.payload}, served_by
        if response.kind == "shed":
            # The edge's admission controller refused the request (and
            # any backoff retries it was allowed re-shed); the app
            # decides whether to retry further, degrade, or drop the
            # frame.  The drain hint is recorded for the metrics layer.
            detail = {"shed": True,
                      "retry_after_s": float(
                          response.headers.get("retry_after_s", 0.0))}
            if retried:
                detail["retries"] = retried
            return OUTCOME_SHED, None, detail, served_by
        result = response.payload
        outcome = response.headers.get("outcome", "unknown")
        correct = result.label == task.frame.object_class
        detail = {"label": result.label}
        if "resume_layer" in response.headers:
            # Partial inference: which layer the edge resumed after and
            # what that saved versus a full pass.
            detail["resume_layer"] = response.headers["resume_layer"]
            detail["saved_s"] = float(response.headers.get("saved_s", 0.0))
        if "billed_to" in response.headers:
            # Marketplace: which operator was billed for cross-domain
            # service on this request, and at what price.
            detail["billed_to"] = response.headers["billed_to"]
            detail["price"] = float(response.headers.get("price", 0.0))
        if retried:
            detail["retries"] = retried
        return outcome, correct, detail, served_by

    def _call_with_backoff(self, build_request, budget=None):
        """One recognition round trip, honoring shed ``retry_after_s``.

        Sends ``build_request()`` and, while the edge sheds and retry
        budget remains (``budget`` defaults to ``shed_retries``), waits
        out the response's queue-drain hint (jittered by up to +50%
        when a ``backoff_rng`` is set, so a refused crowd does not
        re-stampede in lockstep) and re-sends a fresh copy.  Returns
        ``(final_response, retries_performed)``.  With a zero budget
        this is exactly one ``rpc.call``.
        """
        if budget is None:
            budget = self.shed_retries
        response = yield self.rpc.call(
            build_request(), timeout=self.config.request_timeout_s)
        retried = 0
        while response.kind == "shed" and retried < budget:
            retried += 1
            self.shed_retried += 1
            delay = float(response.headers.get("retry_after_s", 0.0))
            if self.backoff_rng is not None:
                delay *= 1.0 + float(self.backoff_rng.uniform(0.0, 0.5))
            if delay > 0:
                # A real wait on every backend, not a modelled charge.
                yield self.env.timeout(delay)
            response = yield self.rpc.call(
                build_request(), timeout=self.config.request_timeout_s)
        return response, retried

    # -- model loading -----------------------------------------------------------------

    def _do_model_load(self, task: ModelLoadTask):
        yield self.config.rendering.client_overhead_ms / 1e3
        edge_name = self.edge_name
        descriptor = HashDescriptor(kind=task.kind, digest=task.digest)
        request = Message(size_bytes=task.input_bytes, kind="ic_request",
                          payload=task, src=self.name, dst=edge_name,
                          headers={"descriptor": descriptor})
        response = yield self.rpc.call(
            request, timeout=self.config.request_timeout_s)
        served_by = response.headers.get("served_by", edge_name)
        if response.kind == "error":
            return OUTCOME_ERROR, None, {"error": response.payload}, served_by
        result: ModelLoadResult = response.payload

        if result.parsed:
            # Engine-ready geometry: GPU upload only.
            yield self.loader.upload_time(result.payload_bytes)
        else:
            # Raw file: parse locally, then upload the expanded form.
            cost = self.loader.load_cost_from_file(result.payload_bytes)
            yield cost.total_s
        outcome = response.headers.get("outcome", "unknown")
        correct = result.digest == task.digest
        return outcome, correct, {"parsed": result.parsed}, served_by

    # -- panoramas ---------------------------------------------------------------------

    def _do_panorama(self, task: PanoramaTask):
        edge_name = self.edge_name
        digest = task.panorama.digest()
        descriptor = HashDescriptor(kind=task.kind, digest=digest)
        request = Message(size_bytes=task.input_bytes, kind="ic_request",
                          payload=task, src=self.name, dst=edge_name,
                          headers={"descriptor": descriptor})
        response = yield self.rpc.call(
            request, timeout=self.config.request_timeout_s)
        served_by = response.headers.get("served_by", edge_name)
        if response.kind == "error":
            return OUTCOME_ERROR, None, {"error": response.payload}, served_by
        result = response.payload
        yield crop_time_s(task.panorama, self.viewport)
        outcome = response.headers.get("outcome", "unknown")
        correct = result.digest == digest
        return outcome, correct, {"bytes": result.payload_bytes}, served_by
