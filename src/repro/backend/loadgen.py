"""Workload replay clients for the real execution backend.

The trace is the contract between the two backends: both replay the
*same* deterministic per-client capture sequence, drawn from the same
named RNG streams (``workload.mobile.<client>``) the simulated driver
uses, with globally unique capture ids.  :func:`build_workload`
materializes that trace once; the simulation replays it through
``CoICClient.perform`` and the real backend replays it here, over real
sockets, as closed-loop asyncio load generators.

Each client mirrors the simulated robustness behaviour:

* per-request timeout (``request_timeout_s`` from the config),
* shed replies honored: wait out the edge's ``retry_after_s`` hint
  (jittered up to +50% by the same backoff-stream policy the simulated
  client uses) and re-send, up to the policy's ``shed_retries``,
* bounded connection retries with jittered exponential backoff, and
  failover to the next edge in the spec when the attached edge's
  process has died mid-run.

Every completed request lands in the shared
:class:`~repro.core.metrics.MetricsRecorder` as a plain
:class:`~repro.core.metrics.RequestRecord` — wall-clock ``start_s`` /
``end_s``, the serving edge from the reply's ``served_by`` tag, and
client-side correctness scoring — so sim and real runs are summarized
by the identical metrics code.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import typing

from repro.backend.protocol import ProtocolError, call
from repro.core.metrics import (
    MetricsRecorder,
    OUTCOME_ERROR,
    OUTCOME_SHED,
    RequestRecord,
)
from repro.core.tasks import KIND_RECOGNITION
from repro.sim.rng import RngStreams
from repro.vision.image import RESOLUTIONS, CameraFrame

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import CoICConfig
    from repro.core.scenario import ScenarioSpec

#: Connection-level retry budget per request (process crashes are the
#: expected cause, so the budget doubles as the failover walk length).
CONNECT_RETRIES = 3
#: Base pause before a reconnect attempt.
CONNECT_BACKOFF_S = 0.05


@dataclasses.dataclass(frozen=True)
class WorkloadItem:
    """One recognition request of the deterministic replay trace."""

    client: str
    edge: str
    seq: int
    capture_id: int
    object_class: int
    viewpoint: float
    input_bytes: int

    def frame(self, config: "CoICConfig") -> CameraFrame:
        """The simulated capture this item stands for (parity replay)."""
        rec = config.recognition
        return CameraFrame(object_class=self.object_class,
                           viewpoint=self.viewpoint,
                           resolution=RESOLUTIONS[rec.resolution],
                           quality=rec.quality, user=self.client,
                           seq=self.seq, capture_id=self.capture_id)


def build_workload(spec: "ScenarioSpec", config: "CoICConfig",
                   requests_per_client: int) -> list[WorkloadItem]:
    """The deterministic replay trace for ``spec`` under ``config``.

    Per client (spec order), the class/viewpoint draws replicate the
    simulated driver exactly: ``rng.integers(n_classes)`` then
    ``rng.uniform(-0.5, 0.5)`` on the client's ``workload.mobile.*``
    stream.  Capture ids count up globally in trace order, mirroring
    the deployment's shared capture counter under sequential replay.
    """
    rng_streams = RngStreams(seed=config.seed)
    rec = config.recognition
    frame_bytes = CameraFrame(object_class=0,
                              resolution=RESOLUTIONS[rec.resolution],
                              quality=rec.quality).size_bytes
    capture_ids = itertools.count(1)
    items: list[WorkloadItem] = []
    for espec in spec.edges:
        for cspec in espec.clients:
            rng = rng_streams.stream(f"workload.mobile.{cspec.name}")
            for seq in range(requests_per_client):
                object_class = int(rng.integers(rec.n_classes))
                viewpoint = float(rng.uniform(-0.5, 0.5))
                items.append(WorkloadItem(
                    client=cspec.name, edge=espec.name, seq=seq,
                    capture_id=next(capture_ids),
                    object_class=object_class, viewpoint=viewpoint,
                    input_bytes=64 + frame_bytes))
    return items


class RealClient:
    """One closed-loop load generator replaying a client's trace slice.

    Args:
        name: Client name (stamps ``user`` on every record).
        edges: ``(edge_name, (host, port))`` in failover preference
            order — the attached edge first, then the rest of the spec.
        items: This client's :class:`WorkloadItem` slice, trace order.
        recorder: Shared wall-clock metrics destination.
        timeout_s: Per-request deadline (``config.request_timeout_s``).
        shed_retries: Re-sends granted after a shed, per request.
        backoff_rng: Jitter stream for shed backoff (None = no jitter).
        pace_s: Think time between consecutive requests.
    """

    def __init__(self, name: str, edges: list[tuple[str, tuple[str, int]]],
                 items: list[WorkloadItem], recorder: MetricsRecorder,
                 timeout_s: float = 60.0, shed_retries: int = 0,
                 backoff_rng=None, pace_s: float = 0.0):
        self.name = name
        self.edges = list(edges)
        self.items = list(items)
        self.recorder = recorder
        self.timeout_s = timeout_s
        self.shed_retries = shed_retries
        self.backoff_rng = backoff_rng
        self.pace_s = pace_s
        self.shed_retried = 0
        self.failovers = 0
        self._streams: tuple | None = None
        self._attached = 0  # index into self.edges

    async def run(self, clock=None) -> None:
        """Replay every item, recording one RequestRecord each."""
        loop = asyncio.get_running_loop()
        clock = clock or loop.time
        try:
            for item in self.items:
                await self._one_request(item, clock)
                if self.pace_s > 0.0:
                    await asyncio.sleep(self.pace_s)
        finally:
            self._close()

    def _close(self) -> None:
        if self._streams is not None:
            self._streams[1].close()
            self._streams = None

    async def _connect(self) -> tuple:
        """(Re)connect, walking the failover order with jittered waits."""
        if self._streams is not None:
            return self._streams
        last_error: Exception | None = None
        for attempt in range(CONNECT_RETRIES + 1):
            index = (self._attached + attempt) % len(self.edges)
            _, (host, port) = self.edges[index]
            try:
                self._streams = await asyncio.open_connection(host, port)
            except ConnectionError as exc:
                last_error = exc
                delay = CONNECT_BACKOFF_S * (2 ** attempt)
                if self.backoff_rng is not None:
                    delay *= 1.0 + float(self.backoff_rng.uniform(0.0, 0.5))
                await asyncio.sleep(delay)
                continue
            if index != self._attached:
                self.failovers += 1
                self._attached = index
            return self._streams
        raise last_error  # type: ignore[misc]

    async def _roundtrip(self, request: dict) -> dict:
        reader, writer = await self._connect()
        try:
            return await asyncio.wait_for(call(reader, writer, request),
                                          self.timeout_s)
        except asyncio.TimeoutError:
            # The reply may still arrive later; drop the connection so
            # a stale answer can never be paired with the next request.
            self._close()
            raise
        except (ProtocolError, ConnectionError, asyncio.IncompleteReadError):
            # The attached edge died mid-exchange: drop the connection
            # and let the caller re-send through the failover walk.
            self._close()
            raise ProtocolError("edge connection lost")

    async def _one_request(self, item: WorkloadItem, clock) -> None:
        request = {"op": "recognize", "user": self.name, "seq": item.seq,
                   "capture_id": item.capture_id,
                   "object_class": item.object_class,
                   "viewpoint": item.viewpoint,
                   "input_bytes": item.input_bytes}
        started = clock()
        outcome, correct, detail, edge = await self._exchange(item, request)
        self.recorder.record(RequestRecord(
            task_kind=KIND_RECOGNITION, outcome=outcome, user=self.name,
            start_s=started, end_s=clock(), correct=correct, detail=detail,
            edge=edge))

    async def _exchange(self, item: WorkloadItem, request: dict):
        retried = 0
        resend = CONNECT_RETRIES
        while True:
            try:
                reply = await self._roundtrip(request)
            except asyncio.TimeoutError:
                return (OUTCOME_ERROR, None,
                        {"error": f"timeout after {self.timeout_s}s"}, "")
            except (ProtocolError, ConnectionError, OSError) as exc:
                if resend > 0:
                    resend -= 1
                    continue
                return OUTCOME_ERROR, None, {"error": str(exc)}, ""
            served_by = reply.get("served_by", "")
            if reply.get("op") == "error":
                return (OUTCOME_ERROR, None,
                        {"error": str(reply.get("error", ""))}, served_by)
            if reply.get("outcome") == "shed":
                if retried < self.shed_retries:
                    retried += 1
                    self.shed_retried += 1
                    delay = float(reply.get("retry_after_s", 0.0))
                    if self.backoff_rng is not None:
                        delay *= 1.0 + float(
                            self.backoff_rng.uniform(0.0, 0.5))
                    if delay > 0.0:
                        await asyncio.sleep(delay)
                    continue
                detail = {"shed": True,
                          "retry_after_s": float(
                              reply.get("retry_after_s", 0.0))}
                if retried:
                    detail["retries"] = retried
                return OUTCOME_SHED, None, detail, served_by
            label = int(reply["label"])
            detail: dict = {"label": label}
            if retried:
                detail["retries"] = retried
            if self.failovers:
                detail["failovers"] = self.failovers
            return (reply.get("outcome", "unknown"),
                    label == item.object_class, detail, served_by)
