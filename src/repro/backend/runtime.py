"""The edge's stage generators on asyncio: an interpreter and adapters.

The stages reach the runtime only through what they yield — a bare
number ("charge this many modelled seconds") or something to wait for
— and through the edge's ``env``, ``compute`` and ``rpc``.  The
simulator's :class:`~repro.sim.process.Process` interprets them on the
event kernel; :func:`drive` does on asyncio, with :class:`Env`,
:class:`Compute` and :class:`Rpc` exposing only the names the
recognition path touches.  A real edge charges no modelled time, so no
request holds a worker slot across an ``await`` and none ever waits
for one: ``Compute.queue_length`` is always 0.
"""

from __future__ import annotations

import asyncio
import time
import typing

from repro.backend.protocol import ProtocolError, call
from repro.net.message import Message
from repro.net.transport import RpcError
from repro.vision.recognition import RecognitionResult


async def drive(generator: typing.Generator) -> typing.Any:
    """Run a stage generator to completion; its return value.

    A yielded number is skipped; anything else is awaited, and what it
    raises is thrown back into the generator (cancellation too, so the
    generator's ``finally`` blocks run).
    """
    send, throw = generator.send, generator.throw
    value = error = None
    while True:
        try:
            target = send(value) if error is None else throw(error)
        except StopIteration as stop:
            return stop.value
        value = error = None
        if target.__class__ is not float and target.__class__ is not int:
            try:
                value = await target
            except BaseException as exc:  # thrown into the generator next
                error = exc


class Env:
    """``env``: the monotonic clock asyncio's loop runs on."""

    now = property(lambda self: time.monotonic())


class Compute:
    """``compute``: worker slots, granted on the spot.

    The slot :meth:`request` returns is what a stage yields to wait for
    it: here a zero-second charge, which :func:`drive` skips.
    """

    queue_length = 0

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.count = 0

    def request(self) -> float:
        self.count += 1
        return 0.0

    def release(self, slot: float) -> None:
        self.count -= 1


class Rpc:
    """``rpc``: the cloud leg over one connection; replies become frames.

    Args:
        cloud: ``(host, port)`` of the cloud stub, or None — the edge
            is then its own oracle, with no latency (protocol tests).
    """

    def __init__(self, cloud: tuple[str, int] | None):
        self.cloud = cloud
        #: Request ``msg_id`` -> the reply frame :meth:`respond` built.
        self.replies: dict[int, dict] = {}
        self._lock = asyncio.Lock()
        self._streams: tuple | None = None

    def close(self) -> None:
        if self._streams is not None:
            self._streams[1].close()
            self._streams = None

    def call(self, msg: Message, timeout: float | None = None):
        """The response to ``msg``, awaitable; only the cloud has a route.
        The client holds the deadline, so ``timeout`` is not enforced."""
        if msg.kind != "cloud_request":
            raise RpcError(f"no route to {msg.dst!r} for {msg.kind}")
        return self._resolve(msg.payload)

    def respond(self, request: Message, size_bytes: int,
                payload: typing.Any = None, kind: str = "reply",
                headers: dict | None = None) -> tuple:
        """Put ``request``'s reply frame in :attr:`replies`, unsent.

        A ``result`` frame carries the reply headers (``outcome``,
        ``served_by``, a shed's ``retry_after_s``) and the ``label``.
        """
        if kind == "error":
            frame = {"op": "error", "error": payload,
                     "served_by": headers["served_by"]}
        else:
            frame = {"op": "result", **headers}
            if payload is not None:
                frame["label"] = int(payload.label)
        self.replies[request.msg_id] = frame
        return ()

    async def _resolve(self, task) -> Message:
        label = task.frame.object_class
        if self.cloud is not None:
            try:
                reply = await self._cloud_call({
                    "op": "resolve", "object_class": label,
                    "capture_id": task.frame.capture_id,
                    "input_bytes": task.input_bytes})
            except (ProtocolError, OSError) as exc:
                raise RpcError(f"cloud unreachable: {exc}") from exc
            label = int(reply["label"])
        result = RecognitionResult(label=label, confidence=0.97)
        return Message(size_bytes=result.size_bytes, kind="ic_result",
                       payload=result)

    async def _cloud_call(self, request: dict) -> dict:
        """One round trip on the persistent connection, one reconnect."""
        async with self._lock:
            for attempt in (0, 1):
                if self._streams is None:
                    self._streams = await asyncio.open_connection(*self.cloud)
                try:
                    return await call(*self._streams, request)
                except (ProtocolError, ConnectionError):
                    self.close()  # the stub may have restarted
                    if attempt:
                        raise
        raise AssertionError("unreachable")  # pragma: no cover
