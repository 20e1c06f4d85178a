"""The edge's stage generators on asyncio: an interpreter and adapters.

The stages reach the runtime only through what they yield — a bare
number ("charge this many modelled seconds") or something to wait for
— and through the edge's ``env``, ``compute`` and ``rpc``.  The
simulator's :class:`~repro.sim.process.Process` interprets them on the
event kernel; :func:`start` and :func:`drive` do on asyncio, with
:class:`Env`, :class:`Compute` and :class:`Rpc` exposing only the names
the recognition path touches.  A real edge charges no modelled time, so
no request holds a worker slot across an ``await`` and none ever waits
for one: ``Compute.queue_length`` is always 0.

:func:`start` runs a generator up to its first real wait without a
loop turn: a hit, a shed or an error reply finishes there, and the
edge answers it inside the socket's read callback.  Only what waits (a
miss's cloud leg) comes back as a :class:`Waiting`, the awaitable of the
rest; :func:`drive` is :func:`start` and that ``await``.

The client's side runs the same way: ``CoICClient.perform`` under
:func:`drive`, its request sent by :meth:`Rpc.call` to its edge.  A
wait that is real on every backend (a shed's backoff) is yielded as
``env.timeout(delay)``, which here is ``asyncio.sleep``.

Both legs, a client's to its edge and an edge's to the cloud, are a
:class:`Route`: one :class:`~repro.backend.server.Connection` that any
number of calls share at once, each waiting for the reply that echoes
its ``id``.  So an edge's concurrent misses overlap on the cloud leg, as
they do in the simulator.
"""

from __future__ import annotations

import asyncio
import random
import time
import typing

from repro.backend import server
from repro.backend.protocol import (
    BAD_FIELD,
    ProtocolError,
    decode_reply,
    encode_reply,
    encode_request,
)
from repro.net.message import Message
from repro.net.transport import RpcError, RpcTimeout
from repro.vision.recognition import RecognitionResult

#: A client's attempts per request beyond the first: a crashed edge is
#: the expected cause, so the budget doubles as the failover walk's length.
CONNECT_RETRIES = 3
#: A client's pause before its first re-attempt; each further one doubles it.
CONNECT_BACKOFF_S = 0.05


def start(generator: typing.Generator, value: typing.Any = None,
          error: BaseException | None = None) -> typing.Any:
    """Step a stage generator to its next real wait, synchronously.

    The generator is resumed with ``value`` (or has ``error`` thrown
    in), and yielded numbers are skipped on the spot.  A generator that
    finishes without waiting gives its return value here, with no task
    and no loop turn; one that yields something to wait for gives a
    :class:`Waiting`, which awaits that and runs the rest.
    """
    try:
        target = (generator.send(value) if error is None
                  else generator.throw(error))
        while target.__class__ is float or target.__class__ is int:
            target = generator.send(None)
    except StopIteration as stop:
        return stop.value
    return Waiting(generator, target)


async def drive(generator: typing.Generator) -> typing.Any:
    """Run a stage generator to completion; its return value."""
    result = start(generator)
    return await result if result.__class__ is Waiting else result


class Waiting:
    """The rest of a stage generator that yielded ``target`` to wait
    for.  Awaiting it awaits ``target``, sends its value back (or throws
    what it raised, cancellation too, so the generator's ``finally``
    blocks run) and so on to the generator's return value."""

    __slots__ = ("generator", "target")

    def __init__(self, generator: typing.Generator, target: typing.Any):
        self.generator = generator
        self.target = target

    def __await__(self):
        return self._finish().__await__()

    async def _finish(self) -> typing.Any:
        result = self
        while result.__class__ is Waiting:
            value = error = None
            try:
                value = await result.target
            except BaseException as exc:  # thrown into the generator next
                error = exc
            result = start(self.generator, value, error)
        return result


class Env:
    """``env``: the monotonic clock asyncio's loop runs on, and real
    waits (:meth:`timeout`) where the simulator's are simulated."""

    now = property(lambda self: time.monotonic())

    @staticmethod
    def timeout(delay: float):
        return asyncio.sleep(delay)


class Compute:
    """``compute``: worker slots, granted on the spot.

    The slot :meth:`request` returns is what a stage yields to wait for
    it: here a zero-second charge, which :func:`start` skips.
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


class Route:
    """One shared connection to the first live address of a failover
    order; a call gets ``retries`` re-attempts, the first after
    ``backoff_s`` (doubling, jittered; 0 re-attempts at once).

    Calls share the connection and hold nothing across a round trip:
    each waits for the reply that echoes its own ``id``.  Only opening
    the connection is serialized, so the callers a lost connection
    fails reconnect once between them.  :meth:`close` is final.
    """

    def __init__(self, name: str, addresses: list[tuple[str, int]],
                 retries: int, backoff_s: float):
        self.name = name
        self.addresses = addresses
        self.retries = retries
        self.backoff_s = backoff_s
        self.attached = 0  # index into addresses
        self.connection: server.Connection | None = None
        self.closed = False
        self._connecting = asyncio.Lock()

    def close(self) -> None:
        """Hang up; each pending call raises :class:`RpcError`."""
        self.closed = True
        if self.connection is not None:
            self.connection.close(RpcError, f"{self.name} route closed")
            self.connection = None

    async def call(self, frame: dict) -> dict:
        """One round trip (``frame`` gains its ``id``).  Only a refused
        connect walks on, so a lost connection first reconnects to the
        attached address.  A cancelled call leaves the connection open
        to the other callers."""
        start, refused, error = self.attached, 0, None
        for attempt in range(self.retries + 1):
            if attempt and self.backoff_s:
                await asyncio.sleep(self.backoff_s * 2 ** (attempt - 1)
                                    * random.uniform(1.0, 1.5))
            connection = self.connection
            if connection is None or connection.closed:
                try:
                    connection = await self._connect(
                        (start + refused) % len(self.addresses))
                except OSError as exc:
                    error = exc
                    refused += 1
                    continue
            try:
                return await connection.call(frame)
            except ProtocolError as exc:
                error = exc
        raise RpcError(f"{self.name} unreachable: {error}")

    async def _connect(self, index: int) -> server.Connection:
        """The live connection, opened to ``addresses[index]`` unless
        another caller opened one while this one waited its turn."""
        async with self._connecting:
            connection = self.connection
            if connection is None or connection.closed:
                if self.closed:
                    raise RpcError(f"{self.name} route closed")
                connection = await server.connect(*self.addresses[index])
                if self.closed:
                    connection.close(RpcError, f"{self.name} route closed")
                    raise RpcError(f"{self.name} route closed")
                self.connection, self.attached = connection, index
            return connection


class Rpc:
    """``rpc``: each call over the shared connection its kind names.

    An ``ic_request`` goes to a client's attached edge (failing over
    along ``edges``) and is answered within its ``timeout``; a
    ``cloud_request`` goes to the cloud, and the client holds its
    deadline.  A reply becomes a frame in :attr:`replies`.

    Args:
        cloud: ``(host, port)`` of the cloud stub, or None — an edge is
            then its own oracle, with no latency (protocol tests).
        edges: A client's edge addresses: the attached edge first, then
            the rest of the spec as its failover order.
    """

    def __init__(self, cloud: tuple[str, int] | None = None,
                 edges: typing.Sequence[tuple[str, int]] = ()):
        self._routes: dict[str, Route] = {}
        if cloud is not None:
            # Nowhere to fail over to: one immediate reconnect.
            self._routes["cloud_request"] = Route("cloud", [cloud], 1, 0.0)
        if edges:
            self._routes["ic_request"] = Route(
                "edge", list(edges), CONNECT_RETRIES, CONNECT_BACKOFF_S)
        #: Request ``msg_id`` -> the reply frame :meth:`respond` built.
        self.replies: dict[int, dict] = {}

    def close(self) -> None:
        for route in self._routes.values():
            route.close()

    def call(self, msg: Message, timeout: float | None = None):
        """The response to ``msg``, awaitable."""
        route = self._routes.get(msg.kind)
        if msg.kind == "cloud_request":
            return self._resolve(route, msg.payload)
        if route is None:
            raise RpcError(f"no route to {msg.dst!r} for {msg.kind}")
        return self._request(route, msg, timeout)

    def respond(self, request: Message, size_bytes: int,
                payload: typing.Any = None, kind: str = "reply",
                headers: dict | None = None) -> tuple:
        """Put ``request``'s reply frame in :attr:`replies`, unsent."""
        self.replies[request.msg_id] = encode_reply(kind, payload, headers)
        return ()

    @staticmethod
    async def _request(route: Route, msg: Message,
                       timeout: float | None) -> Message:
        frame = encode_request(msg)
        try:
            reply = await asyncio.wait_for(route.call(frame), timeout)
        except asyncio.TimeoutError:
            raise RpcTimeout(f"timed out after {timeout}s") from None
        try:
            return decode_reply(reply)
        except BAD_FIELD as exc:
            raise RpcError(f"bad reply frame: {exc!r}") from None

    @staticmethod
    async def _resolve(route: Route | None, task) -> Message:
        label = task.frame.object_class
        if route is not None:
            reply = await route.call({
                "op": "resolve", "object_class": label,
                "capture_id": task.frame.capture_id,
                "input_bytes": task.input_bytes})
            label = int(reply["label"])
        result = RecognitionResult(label=label, confidence=0.97)
        return Message(size_bytes=result.size_bytes, kind="ic_result",
                       payload=result)
