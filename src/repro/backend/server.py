"""The one connection every real-backend service and caller runs.

:class:`FrameServer` owns what an edge and the cloud stub have in
common: the listening socket's lifecycle (``start`` / ``stop`` /
``port`` / ``wait_stopped``), the error contract — an unknown ``op``, a
badly typed field or a bad ``id`` is answered with an ``error`` frame
and the connection keeps serving; a malformed frame or a dropped peer
costs that one connection, never the process — and the ``stats`` /
``shutdown`` ops.  A service adds its own ops to ``self.ops``.

Each connection is an :class:`asyncio.Protocol` (:class:`Connection`),
and the same class serves and calls.  Its read callback cuts the
length-prefixed frames out of the bytes that arrived.  A frame whose
``id`` is one of the connection's own pending calls is that call's
reply: it resolves the call's future on the spot, with no lock and no
reader task.  Any other frame is a request:

* A handler that answers at once (a hit, a shed, ``stats``) has its
  reply written inside that same callback.
* A handler that has to wait (a miss's cloud leg, ``shutdown``'s drain,
  a cloud shim with a delay) returns a coroutine, which becomes a task.
  A frame with an ``id`` gets a task of its own, up to :data:`WINDOW`
  of them per connection, and its reply, which echoes the ``id``, may
  overtake earlier ones.  A frame without an ``id`` keeps the in-order
  contract: the connection answers no further frame until its reply is
  written.

While it answers no further frame (the in-order task, a full window)
it buffers up to :data:`READ_LIMIT` bytes, then stops reading; a
serving connection stops reading, too, while the transport has paused
writing, so a peer that does not read its replies stops being read.  A
peer's EOF ends the connection, cancels the requests it was owed
replies for and fails the calls still waiting for theirs.
"""

from __future__ import annotations

import asyncio
import typing

from repro.backend import protocol
from repro.backend.protocol import (
    BAD_FIELD,
    PREFIX_BYTES,
    ProtocolError,
    bad_frame_reply,
)


#: What a connection buffers while it answers no further frame before it
#: stops reading (the limit ``asyncio.StreamReader`` keeps by default).
#: It reads on below it, so a peer that hangs up is seen at once.
READ_LIMIT = 64 * 1024

#: Waiting handlers of frames with an ``id`` that one connection runs at
#: once; the frames behind a full window wait in the buffer.
WINDOW = 64


def _no_fields(message: dict) -> tuple:
    return ()


class FrameServer:
    """Asyncio socket server dispatching frames through an op table."""

    def __init__(self) -> None:
        #: ``op -> (read_fields, handler)``: ``read_fields(message)``
        #: pulls the typed fields out of the frame (a
        #: :data:`~repro.backend.protocol.BAD_FIELD` it raises is
        #: answered with ``bad_frame_reply``) and ``handler(*fields)``
        #: returns the reply frame, or a coroutine of it when it has to
        #: wait.
        self.ops: dict[str, tuple[typing.Callable, typing.Callable]] = {
            "stats": (_no_fields, self._stats),
            "shutdown": (_no_fields, self._shutdown),
        }
        self._server: asyncio.AbstractServer | None = None
        self._stopping = asyncio.Event()
        self._stopper: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, "start() not called"
        return self._server.sockets[0].getsockname()[1]

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start accepting; returns the bound port."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: Connection(self), host, port)
        return self.port

    async def stop(self) -> None:
        """Stop accepting and release ``wait_stopped`` waiters."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopping.set()

    async def wait_stopped(self) -> None:
        await self._stopping.wait()

    def _stop_soon(self) -> None:
        """:meth:`stop` from a callback (after a ``bye``)."""
        self._stopper = asyncio.get_running_loop().create_task(self.stop())

    def counters(self) -> dict:
        """What ``stats`` and ``bye`` frames report."""
        raise NotImplementedError

    # -- serving -------------------------------------------------------------

    def _stats(self) -> dict:
        return {"op": "counters", **self.counters()}

    def _shutdown(self) -> dict:
        return {"op": "bye", **self.counters()}


async def connect(host: str, port: int) -> Connection:
    """A calling connection to ``(host, port)``: the one place a route
    opens a socket.  A refused connect raises ``OSError``."""
    _, connection = await asyncio.get_running_loop().create_connection(
        Connection, host, port)
    return connection


class Connection(asyncio.Protocol):
    """One peer's frames, both ways (see the module docstring).

    Args:
        server: Whose ``ops`` answer the requests that arrive, or None
            for a connection that only calls (it drops any frame that
            is not a reply it waits for).
    """

    def __init__(self, server: FrameServer | None = None):
        self._server = server
        self._ops = server.ops if server is not None else {}
        self._buffer = bytearray()
        self._transport: asyncio.Transport | None = None
        #: The task owing the in-order reply (a frame without ``id``).
        self._task: asyncio.Task | None = None
        #: ``id -> task`` of the frames with an ``id`` whose handler waits.
        self._window: dict[int, asyncio.Task] = {}
        self._writing_paused = False
        #: ``id -> future`` of this side's calls awaiting their replies.
        self._pending: dict[int, asyncio.Future] = {}
        self._last_id = 0
        self.closed = False

    # -- transport callbacks -------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve()

    def connection_lost(self, exc: Exception | None) -> None:
        # An EOF ends the connection too (the base class's
        # ``eof_received``): nobody is left to read the replies, so stop
        # waiting for them, and no reply will come to the calls.
        self.closed = True
        if self._task is not None:
            self._task.cancel()
        for task in self._window.values():
            task.cancel()
        self._fail(ProtocolError, f"connection lost before the reply"
                                  f"{f': {exc}' if exc else ''}")

    def pause_writing(self) -> None:
        # A connection that only calls reads on: its peer's replies are
        # what lets the peer read again.
        if self._ops:
            self._writing_paused = True
            self._transport.pause_reading()

    def resume_writing(self) -> None:
        if self._writing_paused:
            self._writing_paused = False
            self._resume()

    # -- calling -------------------------------------------------------------

    async def call(self, frame: dict) -> dict:
        """Send ``frame``, which gains a fresh ``id``, and return the
        reply that echoes it (without the ``id``).  A lost connection
        raises :class:`ProtocolError`; a cancelled call forgets its
        ``id``, and a reply that comes for it later is dropped."""
        if self.closed:
            raise ProtocolError("connection closed")
        self._last_id = call_id = self._last_id + 1
        frame["id"] = call_id
        data = protocol.encode_frame(frame)
        future = self._pending[call_id] = (
            asyncio.get_running_loop().create_future())
        self._transport.write(data)
        try:
            return await future
        finally:
            self._pending.pop(call_id, None)

    def close(self, error: type[Exception], text: str) -> None:
        """Hang up; each pending call raises ``error(text)``."""
        self.closed = True
        self._fail(error, text)
        self._transport.close()

    def _fail(self, error: type[Exception], text: str) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error(text))

    # -- frames --------------------------------------------------------------

    def _serve(self) -> None:
        """Resolve the replies and answer the requests among the buffer's
        complete frames, until a request waits in order, the window is
        full or writing pauses; then stop reading once :data:`READ_LIMIT`
        bytes are waiting (at once while writing is paused)."""
        buffer, transport, start = self._buffer, self._transport, 0
        pending, window = self._pending, self._window
        try:
            while (self._task is None and len(window) < WINDOW
                   and not self._writing_paused):
                if len(buffer) - start < PREFIX_BYTES:
                    break
                end = (start + PREFIX_BYTES
                       + protocol.frame_length(buffer, start))
                if end > len(buffer):
                    break
                body = buffer[start + PREFIX_BYTES:end]
                start = end
                message = protocol.decode_body(body)
                call_id = message.get("id")
                if call_id.__class__ is int and call_id in pending:
                    del message["id"]
                    future = pending.pop(call_id)
                    if not future.done():  # not cancelled meanwhile
                        future.set_result(message)
                elif self._ops:
                    self._answer(message, call_id)
                    if transport.is_closing():
                        return
                # else: a reply no call waits for any more; dropped.
        except ProtocolError:
            # A bad frame costs this connection only.
            transport.close()
            return
        finally:
            del buffer[:start]
        if self._writing_paused or (
                (self._task is not None or len(window) >= WINDOW)
                and len(buffer) > READ_LIMIT):
            transport.pause_reading()

    def _answer(self, message: dict, call_id: typing.Any) -> None:
        op = message.get("op")
        entry = self._ops.get(op) if op.__class__ is str else None
        if call_id is not None and (call_id.__class__ is not int
                                    or call_id < 0):
            # The reply cannot echo an id that is none, so it goes out
            # in order, like a frame without one.
            reply, call_id = {"op": "error", "error": (
                f"bad id {call_id!r}: an id is an integer >= 0")}, None
        elif call_id in self._window:
            reply, call_id = {"op": "error", "error": (
                f"duplicate id {call_id}: a request with it is in "
                f"flight")}, None
        elif entry is None:
            reply = {"op": "error", "error": f"unknown op {op!r}"}
        else:
            read_fields, handler = entry
            try:
                fields = read_fields(message)
            except BAD_FIELD as exc:
                reply = bad_frame_reply(op, exc)
            else:
                reply = handler(*fields)
        if reply.__class__ is dict:
            if call_id is not None:
                reply["id"] = call_id
            self._reply(op, reply)
            return
        task = asyncio.get_running_loop().create_task(
            self._await_reply(op, reply, call_id))
        if call_id is None:
            self._task = task
        else:
            self._window[call_id] = task

    def _reply(self, op: str, reply: dict) -> None:
        self._transport.write(protocol.encode_frame(reply))
        if op == "shutdown":
            self._transport.close()
            self._server._stop_soon()

    async def _await_reply(self, op: str, pending: typing.Awaitable,
                           call_id: int | None) -> None:
        """A waiting handler's task: its reply, written as soon as it is
        ready, then the frames that arrived meanwhile."""
        transport = self._transport
        try:
            reply = await pending
            if call_id is None:
                self._task = None
            else:
                del self._window[call_id]
                reply["id"] = call_id
            if not transport.is_closing():
                self._reply(op, reply)
                self._resume()
        except ProtocolError:
            transport.close()
        except BaseException:
            # Cancelled (the peer is gone, or the loop is closing) or a
            # handler's failure: either way this connection is done.
            transport.close()
            raise

    def _resume(self) -> None:
        """Serve what arrived meanwhile, then read again if it may."""
        self._serve()
        if not self._writing_paused and (
                (self._task is None and len(self._window) < WINDOW)
                or len(self._buffer) <= READ_LIMIT):
            self._transport.resume_reading()


def serve_process(conn, service_cls: type[FrameServer],
                  payload: dict) -> None:  # pragma: no cover - subprocess
    """Process entry point: serve until shutdown, report the port.

    ``conn`` is the parent's :class:`multiprocessing.Pipe` end; the
    bound port is sent through it once the listener is up.
    """

    async def _run() -> None:
        service = service_cls(payload)
        await service.start()
        conn.send(("port", service.port))
        await service.wait_stopped()

    asyncio.run(_run())
