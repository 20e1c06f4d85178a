"""The connection loop every real-backend service runs.

:class:`FrameServer` owns what an edge and the cloud stub have in
common: the listening socket's lifecycle (``start`` / ``stop`` /
``port`` / ``wait_stopped``), the per-connection loop with its error
contract — an unknown ``op`` or a badly typed field is answered with an
``error`` frame and the connection keeps serving; a malformed frame or a
dropped peer costs that one connection, never the process — and the
``stats`` / ``shutdown`` ops.  A service adds its own ops to
``self.ops``.

Each connection is an :class:`asyncio.Protocol` (:class:`_Connection`):
its read callback cuts the length-prefixed frames out of the bytes that
arrived, dispatches each one and, when the handler answers at once
(a hit, a shed, ``stats``), writes the reply inside that same callback.
A handler that has to wait (a miss's cloud leg, ``shutdown``'s drain, a
cloud shim with a delay) returns a coroutine, which becomes the
connection's one task; the connection answers no further frame until
that reply is written, so replies leave in request order.  Meanwhile it
buffers up to :data:`READ_LIMIT` bytes, then stops reading; it stops
reading, too, while the transport has paused writing, so a peer that
does not read its replies stops being read.  A peer's EOF ends the
connection and cancels the request it was owed a reply for.
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


#: What a connection buffers while it owes a reply before it stops
#: reading (the limit ``asyncio.StreamReader`` keeps by default).  It
#: reads on below it, so a peer that hangs up is seen at once.
READ_LIMIT = 64 * 1024


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
            lambda: _Connection(self), host, port)
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


class _Connection(asyncio.Protocol):
    """One peer's frames, answered in order (see the module docstring)."""

    def __init__(self, server: FrameServer):
        self._server = server
        self._ops = server.ops
        self._buffer = bytearray()
        self._transport: asyncio.Transport | None = None
        #: The task waiting for the reply owed, if one is.
        self._task: asyncio.Task | None = None
        self._writing_paused = False

    # -- transport callbacks -------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve()

    def connection_lost(self, exc: Exception | None) -> None:
        # An EOF ends the connection too (the base class's
        # ``eof_received``): nobody is left to read the reply, so stop
        # waiting for it.
        if self._task is not None:
            self._task.cancel()

    def pause_writing(self) -> None:
        self._writing_paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._writing_paused = False
        self._resume()

    # -- frames --------------------------------------------------------------

    def _serve(self) -> None:
        """Answer the buffer's complete frames in order until one waits
        or writing pauses; stop reading while writing is paused or a
        reply is owed and :data:`READ_LIMIT` bytes are waiting."""
        buffer, transport, start = self._buffer, self._transport, 0
        try:
            while self._task is None and not self._writing_paused:
                if len(buffer) - start < PREFIX_BYTES:
                    break
                end = (start + PREFIX_BYTES
                       + protocol.frame_length(buffer, start))
                if end > len(buffer):
                    break
                body = buffer[start + PREFIX_BYTES:end]
                start = end
                self._answer(protocol.decode_body(body))
                if transport.is_closing():
                    return
        except ProtocolError:
            # A bad frame costs this connection only.
            transport.close()
            return
        finally:
            del buffer[:start]
        if self._writing_paused or (self._task is not None
                                    and len(buffer) > READ_LIMIT):
            transport.pause_reading()

    def _answer(self, message: dict) -> None:
        op = message.get("op")
        entry = self._ops.get(op) if op.__class__ is str else None
        if entry is None:
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
            self._reply(op, reply)
        else:
            self._task = asyncio.get_running_loop().create_task(
                self._await_reply(op, reply))

    def _reply(self, op: str, reply: dict) -> None:
        self._transport.write(protocol.encode_frame(reply))
        if op == "shutdown":
            self._transport.close()
            self._server._stop_soon()

    async def _await_reply(self, op: str, pending: typing.Awaitable) -> None:
        """The connection's task: the owed reply, written as soon as it
        is ready, then the frames that arrived meanwhile."""
        transport = self._transport
        try:
            reply = await pending
            self._task = None
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
        if not self._writing_paused and (self._task is None
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
