"""The connection loop every real-backend service runs.

:class:`FrameServer` owns what an edge and the cloud stub have in
common: the listening socket's lifecycle (``start`` / ``stop`` /
``port`` / ``wait_stopped``), the per-connection loop (read a frame,
dispatch its ``op``, write the reply frame) with its error contract —
an unknown ``op`` or a badly typed field is answered with an ``error``
frame and the connection keeps serving; a malformed frame or a dropped
peer costs that one connection, never the process — and the ``stats``
/ ``shutdown`` ops.  A service adds its own ops to ``self.ops``.
"""

from __future__ import annotations

import asyncio
import typing

from repro.backend.protocol import (
    BAD_FIELD,
    ProtocolError,
    bad_frame_reply,
    read_frame,
    write_frame,
)


def _no_fields(message: dict) -> tuple:
    return ()


class FrameServer:
    """Asyncio socket server dispatching frames through an op table."""

    def __init__(self) -> None:
        #: ``op -> (read_fields, handler)``: ``read_fields(message)``
        #: pulls the typed fields out of the frame (a
        #: :data:`~repro.backend.protocol.BAD_FIELD` it raises is
        #: answered with ``bad_frame_reply``) and ``await
        #: handler(*fields)`` returns the reply frame.
        self.ops: dict[str, tuple[typing.Callable, typing.Callable]] = {
            "stats": (_no_fields, self._stats),
            "shutdown": (_no_fields, self._shutdown),
        }
        self._server: asyncio.AbstractServer | None = None
        self._stopping = asyncio.Event()

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, "start() not called"
        return self._server.sockets[0].getsockname()[1]

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start accepting; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port)
        return self.port

    async def stop(self) -> None:
        """Stop accepting and release ``wait_stopped`` waiters."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopping.set()

    async def wait_stopped(self) -> None:
        await self._stopping.wait()

    def counters(self) -> dict:
        """What ``stats`` and ``bye`` frames report."""
        raise NotImplementedError

    # -- serving -------------------------------------------------------------

    async def _stats(self) -> dict:
        return {"op": "counters", **self.counters()}

    async def _shutdown(self) -> dict:
        return {"op": "bye", **self.counters()}

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                message = await read_frame(reader)
                if message is None:
                    break
                op = message.get("op")
                entry = self.ops.get(op) if isinstance(op, str) else None
                if entry is None:
                    await write_frame(writer, {"op": "error",
                                               "error": f"unknown op {op!r}"})
                    continue
                read_fields, handler = entry
                try:
                    fields = read_fields(message)
                except BAD_FIELD as exc:
                    reply = bad_frame_reply(op, exc)
                else:
                    reply = await handler(*fields)
                await write_frame(writer, reply)
                if op == "shutdown":
                    await self.stop()
                    break
        except (ProtocolError, ConnectionError, asyncio.CancelledError):
            # A bad frame or a dropped peer costs this connection only.
            # Loop teardown cancels handler tasks parked in read_frame();
            # completing quietly instead of propagating keeps shutdown
            # silent (the transport is closing anyway).
            pass
        finally:
            writer.close()


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
