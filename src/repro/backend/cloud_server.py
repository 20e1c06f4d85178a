"""The latency-shimmed cloud stub for the real backend.

The simulated cloud's job is "always right, but far away": it runs the
full recognition network and the backhaul makes that expensive.  The
real backend keeps the *interface* (an edge escalates a miss, the
cloud answers the oracle label) and shims the *cost*: each ``resolve``
sleeps the same seconds the simulation would charge — propagation both
ways, serialization of the frame bytes over the backhaul, and cloud
GPU inference — then replies instantly.  Wall clock through the shim
therefore mirrors simulated cloud latency without needing a GPU or a
WAN in the test environment.
"""

from __future__ import annotations

import asyncio

from repro.backend.protocol import (
    BAD_FIELD,
    ProtocolError,
    bad_frame_reply,
    read_frame,
    write_frame,
)


def cloud_latency_s(shim: dict, input_bytes: int) -> float:
    """Seconds one miss escalation spends 'in the cloud'.

    Mirrors the simulated path: backhaul propagation out and back,
    the frame's serialization time over the backhaul link, and the
    cloud device's inference time (invocation overhead + FLOPs).
    """
    serialize_s = input_bytes * 8.0 / (shim["backhaul_mbps"] * 1e6)
    propagation_s = 2.0 * shim["backhaul_delay_ms"] / 1e3
    return serialize_s + propagation_s + shim["inference_s"]


class CloudService:
    """Asyncio server answering ``resolve`` frames with oracle labels.

    Args:
        shim: Latency model: ``backhaul_mbps``, ``backhaul_delay_ms``,
            ``inference_s`` (cloud-device full-inference seconds).
            An ``inference_s`` of 0 with zero delays disables the shim
            entirely (useful for protocol tests).
    """

    def __init__(self, shim: dict):
        self.shim = dict(shim)
        self.resolved = 0
        self._server: asyncio.AbstractServer | None = None
        self._stopping = asyncio.Event()

    @property
    def port(self) -> int:
        assert self._server is not None, "serve() not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start accepting; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port)
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopping.set()

    async def wait_stopped(self) -> None:
        await self._stopping.wait()

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                message = await read_frame(reader)
                if message is None:
                    break
                op = message.get("op")
                if op == "resolve":
                    try:
                        label = int(message["object_class"])
                        input_bytes = int(message.get("input_bytes", 0))
                    except BAD_FIELD as exc:
                        await write_frame(writer, bad_frame_reply(op, exc))
                        continue
                    await asyncio.sleep(cloud_latency_s(self.shim,
                                                        input_bytes))
                    self.resolved += 1
                    await write_frame(writer, {"op": "resolved",
                                               "label": label})
                elif op == "stats":
                    await write_frame(writer, {"op": "counters",
                                               "resolved": self.resolved})
                elif op == "shutdown":
                    await write_frame(writer, {"op": "bye",
                                               "resolved": self.resolved})
                    await self.stop()
                    break
                else:
                    await write_frame(writer, {"op": "error",
                                               "error": f"unknown op {op!r}"})
        except (ProtocolError, ConnectionError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels handler tasks parked in
            # read_frame(); exit quietly — the transport is closing.
            pass
        finally:
            writer.close()


def cloud_main(conn, payload: dict) -> None:  # pragma: no cover - subprocess
    """Process entry point: serve until shutdown, report the port.

    ``conn`` is the parent's :class:`multiprocessing.Pipe` end; the
    bound port is sent through it once the listener is up.
    """

    async def _run() -> None:
        service = CloudService(payload["shim"])
        await service.start()
        conn.send(("port", service.port))
        await service.wait_stopped()

    asyncio.run(_run())
