"""A frame server's connection driven without a socket.

:class:`Echo` is a :class:`~repro.backend.server.FrameServer` with one
op answered at once (``echo``) and one that waits for its release
(``wait``).  :class:`FakeTransport` records what the connection writes
and whether it reads; :func:`connect` makes a connection over one, so a
test can feed it bytes in any chunks and read the reply frames back.
"""

import asyncio

from repro.backend.protocol import PREFIX_BYTES, decode_body, frame_length
from repro.backend.server import FrameServer, _Connection


class Echo(FrameServer):
    """``echo`` answers ``{"op": "echoed", "frame": <the request>}`` at
    once; ``wait`` answers ``{"op": "waited", "n": n}`` once
    :attr:`release` is set."""

    def __init__(self) -> None:
        super().__init__()
        self.ops["echo"] = (lambda frame: (frame,), self._echo)
        self.ops["wait"] = (lambda frame: (frame["n"],), self._wait)
        self.release = asyncio.Event()

    def counters(self) -> dict:
        return {}

    @staticmethod
    def _echo(frame: dict) -> dict:
        return {"op": "echoed", "frame": frame}

    async def _wait(self, n: int) -> dict:
        await self.release.wait()
        return {"op": "waited", "n": n}


class FakeTransport(asyncio.Transport):
    """Collects written bytes; tracks reading and closing."""

    def __init__(self) -> None:
        super().__init__()
        self.written = bytearray()
        self.reading = True
        self.closed = False

    def write(self, data) -> None:
        assert not self.closed, "write after close"
        self.written += data

    def close(self) -> None:
        self.closed = True

    def is_closing(self) -> bool:
        return self.closed

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True

    def replies(self) -> list[dict]:
        """The frames written so far, decoded."""
        frames, start = [], 0
        while start < len(self.written):
            end = start + PREFIX_BYTES + frame_length(self.written, start)
            frames.append(decode_body(self.written[start + PREFIX_BYTES:end]))
            start = end
        return frames


def connect(server: FrameServer) -> tuple[_Connection, FakeTransport]:
    """A connection of ``server`` over a fresh :class:`FakeTransport`."""
    connection, transport = _Connection(server), FakeTransport()
    connection.connection_made(transport)
    return connection, transport
