"""Wire protocol for the real execution backend.

Every message is one *frame*: a 4-byte big-endian unsigned length
prefix followed by that many bytes of UTF-8 JSON (an object).  The
prefix covers the JSON body only.  One TCP connection carries any
number of frames in each direction; requests are answered in order on
the carrying connection, so no correlation ids are needed.

Frame vocabulary (the ``op`` field):

========== =========================================================
``recognize``  client -> edge: one recognition request
               (``user``, ``seq``, ``capture_id``, ``object_class``,
               ``viewpoint``, ``input_bytes``).
``result``     edge -> client: the answer (``outcome`` of
               hit/miss/shed, ``label``, ``served_by``; shed replies
               add ``retry_after_s``, the admission stage's drain
               estimate: (waiting + 1) / workers x extraction time).
``resolve``    edge -> cloud: miss escalation (same capture fields).
``resolved``   cloud -> edge: the oracle ``label``.
``stats``      -> edge/cloud: counters probe; answered by ``counters``.
``shutdown``   -> edge/cloud: drain in-flight work, answer ``bye``
               with final counters, close and exit.
``error``      edge/cloud -> sender: the frame named an unknown ``op``
               or lacked a (well-typed) field; ``error`` says which.
               The connection stays usable.
========== =========================================================

Ground truth rides inside the request (``object_class``) exactly as it
does in the simulated :class:`~repro.vision.image.CameraFrame` — the
client scores ``correct`` by comparing the returned label against it,
so accuracy accounting is identical across backends.
"""

from __future__ import annotations

import asyncio
import json
import struct

#: Length-prefix layout: 4-byte big-endian unsigned.
_PREFIX = struct.Struct(">I")

#: Refuse frames past this size (a corrupt prefix must not OOM us).
MAX_FRAME_BYTES = 16 * 1024 * 1024


class ProtocolError(RuntimeError):
    """A malformed or oversized frame on a backend connection."""


def encode_frame(message: dict) -> bytes:
    """Serialize one frame: length prefix + compact JSON body."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(body)} bytes exceeds "
                            f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}")
    return _PREFIX.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    """Parse a frame body; the result must be a JSON object."""
    try:
        message = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors; a
        # body nested past the interpreter's stack is a RecursionError.
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"frame body must be a JSON object, "
                            f"got {type(message).__name__}")
    return message


#: What reading a typed field out of a frame (``int(message["x"])``) can
#: raise: absent, not a number, a string that is not one, JSON Infinity.
BAD_FIELD = (KeyError, TypeError, ValueError, OverflowError)


def bad_frame_reply(op: str, exc: Exception) -> dict:
    """The ``error`` frame answering a :data:`BAD_FIELD` failure."""
    return {"op": "error", "error": f"bad {op} frame: {exc!r}"}


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on a clean EOF at a frame boundary."""
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-prefix") from exc
    (length,) = _PREFIX.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds "
                            f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_body(body)


async def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Write one frame and drain the transport."""
    writer.write(encode_frame(message))
    await writer.drain()


async def call(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
               message: dict) -> dict:
    """One request/response round trip on an ordered connection."""
    await write_frame(writer, message)
    reply = await read_frame(reader)
    if reply is None:
        raise ProtocolError("peer closed before replying")
    return reply
