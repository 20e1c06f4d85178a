"""Wire protocol for the real execution backend.

Every message is one *frame*: a 4-byte big-endian unsigned length
prefix followed by that many bytes of UTF-8 JSON (an object).  The
prefix covers the JSON body only.  One TCP connection carries any
number of frames in each direction; requests are answered in order on
the carrying connection, so no correlation ids are needed.

Frame vocabulary (the ``op`` field):

============== =====================================================
``recognize``  client -> edge: one recognition request — the capture
               (``user``, ``seq``, ``capture_id`` and ``object_class``
               as integers, ``capture_id`` >= 0, a numeric
               ``viewpoint``), ``input_bytes`` (an integer: what the
               cloud leg relays) and, optionally, a ``descriptor`` or
               ``sketch`` (lists of numbers) and ``has_input`` /
               ``force_forward`` (booleans).  A frame without a
               ``descriptor`` carries its input.
``result``     edge -> client: the answer (``outcome`` of
               hit/miss/partial/shed, ``label``, ``served_by``; a shed
               has no ``label`` but a ``retry_after_s``, the admission
               stage's drain estimate).
``need_input`` edge -> client: a descriptor-only request missed; send
               it again with its input and ``force_forward``.
``resolve``    edge -> cloud: miss escalation (same capture fields).
``resolved``   cloud -> edge: the oracle ``label``.
``stats``      -> edge/cloud: counters probe; answered by ``counters``.
``shutdown``   -> edge/cloud: drain in-flight work, answer ``bye``
               with final counters, close and exit.
``error``      edge/cloud -> sender: the frame named an unknown ``op``
               or lacked a (well-typed, in-range) field, or the request
               failed; ``error`` says which.  The connection stays
               usable.
============== =====================================================

Ground truth rides inside the request (``object_class``) exactly as it
does in the simulated :class:`~repro.vision.image.CameraFrame` — the
client scores ``correct`` by comparing the returned label against it,
so accuracy accounting is identical across backends.  The codec below
is the one map between the simulator's messages and these frames.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import struct

import numpy as np

from repro.core.descriptors import VectorDescriptor
from repro.core.metrics import OUTCOME_SHED
from repro.core.sketch import SKETCH_DIM
from repro.core.tasks import KIND_RECOGNITION, RecognitionTask
from repro.net.message import Message
from repro.vision.image import CameraFrame
from repro.vision.recognition import RecognitionResult

#: Length-prefix layout: 4-byte big-endian unsigned.
_PREFIX = struct.Struct(">I")
PREFIX_BYTES = _PREFIX.size

#: Refuse frames past this size (a corrupt prefix must not OOM us).
MAX_FRAME_BYTES = 16 * 1024 * 1024


#: The one compact JSON encoder every frame goes through (``json.dumps``
#: with these separators builds a new one per call).
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class ProtocolError(RuntimeError):
    """A malformed or oversized frame on a backend connection."""


def encode_frame(message: dict) -> bytes:
    """Serialize one frame: length prefix + compact JSON body."""
    body = _ENCODER.encode(message).encode("utf-8")
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


def frame_length(data, offset: int = 0) -> int:
    """The body length the prefix at ``data[offset:]`` announces; a
    :class:`ProtocolError` past :data:`MAX_FRAME_BYTES`, before any of
    the body is read."""
    (length,) = _PREFIX.unpack_from(data, offset)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds "
                            f"MAX_FRAME_BYTES={MAX_FRAME_BYTES}")
    return length


# -- the client side's stream helpers (the server cuts frames itself, in
# ``repro.backend.server``) ---------------------------------------------------


async def read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on a clean EOF at a frame boundary."""
    try:
        prefix = await reader.readexactly(PREFIX_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-prefix") from exc
    length = frame_length(prefix)
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


# -- the Message <-> frame codec: ic_request <-> recognize; ic_result /
# shed / need_input / error <-> result / need_input / error -------------------

#: What a relayed input is wrapped in: the simulated edge forwards a
#: frame to the cloud as its bytes plus these.
ENVELOPE_BYTES = 64

#: A vector entry past float32 range is as bad as a non-finite one.
_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclasses.dataclass(frozen=True)
class _Upload(RecognitionTask):
    """A recognition task sized by its frame's ``input_bytes``, which the
    cloud leg relays as given.  A :class:`CameraFrame` derives its size
    from a resolution and quality a hand-written frame need not carry —
    and a frame that says 0 must relay 0."""

    upload_bytes: int = 0

    @property
    def input_bytes(self) -> int:
        return self.upload_bytes


def encode_request(msg: Message) -> dict:
    """A recognition ``ic_request`` as its ``recognize`` frame."""
    task, headers = msg.payload, msg.headers
    capture, has_input = task.frame, headers.get("has_input", False)
    frame = {"op": "recognize", "user": capture.user, "seq": capture.seq,
             "capture_id": capture.capture_id,
             "object_class": capture.object_class,
             "viewpoint": capture.viewpoint,
             "input_bytes": (ENVELOPE_BYTES + task.input_bytes
                             if has_input else 0)}
    if headers.get("descriptor") is not None:
        frame["descriptor"] = headers["descriptor"].vector.tolist()
        frame["has_input"] = has_input
    if "sketch" in headers:
        frame["sketch"] = headers["sketch"].tolist()
    if headers.get("force_forward"):
        frame["force_forward"] = True
    return frame


def _vector(value, dim: int, name: str) -> np.ndarray:
    vector = np.asarray(value)
    if (vector.dtype.kind not in "fi" or vector.shape != (dim,)
            or not (np.abs(vector) <= _FLOAT32_MAX).all()):
        raise ValueError(f"{name} is not a list of {dim} finite numbers")
    return vector


def decode_request(frame: dict, n_classes: int, dim: int) -> Message:
    """A ``recognize`` frame as the ``ic_request`` an edge with
    ``n_classes`` classes and ``dim``-d descriptors serves; a missing,
    ill-typed or out-of-range field raises one of :data:`BAD_FIELD`.

    Fields are checked, never coerced: ``object_class``, ``capture_id``
    and ``input_bytes`` are JSON integers (not booleans), ``viewpoint``
    a JSON number."""
    object_class, capture_id = frame["object_class"], frame["capture_id"]
    input_bytes = frame.get("input_bytes", 0)
    viewpoint = frame.get("viewpoint", 0.0)
    if not (object_class.__class__ is int and capture_id.__class__ is int
            and input_bytes.__class__ is int):
        raise TypeError(f"object_class, capture_id and input_bytes are "
                        f"integers, got {object_class!r}, {capture_id!r}, "
                        f"{input_bytes!r}")
    if (not isinstance(viewpoint, (int, float))
            or viewpoint.__class__ is bool):
        raise TypeError(f"viewpoint {viewpoint!r} is not a number")
    viewpoint = float(viewpoint)
    if capture_id < 0:
        # The wire carries captures, and every capture has an id >= 0;
        # a negative id only marks a noise-free frame built in-process.
        raise ValueError(f"capture_id {capture_id} is negative")
    if not 0 <= object_class < n_classes:
        raise ValueError(f"object_class {object_class} outside "
                         f"[0, {n_classes})")
    if not math.isfinite(viewpoint):
        raise ValueError(f"viewpoint {viewpoint} is not finite")
    if not 0 <= input_bytes <= MAX_FRAME_BYTES:
        raise ValueError(f"input_bytes {input_bytes} outside "
                         f"[0, {MAX_FRAME_BYTES}]")
    descriptor = frame.get("descriptor")
    has_input = frame.get("has_input", descriptor is None)
    force_forward = frame.get("force_forward", False)
    if has_input.__class__ is not bool or force_forward.__class__ is not bool:
        raise TypeError("has_input and force_forward are booleans")
    headers = {"has_input": has_input}
    if descriptor is not None:
        headers["descriptor"] = VectorDescriptor(
            kind=KIND_RECOGNITION,
            vector=_vector(descriptor, dim, "descriptor"))
    elif not has_input:
        raise ValueError("a frame without a descriptor carries its input")
    if frame.get("sketch") is not None:
        headers["sketch"] = _vector(frame["sketch"], SKETCH_DIM,
                                    "sketch").astype(np.float64)
    if force_forward:
        headers["force_forward"] = True
    task = _Upload(CameraFrame(object_class=object_class,
                               viewpoint=viewpoint, capture_id=capture_id),
                   upload_bytes=input_bytes)
    return Message(size_bytes=input_bytes, kind="ic_request", payload=task,
                   headers=headers)


def encode_reply(kind: str, payload, headers: dict) -> dict:
    """An edge's tagged reply (``ic_result`` / ``shed`` / ``need_input``
    / ``error``) as its frame."""
    if kind == "ic_result":
        return {"op": "result", **headers, "label": int(payload.label)}
    if kind == "error":
        return {"op": "error", **headers, "error": str(payload)}
    return {"op": "need_input" if kind == "need_input" else "result",
            **headers}


def decode_reply(frame: dict) -> Message:
    """A reply frame as the response a client reads; one that is no
    reply raises one of :data:`BAD_FIELD`.  The wire carries a label
    alone, and every label on this backend is the cloud oracle's (or a
    warm-up prototype's), at the oracle's confidence."""
    headers = dict(frame)
    kind, payload = headers.pop("op", None), None
    if kind == "error":
        payload = str(headers.pop("error", ""))
    elif kind == "result" and headers.get("outcome") == OUTCOME_SHED:
        kind = "shed"
    elif kind == "result":
        kind = "ic_result"
        payload = RecognitionResult(label=int(headers.pop("label")),
                                    confidence=0.97)
    elif kind != "need_input":
        raise ValueError(f"unexpected reply op {kind!r}")
    return Message(size_bytes=0, kind=kind, payload=payload, headers=headers)
