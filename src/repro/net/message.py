"""Network message representation.

A :class:`Message` is the unit moved across links.  Only its size affects
timing; the payload rides along untouched, so higher layers can attach any
Python object (a feature descriptor, a recognition result, a 3D model blob).
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

# Monotone ids let traces correlate a message across hops.
_next_id = itertools.count(1)


@dataclasses.dataclass
class Message:
    """A self-describing unit of network traffic.

    Attributes:
        size_bytes: Wire size, including headers; drives serialization time.
        kind: Application tag, e.g. ``"ic_request"`` or ``"ic_result"``.
        payload: Arbitrary application object (not copied, not serialized).
        src: Name of the originating host (filled by the transport).
        dst: Name of the destination host (filled by the transport).
        headers: Free-form metadata (request ids, routing hints).
        msg_id: Unique id assigned at construction.
    """

    size_bytes: int
    kind: str = "data"
    payload: typing.Any = None
    src: str = ""
    dst: str = ""
    headers: dict = dataclasses.field(default_factory=dict)
    msg_id: int = dataclasses.field(default_factory=lambda: next(_next_id))

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {self.size_bytes}")

    @property
    def size_bits(self) -> int:
        """Wire size in bits."""
        return self.size_bytes * 8

    def reply(self, size_bytes: int, kind: str = "reply",
              payload: typing.Any = None) -> "Message":
        """Build a response message addressed back to this message's source."""
        msg = Message(size_bytes=size_bytes, kind=kind, payload=payload,
                      src=self.dst, dst=self.src)
        msg.headers["in_reply_to"] = self.msg_id
        if "rpc_id" in self.headers:
            msg.headers["rpc_id"] = self.headers["rpc_id"]
        return msg

    def __repr__(self) -> str:
        return (f"Message(#{self.msg_id} {self.kind} {self.src}->{self.dst} "
                f"{self.size_bytes}B)")
