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

from repro.backend.server import FrameServer


def cloud_latency_s(shim: dict, input_bytes: int) -> float:
    """Seconds one miss escalation spends 'in the cloud'.

    Mirrors the simulated path: backhaul propagation out and back,
    the frame's serialization time over the backhaul link, and the
    cloud device's inference time (invocation overhead + FLOPs).
    """
    serialize_s = input_bytes * 8.0 / (shim["backhaul_mbps"] * 1e6)
    propagation_s = 2.0 * shim["backhaul_delay_ms"] / 1e3
    return serialize_s + propagation_s + shim["inference_s"]


class CloudService(FrameServer):
    """Asyncio server answering ``resolve`` frames with oracle labels.

    Args:
        shim: Latency model: ``backhaul_mbps``, ``backhaul_delay_ms``,
            ``inference_s`` (cloud-device full-inference seconds).
            An ``inference_s`` of 0 with zero delays disables the shim
            entirely (useful for protocol tests).
    """

    def __init__(self, shim: dict):
        super().__init__()
        self.ops["resolve"] = (self._resolve_fields, self._resolve)
        self.shim = dict(shim)
        self.resolved = 0

    def counters(self) -> dict:
        return {"resolved": self.resolved}

    @staticmethod
    def _resolve_fields(message: dict) -> tuple[int, int]:
        return (int(message["object_class"]),
                int(message.get("input_bytes", 0)))

    def _resolve(self, label: int, input_bytes: int):
        """The ``resolved`` frame: at once with no shim, else after it."""
        delay = cloud_latency_s(self.shim, input_bytes)
        if delay > 0.0:
            return self._resolve_after(label, delay)
        return self._resolved(label)

    async def _resolve_after(self, label: int, delay: float) -> dict:
        await asyncio.sleep(delay)
        return self._resolved(label)

    def _resolved(self, label: int) -> dict:
        self.resolved += 1
        return {"op": "resolved", "label": label}
