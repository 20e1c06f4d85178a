"""The cloud node: executes complete IC tasks.

The cloud is where work lands when the edge cache cannot help (and where
the Origin baseline sends everything).  It hosts the full recognition
DNN on a GPU, the 3D model store, and the panorama render farm, with a
bounded worker pool so load shows up as queueing delay.
"""

from __future__ import annotations

import collections
import typing

from repro.core.tasks import (
    ModelLoadResult,
    ModelLoadTask,
    PanoramaResult,
    PanoramaTask,
    RecognitionTask,
)
from repro.net.transport import RpcError
from repro.sim.kernel import Environment
from repro.sim.resources import Resource

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import CoICConfig
    from repro.net.message import Message
    from repro.net.topology import Host
    from repro.net.transport import Rpc
    from repro.vision.recognition import Recognizer

#: Cloud object-store streaming rate for model files.
STORAGE_MB_PER_S = 200.0


class CloudNode:
    """Serves complete IC tasks out of a worker pool.

    Args:
        env: Simulation environment.
        rpc: Transport endpoint.
        host: The cloud's network host.
        recognizer: Full-DNN recognizer bound to the cloud device.
        config: Deployment configuration (VR render cost, storage).
        workers: Parallel task slots (GPU streams / service replicas).
    """

    def __init__(self, env: Environment, rpc: "Rpc", host: "Host",
                 recognizer: "Recognizer", config: "CoICConfig",
                 workers: int = 8):
        self.env = env
        self.rpc = rpc
        self.host = host
        self.recognizer = recognizer
        self.config = config
        self.compute = Resource(env, capacity=workers)
        #: ``requests_served`` and ``responses_dropped``.
        self.counts: collections.Counter = collections.Counter()
        env.process(self._serve())

    def _serve(self):
        """Accept loop: one handler process per request."""
        while True:
            msg = yield self.rpc.serve(self.host)
            self.env.process(self._handle(msg))

    def _handle(self, msg: "Message"):
        task = msg.payload
        slot = self.compute.request()
        yield slot
        try:
            if isinstance(task, RecognitionTask):
                result, size = yield from self._do_recognition(task)
            elif isinstance(task, ModelLoadTask):
                result, size = yield from self._do_model_load(task)
            elif isinstance(task, PanoramaTask):
                result, size = yield from self._do_panorama(task)
            else:
                raise TypeError(f"cloud cannot serve {task!r}")
        finally:
            self.compute.release(slot)
        self.counts["requests_served"] += 1
        try:
            yield from self.rpc.respond(msg, size_bytes=size, payload=result,
                                        kind="ic_result")
        except RpcError:
            # The asking edge is cut off: its call times out over there.
            self.counts["responses_dropped"] += 1

    def _do_recognition(self, task: RecognitionTask):
        """Full DNN inference on the uploaded frame."""
        yield self.recognizer.inference_time()
        result = self.recognizer.recognize(task.frame)
        return result, result.size_bytes

    def _do_model_load(self, task: ModelLoadTask):
        """Read the packed model from the object store."""
        read_s = (self.config.rendering.storage_read_ms / 1e3
                  + task.file_bytes / (STORAGE_MB_PER_S * 1e6))
        yield read_s
        result = ModelLoadResult(digest=task.digest,
                                 payload_bytes=task.file_bytes, parsed=False)
        return result, result.size_bytes

    def _do_panorama(self, task: PanoramaTask):
        """Render the panoramic frame for the requested pose cell."""
        yield self.config.vr.render_ms / 1e3
        pano = task.panorama
        result = PanoramaResult(digest=pano.digest(),
                                payload_bytes=pano.size_bytes)
        return result, result.size_bytes
