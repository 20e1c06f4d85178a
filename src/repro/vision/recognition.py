"""The recognition task: camera frame -> label (+ timing + descriptor).

:class:`Recognizer` binds a network to a device and an embedding space.
It answers the three questions node logic asks:

* how long does a full recognition take here? (``inference_time``)
* how long does descriptor extraction take here? (``extraction_time``)
* what does this frame's descriptor/result look like? (``extract`` /
  ``recognize``)

Ground truth comes from the frame itself, so result correctness can be
checked after a cache hit: a hit that returns a *different* class than the
frame's truth is a false hit caused by an over-permissive threshold, which
the evaluation measures as recognition accuracy.
"""

from __future__ import annotations

import dataclasses

from repro.vision.dnn import ComputeDevice, DnnModel
from repro.vision.features import EmbeddingSpace, Observation
from repro.vision.image import CameraFrame


@dataclasses.dataclass(frozen=True)
class RecognitionResult:
    """Output of one recognition: a label plus annotation metadata.

    Attributes:
        label: Predicted class id.
        confidence: Model confidence in [0, 1].
        annotation_bytes: Size of the AR annotation attached to the label
            (the paper's app renders "high-quality 3D annotations").
    """

    label: int
    confidence: float
    annotation_bytes: int = 2048

    @property
    def size_bytes(self) -> int:
        """Wire size of the serialized result."""
        return 64 + self.annotation_bytes


class Recognizer:
    """A DNN + device + embedding geometry bundle."""

    def __init__(self, network: DnnModel, device: ComputeDevice,
                 space: EmbeddingSpace):
        self.network = network
        self.device = device
        self.space = space
        # Charged on every extraction; summing the backbone once is enough.
        self._extraction_s = network.extraction_time(device)

    # -- timing ----------------------------------------------------------------

    def inference_time(self) -> float:
        """Seconds for a full recognition on this device."""
        return self.network.inference_time(self.device)

    def extraction_time(self) -> float:
        """Seconds to compute the feature descriptor on this device."""
        return self._extraction_s

    def resume_time(self, after_layer: str) -> float:
        """Seconds to finish recognition from a cached layer activation."""
        return self.network.resume_time(self.device, after_layer)

    # -- functional behaviour ----------------------------------------------------

    def extract(self, frame: CameraFrame) -> Observation:
        """Compute the frame's feature descriptor (geometry only).

        The sensor noise is the frame's, not the extractor's: it is keyed
        by ``frame.capture_id`` when that is >= 0, and a negative id
        yields the noise-free observation.  Either way the descriptor is
        a function of the frame alone, so every recognizer sharing this
        embedding space (mobile, edge, cloud) extracts the same bits.
        """
        key = frame.capture_id if frame.capture_id >= 0 else None
        return self.space.observe(frame.object_class, frame.viewpoint,
                                  noise_key=key)

    def recognize(self, frame: CameraFrame) -> RecognitionResult:
        """Full recognition: returns ground truth with high confidence.

        The synthetic model is an oracle — classification errors are out of
        scope (the paper's QoE metric is latency); what *can* go wrong in
        CoIC is returning a stale/mismatched cached result, and that is
        checked against ``frame.object_class`` downstream.
        """
        return RecognitionResult(label=frame.object_class, confidence=0.97)

    @property
    def descriptor_bytes(self) -> int:
        """Wire size of a descriptor produced by this recognizer."""
        return self.network.descriptor_bytes
