"""Vision substrate: synthetic camera frames, DNN compute model, features.

The paper's AR pipeline recognizes objects with a real DNN; this package
replaces it with a faithful *timing and geometry* model:

* :mod:`~repro.vision.image` — synthetic camera frames whose byte size
  follows resolution/quality, the quantity that drives network transfer.
* :mod:`~repro.vision.dnn` — a DNN as a stack of layers with FLOP counts;
  inference time = FLOPs / device effective throughput + fixed overhead.
* :mod:`~repro.vision.model_zoo` — calibrated 2018-era devices (Pixel-class
  SoC, edge Xeon, cloud GPU) and networks (MobileNetV2-, VGG16-class).
* :mod:`~repro.vision.features` — an embedding space where observations of
  the same object from different viewpoints land close together, so the
  similarity-threshold matching of CoIC's cache behaves like the real one.
* :mod:`~repro.vision.recognition` — the recognition task: frame -> label,
  composed from the above.
"""

from repro.vision.dnn import ComputeDevice, DnnModel, Layer
from repro.vision.features import EmbeddingSpace, Observation
from repro.vision.image import CameraFrame, Resolution, RESOLUTIONS
from repro.vision.model_zoo import (
    CLOUD_GPU_2018,
    EDGE_CPU_2018,
    MOBILE_SOC_2018,
    mobilenet_v2,
    vgg16,
)
from repro.vision.recognition import RecognitionResult, Recognizer

__all__ = [
    "CLOUD_GPU_2018",
    "CameraFrame",
    "EmbeddingSpace",
    "MOBILE_SOC_2018",
    "Recognizer",
    "vgg16",
]
