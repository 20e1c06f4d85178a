"""A4 — fine-grained DNN-layer caching (paper §4).

Compares the poster's coarse result cache against the §4 proposal of
reusing "the result of a specific DNN layer".  The workload is a probe
observation at an increasing viewpoint distance from a cached reference:

* the coarse cache is all-or-nothing — full saving inside its threshold,
  zero outside;
* the layer cache degrades gracefully — as the input drifts, it reuses
  shallower activations and recomputes only the deeper remainder.

Compute savings are reported as % of full-inference FLOPs avoided on the
edge device.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.core.cache import ICCache
from repro.core.distance import pairwise
from repro.core.layer_cache import LayerCacheManager
from repro.core.sketch import input_sketch
from repro.vision.features import EmbeddingSpace
from repro.vision.model_zoo import EDGE_CPU_2018, vgg16

DEFAULT_DELTAS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)


@dataclasses.dataclass(frozen=True)
class LayerRow:
    """One probe distance."""

    viewpoint_delta: float
    sketch_distance: float
    coarse_saved_pct: float
    layered_saved_pct: float
    reused_layer: str
    layered_compute_ms: float


def run_layer_cache(deltas: typing.Sequence[float] = DEFAULT_DELTAS,
                    coarse_max_delta: float = 1.0, seed: int = 0,
                    repeats: int = 20) -> list[LayerRow]:
    """Probe a layer cache at increasing input distance.

    Args:
        deltas: Viewpoint distances between reference and probe.
        coarse_max_delta: Design point of the coarse cache's threshold
            (it accepts up to this viewpoint distance).
        seed: Geometry seed.
        repeats: Reference/probe pairs averaged per delta.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    network = vgg16()
    space = EmbeddingSpace(dim=128, n_classes=200, seed=seed)
    coarse_threshold = space.suggest_threshold(coarse_max_delta)

    # Calibrate the sketch-space base threshold against the same design
    # point: the sketch distance that viewpoint delta maps to, measured
    # on a sample of classes, with headroom.
    probe_classes = range(0, 40)
    calib = []
    for cls in probe_classes:
        ref = space.observe(cls, 0.0, noise_key=cls * 2)
        far = space.observe(cls, coarse_max_delta, noise_key=cls * 2 + 1)
        calib.append(pairwise("cosine", input_sketch(ref.vector),
                              input_sketch(far.vector)))
    base_threshold = float(np.percentile(calib, 90)) * 1.2

    rows = []
    for delta in deltas:
        cache = ICCache(capacity_bytes=512_000_000)
        manager = LayerCacheManager(network, cache,
                                    base_threshold=base_threshold,
                                    tighten=0.35)
        coarse_saved = []
        layered_saved = []
        layered_ms = []
        reused: dict[str, int] = {}
        for r in range(repeats):
            cls = 50 + r
            ref = space.observe(cls, 0.0, noise_key=1000 + r)
            probe = space.observe(cls, delta, noise_key=2000 + r)
            manager.insert(input_sketch(ref.vector), now=0.0)

            # Coarse cache: full-result descriptor comparison.
            full_distance = pairwise("cosine", ref.vector, probe.vector)
            coarse_saved.append(
                100.0 if full_distance <= coarse_threshold else 0.0)

            plan = manager.plan(input_sketch(probe.vector), now=1.0)
            layered_saved.append(
                100.0 * (1.0 - plan.compute_gflops / network.total_gflops))
            layered_ms.append(
                manager.compute_time(plan, EDGE_CPU_2018) * 1e3)
            layer_name = plan.resume_after or "(none)"
            reused[layer_name] = reused.get(layer_name, 0) + 1

        sketch_d = pairwise(
            "cosine",
            input_sketch(space.observe(60, 0.0, noise_key=1).vector),
            input_sketch(space.observe(60, delta, noise_key=2).vector))
        top_layer = max(reused, key=reused.get)
        rows.append(LayerRow(
            viewpoint_delta=delta, sketch_distance=sketch_d,
            coarse_saved_pct=float(np.mean(coarse_saved)),
            layered_saved_pct=float(np.mean(layered_saved)),
            reused_layer=top_layer,
            layered_compute_ms=float(np.mean(layered_ms))))
    return rows
