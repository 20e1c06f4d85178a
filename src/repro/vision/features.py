"""Embedding space: what descriptors look like geometrically.

CoIC matches a new recognition request against cached ones by comparing
DNN feature vectors under a distance threshold.  For that mechanism to be
exercised realistically the synthetic embeddings must preserve the
properties of real ones:

* two observations of the *same* object from nearby viewpoints are close,
* observations of *different* objects are far apart,
* viewpoint changes move the embedding smoothly (the paper's stop-sign
  example: "the same stop sign from a different angle").

:class:`EmbeddingSpace` achieves this with a deterministic unit "anchor"
per object class plus a smooth viewpoint curve and per-observation sensor
noise, all on the unit hypersphere where cosine distance is the natural
metric.
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class Observation:
    """A feature vector extracted from one camera frame."""

    vector: np.ndarray
    object_class: int
    viewpoint: float

    def __post_init__(self) -> None:
        if self.vector.ndim != 1:
            raise ValueError("observation vector must be 1-D")


class EmbeddingSpace:
    """Deterministic synthetic embedding geometry.

    Args:
        dim: Embedding dimension (128 matches compact retrieval heads).
        n_classes: Number of distinct object classes in the world.
        viewpoint_scale: How far (radians along a great circle) the
            embedding travels per unit of viewpoint change.  Controls how
            aggressive the cache's similarity threshold must be.
        noise_sigma: Per-observation sensor/crop noise.
        seed: Seed for the anchor construction (class geometry).
    """

    def __init__(self, dim: int = 128, n_classes: int = 1000,
                 viewpoint_scale: float = 0.10, noise_sigma: float = 0.02,
                 seed: int = 0):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        if n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if viewpoint_scale < 0 or noise_sigma < 0:
            raise ValueError("scales must be >= 0")
        self.dim = dim
        self.n_classes = n_classes
        self.viewpoint_scale = viewpoint_scale
        self.noise_sigma = noise_sigma
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            [seed, dim, n_classes])))
        # Class anchors: random unit vectors.  In high dimension they are
        # nearly orthogonal, like real class prototypes.
        anchors = rng.normal(size=(n_classes, dim))
        self._anchors = anchors / np.linalg.norm(anchors, axis=1, keepdims=True)
        # A per-class orthogonal "viewpoint direction" along which the
        # embedding slides as the camera moves.
        drift = rng.normal(size=(n_classes, dim))
        drift -= (np.sum(drift * self._anchors, axis=1, keepdims=True)
                  * self._anchors)
        self._drift = drift / np.linalg.norm(drift, axis=1, keepdims=True)

    def anchor(self, object_class: int) -> np.ndarray:
        """The canonical (zero-viewpoint, noise-free) embedding of a class."""
        self._check_class(object_class)
        return self._anchors[object_class].copy()

    def observe(self, object_class: int, viewpoint: float = 0.0,
                rng: np.random.Generator | None = None,
                noise_key: int | None = None) -> Observation:
        """Embed one observation of ``object_class`` from ``viewpoint``.

        The embedding rotates from the anchor toward the class's viewpoint
        direction by ``viewpoint * viewpoint_scale`` radians, then receives
        Gaussian sensor noise, then is re-normalized.

        Sensor noise belongs to the *capture*, not the extractor: pass a
        ``noise_key`` (e.g. a frame's capture id) to make the noise a
        deterministic function of the frame, so a client and an edge
        extracting features from the same image agree bit-for-bit.  An
        explicit ``rng`` draws fresh noise instead; with neither, the
        observation is noise-free.
        """
        self._check_class(object_class)
        angle = viewpoint * self.viewpoint_scale
        vec = (np.cos(angle) * self._anchors[object_class]
               + np.sin(angle) * self._drift[object_class])
        if self.noise_sigma > 0:
            if noise_key is not None:
                noise_rng = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence([0x5EED, object_class,
                                            int(noise_key)])))
                vec = vec + noise_rng.normal(0.0, self.noise_sigma,
                                             size=self.dim)
            elif rng is not None:
                vec = vec + rng.normal(0.0, self.noise_sigma, size=self.dim)
        # ``np.linalg.norm`` of a 1-D vector, without its dispatch.
        vec = vec / np.sqrt(vec.dot(vec))
        return Observation(vector=vec, object_class=object_class,
                           viewpoint=viewpoint)

    def _check_class(self, object_class: int) -> None:
        if not 0 <= object_class < self.n_classes:
            raise ValueError(
                f"object_class {object_class} outside [0, {self.n_classes})")

    # -- calibration helpers ---------------------------------------------------

    def same_class_distance(self, viewpoint_delta: float) -> float:
        """Expected cosine distance between two noise-free observations of
        one class whose viewpoints differ by ``viewpoint_delta``."""
        angle = viewpoint_delta * self.viewpoint_scale
        return 1.0 - float(np.cos(angle))

    def suggest_threshold(self, max_viewpoint_delta: float,
                          safety: float = 2.0) -> float:
        """A cosine-distance threshold that accepts same-class observations
        up to ``max_viewpoint_delta`` apart (with noise headroom) while
        staying far below the cross-class distance (~1.0)."""
        base = self.same_class_distance(max_viewpoint_delta)
        # Isotropic noise of per-axis sigma adds ~ dim * sigma^2 / 2 of
        # expected cosine distance per observation (norm of the noise is
        # sigma * sqrt(dim)); two observations double it.
        noise = self.dim * self.noise_sigma ** 2
        threshold = safety * (base + noise)
        return float(min(threshold, 0.5))
