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

# -- a frame's noise seed, constant-folded ---------------------------------------
#
# A frame's sensor noise is numpy's ``PCG64(SeedSequence([0x5EED,
# object_class, key]))`` stream.  Building that object costs more than
# drawing from it, so for a class and key in [0, 2**32) -- one entropy
# word each -- :func:`_noise_seed` computes the ``(state, inc)`` the
# PCG64 would start from, and :meth:`EmbeddingSpace.observe` sets it on
# one reused bit generator.  What follows is numpy's ``SeedSequence``
# (pool size 4; ``mix_entropy`` then ``generate_state(4, uint64)``) and
# PCG64's ``srandom``, with every step that reads only the constant word
# ``0x5EED`` or the zero padding word folded into a constant below.
# ``tests/property/test_noise_seed_properties.py`` pins it to numpy.

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, n: int) -> list[int]:
    """The ``n + 1`` successive hash constants ``init * mult**i mod 2**32``."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return out


# ``mix_entropy`` makes 16 ``hashmix`` calls; call i xors with A[i] and
# multiplies by A[i + 1].  ``generate_state``'s word i likewise uses B[i],
# B[i + 1].
_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(value: int, call: int) -> int:
    value = (value ^ _A[call]) * _A[call + 1] & _M32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


# Pool word 0 hashes 0x5EED and word 3 the zero padding; the first
# mixing round (source word 0) then folds into word 3 and into two terms
# words 1 and 2 subtract.
_POOL0 = _hashmix(0x5EED, 0)
_POOL3 = _mix(_hashmix(0, 3), _hashmix(_POOL0, 6))
_L_POOL0, _L_POOL3 = _MIX_L * _POOL0, _MIX_L * _POOL3
_R_H4, _R_H5 = _MIX_R * _hashmix(_POOL0, 4), _MIX_R * _hashmix(_POOL0, 5)
(_A1, _A2, _A3, _A7, _A8, _A9, _A10, _A11, _A12, _A13, _A14, _A15,
 _A16) = _A[1:4] + _A[7:]
(_B0, _B1, _B2, _B3, _B4, _B5, _B6, _B7, _B8) = _B


def _noise_seed(object_class: int, key: int) -> tuple[int, int]:
    """``(state, inc)`` of ``PCG64(SeedSequence([0x5EED, object_class,
    key]))`` for ``object_class`` and ``key`` in [0, 2**32)."""
    # Class word: pool word 1, its first round, and what source word 1
    # mixes into words 0 and 3 (and, via ``h8``, into word 2).
    v = (object_class ^ _A1) * _A2 & _M32
    v = (_MIX_L * (v ^ v >> 16) - _R_H4) & _M32
    p1 = v ^ v >> 16
    v = (p1 ^ _A7) * _A8 & _M32
    v = (_L_POOL0 - _MIX_R * (v ^ v >> 16)) & _M32
    p0 = v ^ v >> 16
    v = (p1 ^ _A8) * _A9 & _M32
    h8 = v ^ v >> 16
    v = (p1 ^ _A9) * _A10 & _M32
    v = (_L_POOL3 - _MIX_R * (v ^ v >> 16)) & _M32
    p3 = v ^ v >> 16
    # Key word: pool word 2 through rounds 0 and 1, then source words 2
    # and 3 into the other three.
    v = (key ^ _A2) * _A3 & _M32
    v = (_MIX_L * (v ^ v >> 16) - _R_H5) & _M32
    v = (_MIX_L * (v ^ v >> 16) - _MIX_R * h8) & _M32
    p2 = v ^ v >> 16
    v = (p2 ^ _A10) * _A11 & _M32
    v = (_MIX_L * p0 - _MIX_R * (v ^ v >> 16)) & _M32
    p0 = v ^ v >> 16
    v = (p2 ^ _A11) * _A12 & _M32
    v = (_MIX_L * p1 - _MIX_R * (v ^ v >> 16)) & _M32
    p1 = v ^ v >> 16
    v = (p2 ^ _A12) * _A13 & _M32
    v = (_MIX_L * p3 - _MIX_R * (v ^ v >> 16)) & _M32
    p3 = v ^ v >> 16
    v = (p3 ^ _A13) * _A14 & _M32
    v = (_MIX_L * p0 - _MIX_R * (v ^ v >> 16)) & _M32
    p0 = v ^ v >> 16
    v = (p3 ^ _A14) * _A15 & _M32
    v = (_MIX_L * p1 - _MIX_R * (v ^ v >> 16)) & _M32
    p1 = v ^ v >> 16
    v = (p3 ^ _A15) * _A16 & _M32
    v = (_MIX_L * p2 - _MIX_R * (v ^ v >> 16)) & _M32
    p2 = v ^ v >> 16
    # ``generate_state(8)``: eight words cycling over the pool, read as
    # four little-endian uint64s (seed high, seed low, seq high, seq low).
    w0 = (p0 ^ _B0) * _B1 & _M32
    w1 = (p1 ^ _B1) * _B2 & _M32
    w2 = (p2 ^ _B2) * _B3 & _M32
    w3 = (p3 ^ _B3) * _B4 & _M32
    w4 = (p0 ^ _B4) * _B5 & _M32
    w5 = (p1 ^ _B5) * _B6 & _M32
    w6 = (p2 ^ _B6) * _B7 & _M32
    w7 = (p3 ^ _B7) * _B8 & _M32
    seed = ((w2 ^ w2 >> 16) | (w3 ^ w3 >> 16) << 32
            | (w0 ^ w0 >> 16) << 64 | (w1 ^ w1 >> 16) << 96)
    # PCG64 srandom: inc = 2 seq + 1, state = ((inc + seed) M + inc).
    inc = ((w6 ^ w6 >> 16) << 1 | (w7 ^ w7 >> 16) << 33
           | (w4 ^ w4 >> 16) << 65 | (w5 ^ w5 >> 16) << 97 & _M128 | 1)
    return ((inc + seed) * _PCG64_MULT + inc) & _M128, inc


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
        # The one bit generator keyed noise is drawn from; ``observe``
        # sets its state per frame (see :func:`_noise_seed`), so one
        # space must not observe from two threads at once.
        self._noise_bits = np.random.PCG64(0)
        self._noise = np.random.Generator(self._noise_bits)

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

        Keyed noise is the first ``dim`` normals of numpy's
        ``Generator(PCG64(SeedSequence([0x5EED, object_class,
        noise_key])))``.  For a class and key in [0, 2**32) the
        generator's starting state is computed by :func:`_noise_seed`
        and set on one reused generator instead of built;
        ``tests/property/test_noise_seed_properties.py`` pins both the
        state and the observation to that reference.  A larger key
        builds the ``SeedSequence``; a negative one raises
        ``ValueError``.
        """
        self._check_class(object_class)
        angle = viewpoint * self.viewpoint_scale
        vec = (np.cos(angle) * self._anchors[object_class]
               + np.sin(angle) * self._drift[object_class])
        if self.noise_sigma > 0:
            if noise_key is not None:
                key, cls = int(noise_key), int(object_class)
                if key >> 32 == 0 and cls >> 32 == 0:
                    noise_rng = self._noise
                    state, inc = _noise_seed(cls, key)
                    self._noise_bits.state = {
                        "bit_generator": "PCG64",
                        "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
                else:
                    noise_rng = np.random.Generator(np.random.PCG64(
                        np.random.SeedSequence([0x5EED, cls, key])))
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
