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

import ctypes
import dataclasses
import math
import typing

import numpy as np

#: Rows of each half of the geometry stream between two PCG64 positions
#: a space keeps: deriving a class draws at most this many rows per
#: half.  2 builds about as fast as whole tables did; 1 builds ~1.4x as
#: long, and 4 derives ~20 % slower.
_GROUP_ROWS = 2
#: Rows the build reduces, and a run of classes is derived, at a time
#: (128 KiB per array at ``dim=128``): their transient memory is a few
#: blocks.
_BLOCK_ROWS = 128
#: Classes whose rows a space keeps: a world this small is built into
#: them and never derives.
_MEMO_CLASSES = 1024

# -- a frame's noise seed, constant-folded ---------------------------------------
#
# A frame's sensor noise is numpy's ``PCG64(SeedSequence([0x5EED,
# object_class, key]))`` stream.  Building that object costs more than
# drawing from it, so for a class and key in [0, 2**32) -- one entropy
# word each -- :func:`_noise_seed` computes the ``(state, inc)`` the
# PCG64 would start from, and :meth:`EmbeddingSpace.observe` sets it on
# one reused bit generator.  Its class half (:func:`_class_seed`) is
# kept beside the class's memo slot, so an observation runs only the key
# half (:func:`_key_seed`).  What follows is numpy's ``SeedSequence``
# (pool size 4; ``mix_entropy`` then ``generate_state(4, uint64)``) and
# PCG64's ``srandom``, with every step that reads only the constant word
# ``0x5EED`` or the zero padding word folded into a constant below.
# ``tests/property/test_noise_seed_properties.py`` pins it to numpy.

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
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
    return _key_seed(_class_seed(object_class), key)


def _class_seed(object_class: int) -> tuple[int, int, int, int]:
    """The half of :func:`_noise_seed` that reads only the class word:
    ``(p0, p1, h8, p3)`` for :func:`_key_seed`."""
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
    return p0, p1, h8, v ^ v >> 16


def _key_seed(class_seed: tuple[int, int, int, int],
              key: int) -> tuple[int, int]:
    """:func:`_noise_seed`'s ``(state, inc)`` from the class half
    :func:`_class_seed` returned and the key."""
    p0, p1, h8, p3 = class_seed
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


def _state_words(bits: np.random.PCG64
                 ) -> tuple[np.ndarray, slice | list[int]]:
    """``(words, order)``: the live ``(state, inc)`` of ``bits`` as a
    writable view of four uint64 words, where numpy's C code keeps them,
    and the index that puts ``(state low, state high, inc low, inc
    high)`` in their places.

    Copying the words out and back, or writing them through ``order``,
    moves the generator without building the ``state`` property's dicts
    and 128-bit ints.  The view keeps ``bits`` alive.
    """
    address = ctypes.c_void_p.from_address(bits.ctypes.state_address).value
    buffer = (ctypes.c_uint64 * 4).from_address(address)
    buffer.owner = bits
    words = np.ctypeslib.as_array(buffer)
    state = bits.state["state"]
    value = [state["state"] & _M64, state["state"] >> 64,
             state["inc"] & _M64, state["inc"] >> 64]
    # A 128-bit integer type keeps the low word first; numpy's emulated
    # one is a ``{high, low}`` struct.
    for order in (slice(None), [1, 0, 3, 2]):
        if words[order].tolist() == value:
            return words, order
    raise RuntimeError("numpy's PCG64 keeps its state in an unknown layout")


def _orthonormal(drift: np.ndarray, anchors: np.ndarray,
                 out: np.ndarray) -> None:
    """Write ``drift``'s rows made orthogonal to ``anchors``' and of unit
    norm into ``out``, each row on its own (``drift`` is overwritten).

    A per-class "viewpoint direction" along which the embedding slides
    as the camera moves.
    """
    drift -= np.add.reduce(drift * anchors, axis=1, keepdims=True) * anchors
    np.divide(drift, np.sqrt(np.add.reduce(drift * drift, axis=1,
                                           keepdims=True)), out=out)


def _unit(vec: np.ndarray) -> np.ndarray:
    """``vec / np.linalg.norm(vec)`` of a 1-D ``vec``, without its dispatch."""
    return vec / math.sqrt(vec.dot(vec))


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

    ``dim``, ``n_classes`` and both scales are checked: a non-finite or
    negative scale raises ``ValueError`` rather than silently turning
    the noise off or every observation into NaN.

    Memory: a space holds no whole anchor or drift table.  The geometry
    is one stream, ``PCG64(SeedSequence([seed, dim, n_classes]))``:
    every class's anchor row, then every class's drift row.  The build
    draws it and keeps the PCG64 position at the start of every
    ``_GROUP_ROWS``-th row of each half, and each anchor's norm (1.9 MiB
    at 50 000 classes, where whole tables took 98 MiB at ``dim=128``).
    A class's rows are re-drawn from its group's position when asked
    for, bit for bit what the tables held, into a memo of
    ``_MEMO_CLASSES`` slots (2 MiB at ``dim=128``).  A world that fits
    is built straight into the memo and never derives again.
    """

    def __init__(self, dim: int = 128, n_classes: int = 1000,
                 viewpoint_scale: float = 0.10, noise_sigma: float = 0.02,
                 seed: int = 0):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        if n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if not (math.isfinite(viewpoint_scale) and math.isfinite(noise_sigma)
                and viewpoint_scale >= 0 and noise_sigma >= 0):
            raise ValueError("scales must be finite and >= 0")
        self.dim = dim
        self.n_classes = n_classes
        self.viewpoint_scale = viewpoint_scale
        self.noise_sigma = noise_sigma
        # The one bit generator geometry is derived and keyed noise drawn
        # from; each use sets its state first, so one space must not
        # observe from two threads at once.
        self._bits = np.random.PCG64(np.random.SeedSequence(
            [seed, dim, n_classes]))
        self._rng = np.random.Generator(self._bits)
        self._words, self._word_order = _state_words(self._bits)
        # Anchor group g starts at ``_starts[g]``, drift group g at
        # ``_starts[_n_groups + g]``.  Normals draw whole 64-bit words,
        # so ``has_uint32`` stays 0 and the four words are the position.
        self._n_groups = -(-n_classes // _GROUP_ROWS)
        self._starts = np.empty((2 * self._n_groups, 4), np.uint64)
        self._norm = np.empty((n_classes, 1))
        # The memo: class c's rows live in row ``c % _slots`` of two small
        # tables until another class takes the slot (eviction is one
        # overwrite).  A world that fits is built in them, a larger one
        # in a block that is thrown away.
        self._slots = min(n_classes, _MEMO_CLASSES)
        self._anchors = np.empty((self._slots, dim))
        self._drift = np.empty((self._slots, dim))
        fits = n_classes <= _MEMO_CLASSES
        self._slot_class = (list(range(n_classes)) if fits
                            else [-1] * self._slots)
        # Beside each slot's class, the class half of its noise seed.
        self._slot_seed = ([_class_seed(c) for c in range(n_classes)]
                           if fits else [None] * self._slots)
        block = np.empty((_BLOCK_ROWS, dim))
        for lo in range(0, n_classes, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n_classes)
            anchors = self._anchors[lo:hi] if fits else block[:hi - lo]
            self._draw_groups(lo, anchors, 0)
            # Class anchors: random unit vectors.  In high dimension they
            # are nearly orthogonal, like real class prototypes.
            norm = self._norm[lo:hi]
            np.add.reduce(anchors * anchors, axis=1, keepdims=True, out=norm)
            anchors /= np.sqrt(norm, out=norm)
        for lo in range(0, n_classes, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n_classes)
            drift = self._drift[lo:hi] if fits else block[:hi - lo]
            self._draw_groups(lo, drift, self._n_groups)
            if fits:
                _orthonormal(drift, self._anchors[lo:hi], out=drift)

    def __reduce__(self):
        # ``_words`` views ``_bits``'s C struct: a copy's view would not
        # move the copy's generator.
        raise TypeError("an EmbeddingSpace cannot be copied or pickled; "
                        "build another from the same arguments")

    def _draw_groups(self, lo: int, out: np.ndarray, first: int) -> None:
        """Draw ``out``'s rows, the half's rows from ``lo`` on, as
        ``normal()`` draws them, a group at a time, keeping each group's
        start at ``_starts[first + group]``."""
        for row in range(0, len(out), _GROUP_ROWS):
            self._starts[first + (lo + row) // _GROUP_ROWS] = self._words
            self._rng.standard_normal(out=out[row:row + _GROUP_ROWS])
        # ``normal()`` is ``0.0 + 1.0 * z`` of the same draws: the sum
        # turns a -0.0 into 0.0.
        out += 0.0

    def _derive(self, lo: int, hi: int, anchors: np.ndarray,
                drift: np.ndarray) -> None:
        """Write the rows of classes ``[lo, hi)`` into ``anchors`` and
        ``drift``.

        Each half is re-drawn from its group's position and reduced with
        the build's operations on the build's operands, so any range gets
        the bits the whole tables held.
        """
        group, skip = divmod(lo, _GROUP_ROWS)
        size = (hi - lo + skip, self.dim)
        self._words[:] = self._starts[group]
        np.divide(self._rng.normal(size=size)[skip:], self._norm[lo:hi],
                  out=anchors)
        self._words[:] = self._starts[self._n_groups + group]
        _orthonormal(self._rng.normal(size=size)[skip:], anchors, out=drift)

    def _slot(self, object_class: int) -> int:
        """The memo slot holding the class's rows, filled if need be."""
        self._check_class(object_class)
        slot = object_class % self._slots
        if self._slot_class[slot] != object_class:
            self._derive(object_class, object_class + 1,
                         self._anchors[slot:slot + 1],
                         self._drift[slot:slot + 1])
            self._slot_class[slot] = object_class
            self._slot_seed[slot] = _class_seed(object_class)
        return slot

    def _rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """``(anchors, drift)`` of classes ``[lo, hi)``: the memo's rows in a
        world that fits, else fresh arrays that pass the memo by."""
        if self.n_classes <= _MEMO_CLASSES:
            return self._anchors[lo:hi], self._drift[lo:hi]
        anchors = np.empty((hi - lo, self.dim))
        drift = np.empty((hi - lo, self.dim))
        self._derive(lo, hi, anchors, drift)
        return anchors, drift

    def _pose(self, anchors: np.ndarray, drift: np.ndarray,
              viewpoint: float) -> np.ndarray:
        """Rows rotated from their anchor toward their drift by
        ``viewpoint * viewpoint_scale`` radians (element-wise, so a block
        gets each row's bits)."""
        angle = viewpoint * self.viewpoint_scale
        return np.cos(angle) * anchors + np.sin(angle) * drift

    def anchor(self, object_class: int) -> np.ndarray:
        """The canonical (zero-viewpoint, noise-free) embedding of a class."""
        return self._anchors[self._slot(object_class)].copy()

    def observe(self, object_class: int, viewpoint: float = 0.0,
                noise_key: int | None = None) -> Observation:
        """Embed one observation of ``object_class`` from ``viewpoint``.

        The embedding rotates from the anchor toward the class's viewpoint
        direction by ``viewpoint * viewpoint_scale`` radians, then receives
        Gaussian sensor noise, then is re-normalized.

        Sensor noise belongs to the *capture*, not the extractor: pass a
        ``noise_key`` (e.g. a frame's capture id) to make the noise a
        deterministic function of the frame, so a client and an edge
        extracting features from the same image agree bit-for-bit.
        Without one the observation is noise-free.

        Keyed noise is the first ``dim`` normals of numpy's
        ``Generator(PCG64(SeedSequence([0x5EED, object_class,
        noise_key])))``.  For a class and key in [0, 2**32) the
        generator's starting state is computed from the class half
        of :func:`_noise_seed` the memo keeps beside the class's slot
        and the key, and set on one reused generator instead of built;
        ``tests/property/test_noise_seed_properties.py`` pins both the
        state and the observation to that reference.  A larger key
        builds the ``SeedSequence``; a negative one raises
        ``ValueError``.
        """
        slot = self._slot(object_class)
        vec = self._pose(self._anchors[slot], self._drift[slot], viewpoint)
        if self.noise_sigma > 0 and noise_key is not None:
            key, cls = int(noise_key), int(object_class)
            if key >> 32 == 0 and cls >> 32 == 0:
                noise_rng = self._rng
                state, inc = _key_seed(self._slot_seed[slot], key)
                self._words[self._word_order] = (
                    state & _M64, state >> 64, inc & _M64, inc >> 64)
            else:
                noise_rng = np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence([0x5EED, cls, key])))
            vec = vec + noise_rng.normal(0.0, self.noise_sigma, size=self.dim)
        return Observation(vector=_unit(vec), object_class=object_class,
                           viewpoint=viewpoint)

    def prototypes(self, classes: typing.Iterable[int]
                   ) -> typing.Iterator[np.ndarray]:
        """``observe(c).vector`` for each class ``c`` of ``classes``, in order.

        Warm-ups list classes in runs such as ``range(n)``: each run of
        consecutive classes is taken ``_BLOCK_ROWS`` rows at a time, not
        a class at a time, and leaves the memo as it was.
        """
        lo = hi = None
        for cls in classes:
            self._check_class(cls)
            if cls != hi or hi - lo == _BLOCK_ROWS:
                if lo is not None:
                    yield from map(_unit, self._pose(*self._rows(lo, hi), 0.0))
                lo = cls
            hi = cls + 1
        if lo is not None:
            yield from map(_unit, self._pose(*self._rows(lo, hi), 0.0))

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
        staying far below the cross-class distance (~1.0).

        Raises ``ValueError`` on a non-finite ``max_viewpoint_delta`` or
        ``safety``: a NaN threshold would miss every lookup.
        """
        if not (math.isfinite(max_viewpoint_delta)
                and math.isfinite(safety)):
            raise ValueError("max_viewpoint_delta and safety must be finite")
        base = self.same_class_distance(max_viewpoint_delta)
        # Isotropic noise of per-axis sigma adds ~ dim * sigma^2 / 2 of
        # expected cosine distance per observation (norm of the noise is
        # sigma * sqrt(dim)); two observations double it.
        noise = self.dim * self.noise_sigma ** 2
        threshold = safety * (base + noise)
        return float(min(threshold, 0.5))
