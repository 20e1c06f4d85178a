"""Feature descriptors: the cache keys of CoIC.

Section 2 of the paper: "CoIC extracts dedicated property from each
representative IC task as the feature descriptor" — a DNN feature vector
for object recognition (matched under a distance threshold), a content
hash for 3D models and panoramic frames (matched exactly).

Descriptors are small, immutable and serializable-by-size: the
``size_bytes`` property is what crosses the network when a client sends
one to the edge.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing

import numpy as np


class Descriptor:
    """Base class; use :class:`VectorDescriptor` or :class:`HashDescriptor`.

    Attributes:
        kind: Task namespace, e.g. ``"recognition"`` or ``"model_load"``.
            Lookups never match across kinds — a panorama hash colliding
            with a model hash must not return the wrong object.
    """

    kind: str

    @property
    def size_bytes(self) -> int:
        raise NotImplementedError

    @property
    def is_vector(self) -> bool:
        return isinstance(self, VectorDescriptor)


@dataclasses.dataclass(frozen=True)
class VectorDescriptor(Descriptor):
    """A DNN feature vector, matched by distance threshold.

    Attributes:
        kind: Task namespace.
        vector: 1-D float32 feature vector (stored normalized-as-given;
            the metric decides whether normalization matters).
    """

    kind: str
    vector: np.ndarray

    def __post_init__(self) -> None:
        vec = np.asarray(self.vector, dtype=np.float32)
        if vec.ndim != 1:
            raise ValueError(f"vector must be 1-D, got shape {vec.shape}")
        if vec.size == 0:
            raise ValueError("vector must be non-empty")
        if not np.isfinite(vec).all():
            raise ValueError("vector contains non-finite values")
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return int(self.vector.shape[0])

    @property
    def size_bytes(self) -> int:
        """float32 payload + framing (kind tag, dims, request metadata)."""
        return self.dim * 4 + 64

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorDescriptor):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.vector,
                                                          other.vector)

    def __hash__(self) -> int:
        return hash((self.kind, self.vector.tobytes()))

    def __repr__(self) -> str:
        return f"VectorDescriptor({self.kind!r}, dim={self.dim})"


@dataclasses.dataclass(frozen=True)
class HashDescriptor(Descriptor):
    """A content hash, matched exactly.

    Attributes:
        kind: Task namespace.
        digest: Hex digest of the content (any length, typically sha256).
    """

    kind: str
    digest: str

    def __post_init__(self) -> None:
        if not self.digest:
            raise ValueError("digest must be non-empty")
        try:
            int(self.digest, 16)
        except ValueError:
            raise ValueError(
                f"digest must be hexadecimal, got {self.digest[:32]!r}"
            ) from None

    @property
    def size_bytes(self) -> int:
        """Digest bytes + framing."""
        return len(self.digest) // 2 + 64

    def __repr__(self) -> str:
        return f"HashDescriptor({self.kind!r}, {self.digest[:12]}...)"


def hash_descriptor_for(kind: str, data: bytes) -> HashDescriptor:
    """Build the exact-match descriptor for a content blob."""
    return HashDescriptor(kind=kind, digest=hashlib.sha256(data).hexdigest())


def vector_descriptor_for(kind: str,
                          vector: typing.Sequence[float]) -> VectorDescriptor:
    """Build a threshold-match descriptor from any float sequence."""
    return VectorDescriptor(kind=kind,
                            vector=np.asarray(vector, dtype=np.float32))
