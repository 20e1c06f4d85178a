"""Input sketches and affinity sketches: cheap summaries of content.

:func:`input_sketch` folds a full observation vector down to the
:data:`SKETCH_DIM`-dimensional space the layer cache keys on and the
affinity balancer hashes in.

For cache-affinity peer offload the edges need to answer "how likely is
*that* neighbour to hit this request?" without shipping whole caches
around.  :class:`AffinitySketch` is the compact, incrementally
maintained structure that makes this possible: every vector inserted
into (or dropped from) an :class:`~repro.core.cache.ICCache` is folded
down to the shared sketch space and hashed to a
:data:`SKETCH_BITS`-bit random-hyperplane signature; the sketch keeps a
multiset of live signatures.  ``summary()`` snapshots that multiset
into a :class:`SketchSummary` — a few hundred bytes — which edges gossip
to their backhaul neighbours; ``SketchSummary.expected_hit`` then
estimates hit probability as the fraction of a peer's entries within a
small Hamming radius of the query signature.  The hyperplanes are a
deterministic function of ``(seed, dim, bits)``, so every edge (and
every client-side sketch) agrees on bucket boundaries without any
coordination.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

#: Cheap input descriptor: dimension and client-side extraction cost.  A
#: perceptual hash / color-layout sketch, not a DNN backbone pass (the
#: layer cache and the affinity balancer share this space).
SKETCH_DIM = 32
SKETCH_COST_S = 0.004
#: Signature width of the affinity sketch.  10 bits / 1024 buckets keeps
#: same-content observations within Hamming radius 2 of each other ~96%
#: of the time while unrelated content lands that close < 5% of the time
#: (measured on the synthetic embedding geometry).
SKETCH_BITS = 10
#: Hamming radius ``SketchSummary.expected_hit`` integrates over.
SKETCH_RADIUS = 2
_SKETCH_SEED = 29


def input_sketch(vector: np.ndarray, dim: int = SKETCH_DIM) -> np.ndarray:
    """Project a full observation vector to the cheap input sketch.

    Deterministic fixed projection (averaging blocks of coordinates), so
    any two extractors agree; normalized for cosine matching.
    """
    full = np.asarray(vector, dtype=np.float64)
    if full.ndim != 1 or full.size < dim:
        raise ValueError(f"need a 1-D vector of at least {dim} elements")
    usable = (full.size // dim) * dim
    sketch = full[:usable].reshape(dim, -1).mean(axis=1)
    norm = np.linalg.norm(sketch)
    if norm == 0:
        raise ValueError("degenerate all-zero sketch")
    return sketch / norm


def _sketch_space(vector: np.ndarray) -> np.ndarray:
    """Fold any 1-D vector into the shared sketch space (never raises).

    Vectors already in sketch space pass through; longer ones are
    block-averaged like :func:`input_sketch` (normalization is skipped —
    hyperplane signs are scale-invariant); shorter ones are zero-padded.
    """
    vec = np.asarray(vector, dtype=np.float64).ravel()
    if vec.size == SKETCH_DIM:
        return vec
    if vec.size < SKETCH_DIM:
        padded = np.zeros(SKETCH_DIM, dtype=np.float64)
        padded[:vec.size] = vec
        return padded
    usable = (vec.size // SKETCH_DIM) * SKETCH_DIM
    return vec[:usable].reshape(SKETCH_DIM, -1).mean(axis=1)


@dataclasses.dataclass(frozen=True)
class SketchSummary:
    """A gossipable snapshot of one kind's :class:`AffinitySketch`.

    Attributes:
        n: Live entries behind the snapshot.
        counts: Signature -> live-entry count (only non-zero buckets).
        n_bits: Signature width the counts were taken under.
    """

    n: int
    counts: dict[int, int]
    n_bits: int = SKETCH_BITS

    @property
    def size_bytes(self) -> int:
        """Wire size: header plus (signature, count) pairs."""
        return 16 + 12 * len(self.counts)

    def expected_hit(self, signature: int,
                     radius: int = SKETCH_RADIUS) -> float:
        """Fraction of entries within ``radius`` bit flips of ``signature``.

        The affinity balancer's hit-probability estimate: content whose
        sketch lands in (or next to) a populated bucket is likely to
        match a cached descriptor under the recognition threshold.
        Cost grows as C(n_bits, radius) bucket probes — fine for the
        default radius, deliberate for anything larger.
        """
        if self.n <= 0:
            return 0.0
        mass = 0
        for r in range(min(radius, self.n_bits) + 1):
            for bits in itertools.combinations(range(self.n_bits), r):
                flipped = signature
                for b in bits:
                    flipped ^= (1 << b)
                mass += self.counts.get(flipped, 0)
        return min(1.0, mass / self.n)


class AffinitySketch:
    """Incrementally maintained signature multiset of one vector kind.

    Folds every vector through :func:`_sketch_space` and a fixed set of
    :data:`SKETCH_BITS` random hyperplanes (deterministic from the
    module seed, so all parties agree), keeping a count of live entries
    per signature.  ``add``/``remove`` are O(dim), ``discard`` (remove
    by the signature ``add`` returned) O(1); ``summary()`` snapshots the
    multiset for gossip.
    """

    def __init__(self, n_bits: int = SKETCH_BITS):
        if not 1 <= n_bits <= 62:
            raise ValueError("n_bits must be in [1, 62]")
        self.n_bits = n_bits
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            [_SKETCH_SEED, SKETCH_DIM, n_bits])))
        self._planes = rng.normal(size=(n_bits, SKETCH_DIM))
        self._weights = (1 << np.arange(n_bits - 1, -1, -1, dtype=np.int64))
        self._counts: dict[int, int] = {}
        self.n = 0

    def signature(self, vector: np.ndarray) -> int:
        """The bucket key of ``vector`` (any 1-D float vector)."""
        bits = (self._planes @ _sketch_space(vector)) > 0
        return int(bits @ self._weights)

    def add(self, vector: np.ndarray) -> int:
        """Count ``vector`` in; returns its signature for :meth:`discard`."""
        sig = self.signature(vector)
        self._counts[sig] = self._counts.get(sig, 0) + 1
        self.n += 1
        return sig

    def remove(self, vector: np.ndarray) -> None:
        self.discard(self.signature(vector))

    def discard(self, sig: int) -> None:
        """Count out one vector by the signature :meth:`add` returned."""
        left = self._counts.get(sig, 0) - 1
        if left > 0:
            self._counts[sig] = left
        else:
            self._counts.pop(sig, None)
        self.n = max(0, self.n - 1)

    def summary(self) -> SketchSummary:
        """A frozen snapshot for gossip (counts are copied)."""
        return SketchSummary(n=self.n, counts=dict(self._counts),
                             n_bits=self.n_bits)

    def __len__(self) -> int:
        return self.n
