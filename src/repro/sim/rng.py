"""Named, independent random-number streams.

Every stochastic component in the reproduction (link jitter, workload
popularity, viewpoint noise, ...) draws from its own named stream so that
changing one component's consumption pattern never perturbs another's —
a standard variance-reduction discipline for simulation studies, and the
backbone of this repo's determinism guarantee.
"""

from __future__ import annotations

import numpy as np


class RngStreams:
    """A factory of independent :class:`numpy.random.Generator` streams.

    Streams are derived from a root seed and a stream name via
    ``numpy.random.SeedSequence.spawn``-style keying, so:

    * the same (seed, name) pair always yields the same sequence, and
    * distinct names yield statistically independent sequences.

    Example::

        rng = RngStreams(seed=42)
        jitter = rng.stream("net.jitter")
        popularity = rng.stream("workload.zipf")
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.seed = int(seed)
        # The seed split as SeedSequence splits an int: little-endian
        # 32-bit words, one word for 0.
        words = [self.seed & 0xFFFFFFFF]
        rest = self.seed >> 32
        while rest:
            words.append(rest & 0xFFFFFFFF)
            rest >>= 32
        self._seed_words = np.array(words, dtype=np.uint32)
        self._streams: dict[str, np.random.Generator] = {}
        # Names handed out by ``take``: their generators are not kept,
        # so asking for one again must fail rather than restart it.
        self._taken: set[str] = set()

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            gen = self._streams[name] = self._build(name)
        return gen

    def take(self, name: str) -> np.random.Generator:
        """The generator for ``name``, handed over rather than kept.

        Draws exactly what ``stream(name)`` would, but the factory keeps
        no reference, so a stream read once (a mobility itinerary) is
        freed with its reader.  A name can be taken once, and not
        if ``stream`` built it already: either way a second reader
        would replay the stream from its start.
        """
        if name in self._streams:
            raise ValueError(f"stream {name!r} is already built")
        gen = self._build(name)
        self._taken.add(name)
        return gen

    def _build(self, name: str) -> np.random.Generator:
        if not name:
            raise ValueError("stream name must be non-empty")
        if name in self._taken:
            raise ValueError(f"stream {name!r} was taken already")
        # Key the child sequence on the UTF-8 bytes of the name so the
        # mapping is stable across runs and python versions.  The words
        # of ``[seed, *name_bytes]`` go in as one uint32 array: the
        # entropy numpy makes of that list, which it would convert word
        # by word.
        entropy = np.concatenate((
            self._seed_words,
            np.frombuffer(name.encode("utf-8"), dtype=np.uint8)))
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy)))

    def deferred(self, name: str) -> "DeferredStream":
        """A handle on ``stream(name)`` that builds the stream on first use.

        A stream depends only on ``(seed, name)``, so drawing through the
        handle is bit-identical to drawing from ``stream(name)``; a
        component that may never draw (an unimpaired link) skips the
        build altogether.
        """
        if not name:
            raise ValueError("stream name must be non-empty")
        return DeferredStream(self, name)

    def fork(self, salt: int) -> "RngStreams":
        """A new factory whose streams are independent of this one's.

        Useful for replicated experiment runs: ``rng.fork(run_index)``.
        """
        return RngStreams(seed=hash((self.seed, int(salt))) & 0x7FFFFFFF)

    def __repr__(self) -> str:
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"


class DeferredStream:
    """A named stream of an :class:`RngStreams`, resolved on first draw.

    Stands in for the :class:`numpy.random.Generator`: any generator
    method (``random``, ``normal``, ...) resolves ``stream(name)`` and is
    then bound on the handle, so later draws call it directly.
    """

    def __init__(self, streams: RngStreams, name: str):
        self._streams = streams
        self.name = name

    def __getattr__(self, attr: str):
        # Private and dunder probes (deepcopy's ``__deepcopy__``, pickle's
        # ``__setstate__``) must see the handle, not build the stream.
        if attr.startswith("_"):
            raise AttributeError(attr)
        value = getattr(self._streams.stream(self.name), attr)
        setattr(self, attr, value)
        return value

    def __repr__(self) -> str:
        return f"DeferredStream({self.name!r})"
