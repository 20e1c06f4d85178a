"""Zipf popularity sampling.

Content popularity in media and object-recognition workloads is heavy
tailed; the standard model is Zipf: the i-th most popular of N items is
requested with probability proportional to 1/i^alpha.  alpha ~ 0.6-0.8
matches web/video measurements; alpha = 0 degenerates to uniform.
"""

from __future__ import annotations

import numpy as np


class ZipfSampler:
    """Samples item indices 0..n_items-1 with Zipf(alpha) popularity.

    Item 0 is the most popular.  Unlike ``numpy.random.zipf`` (unbounded
    support, alpha > 1 only), this is the bounded variant used in caching
    studies, valid for any alpha >= 0.
    """

    def __init__(self, n_items: int, alpha: float,
                 rng: np.random.Generator):
        if n_items < 1:
            raise ValueError("n_items must be >= 1")
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.n_items = n_items
        self.alpha = alpha
        self._rng = rng
        ranks = np.arange(1, n_items + 1, dtype=np.float64)
        weights = ranks ** -alpha
        self._cdf = np.cumsum(weights / weights.sum())

    def sample(self) -> int:
        """Draw one item index."""
        return int(np.searchsorted(self._cdf, self._rng.random(),
                                   side="right"))
