"""Unit tests for repro.workload.zipf."""

import numpy as np
import pytest

from repro.workload.zipf import ZipfSampler


def zipf_pmf(n_items: int, alpha: float) -> np.ndarray:
    """The bounded Zipf law, most popular item first."""
    weights = np.arange(1, n_items + 1, dtype=np.float64) ** -alpha
    return weights / weights.sum()


def frequencies(sampler: ZipfSampler, n_draws: int) -> np.ndarray:
    draws = [sampler.sample() for _ in range(n_draws)]
    return np.bincount(draws, minlength=sampler.n_items) / n_draws


class TestZipfSampler:
    def test_alpha_zero_uniform(self):
        sampler = ZipfSampler(10, 0.0, np.random.default_rng(0))
        assert np.allclose(frequencies(sampler, 20_000), 0.1, atol=0.01)

    def test_samples_in_range(self):
        sampler = ZipfSampler(20, 0.8, np.random.default_rng(1))
        draws = [sampler.sample() for _ in range(1000)]
        assert min(draws) >= 0 and max(draws) < 20

    def test_empirical_matches_pmf(self):
        sampler = ZipfSampler(10, 1.0, np.random.default_rng(2))
        assert np.allclose(frequencies(sampler, 50_000), zipf_pmf(10, 1.0),
                           atol=0.01)

    @pytest.mark.parametrize("alpha", [0.5, 0.8, 1.5, 2.0])
    def test_empirical_matches_pmf_at_other_skews(self, alpha):
        sampler = ZipfSampler(10, alpha, np.random.default_rng(4))
        assert np.allclose(frequencies(sampler, 50_000),
                           zipf_pmf(10, alpha), atol=0.01)

    def test_higher_alpha_more_skew(self):
        flat = ZipfSampler(100, 0.2, np.random.default_rng(3))
        skewed = ZipfSampler(100, 1.5, np.random.default_rng(3))
        assert frequencies(skewed, 5000)[0] > frequencies(flat, 5000)[0]

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, rng)
        with pytest.raises(ValueError):
            ZipfSampler(10, -0.5, rng)
