"""Unit tests for repro.vision.features (embedding geometry)."""

import numpy as np
import pytest

from repro.core.distance import pairwise
from repro.vision.features import EmbeddingSpace


@pytest.fixture
def space():
    return EmbeddingSpace(dim=128, n_classes=50, seed=3)


class TestGeometry:
    def test_observations_are_unit_vectors(self, space):
        obs = space.observe(5, viewpoint=0.7, noise_key=0)
        assert np.linalg.norm(obs.vector) == pytest.approx(1.0)

    def test_same_class_closer_than_cross_class(self, space):
        a = space.observe(3, 0.0, noise_key=1).vector
        b = space.observe(3, 1.0, noise_key=2).vector
        c = space.observe(4, 0.0, noise_key=3).vector
        assert pairwise(a, b) < pairwise(a, c)

    def test_distance_grows_with_viewpoint_delta(self, space):
        base = space.observe(7, 0.0).vector
        distances = [pairwise(base,
                              space.observe(7, d).vector)
                     for d in (0.5, 1.0, 2.0, 4.0)]
        assert distances == sorted(distances)

    def test_noise_free_observation_is_deterministic(self, space):
        a = space.observe(2, 0.3).vector
        b = space.observe(2, 0.3).vector
        assert np.array_equal(a, b)

    def test_noise_key_is_deterministic_across_extractors(self, space):
        """Client and edge extracting the same capture must agree."""
        a = space.observe(2, 0.3, noise_key=99).vector
        b = space.observe(2, 0.3, noise_key=99).vector
        assert np.array_equal(a, b)

    def test_different_noise_keys_differ(self, space):
        a = space.observe(2, 0.3, noise_key=1).vector
        b = space.observe(2, 0.3, noise_key=2).vector
        assert not np.array_equal(a, b)

    def test_same_class_distance_formula(self, space):
        base = space.observe(9, 0.0).vector
        other = space.observe(9, 2.0).vector
        predicted = space.same_class_distance(2.0)
        assert pairwise(base, other) == pytest.approx(
            predicted, abs=1e-9)

    def test_class_bounds_checked(self, space):
        with pytest.raises(ValueError):
            space.observe(50)
        with pytest.raises(ValueError):
            space.anchor(-1)


class TestThresholdSuggestion:
    def test_threshold_separates_same_from_cross(self, space):
        threshold = space.suggest_threshold(max_viewpoint_delta=1.0)
        same, cross = [], []
        for cls in range(20):
            a = space.observe(cls, -0.5, noise_key=3 * cls).vector
            b = space.observe(cls, +0.5, noise_key=3 * cls + 1).vector
            c = space.observe((cls + 7) % 50, 0.0,
                              noise_key=3 * cls + 2).vector
            same.append(pairwise(a, b))
            cross.append(pairwise(a, c))
        assert max(same) < threshold < min(cross)

    def test_threshold_grows_with_tolerance(self, space):
        assert (space.suggest_threshold(0.5)
                <= space.suggest_threshold(2.0))

    def test_threshold_capped(self, space):
        assert space.suggest_threshold(100.0) <= 0.5


class TestValidation:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            EmbeddingSpace(dim=1)
        with pytest.raises(ValueError):
            EmbeddingSpace(n_classes=0)
        with pytest.raises(ValueError):
            EmbeddingSpace(viewpoint_scale=-1)

    @pytest.mark.parametrize("kwargs", [
        {"noise_sigma": float("nan")},  # nan > 0 is False: noise off
        {"noise_sigma": float("inf")},
        {"viewpoint_scale": float("nan")},
        {"viewpoint_scale": float("inf")},  # every observation NaN
    ])
    def test_non_finite_scales_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EmbeddingSpace(n_classes=2, **kwargs)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_threshold_tolerance_rejected(self, space, delta):
        # min(nan, 0.5) is nan, and d <= nan misses every lookup.
        with pytest.raises(ValueError):
            space.suggest_threshold(delta)
        with pytest.raises(ValueError):
            space.suggest_threshold(1.0, safety=delta)

    def test_determinism_across_instances(self):
        a = EmbeddingSpace(dim=64, n_classes=10, seed=1).anchor(3)
        b = EmbeddingSpace(dim=64, n_classes=10, seed=1).anchor(3)
        assert np.array_equal(a, b)

    def test_different_seeds_different_anchors(self):
        a = EmbeddingSpace(dim=64, n_classes=10, seed=1).anchor(3)
        b = EmbeddingSpace(dim=64, n_classes=10, seed=2).anchor(3)
        assert not np.array_equal(a, b)
