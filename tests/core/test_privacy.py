"""Unit tests for repro.core.privacy (paper §4 privacy protection)."""

import numpy as np
import pytest

from repro.core.distance import pairwise
from repro.core.privacy import (
    NoisePrivatizer,
    SketchPrivatizer,
    cosine_leakage,
)
from repro.vision.features import EmbeddingSpace


@pytest.fixture
def space():
    return EmbeddingSpace(dim=128, n_classes=30, seed=2)


class TestLeakageMeasure:
    def test_perfect_reconstruction(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_leakage(v, v) == pytest.approx(1.0)
        assert cosine_leakage(v, -v) == pytest.approx(1.0)  # direction known

    def test_orthogonal_reconstruction(self):
        assert cosine_leakage([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_zero_vectors(self):
        assert cosine_leakage([0, 0], [1, 1]) == 0.0


class TestNoisePrivatizer:
    def test_output_normalized(self, space):
        mech = NoisePrivatizer(128, 0.05, np.random.default_rng(0))
        out = mech.transform(space.observe(1, 0.0).vector)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_more_noise_less_leakage(self, space):
        vec = space.observe(1, 0.0).vector
        leakages = []
        for sigma in (0.01, 0.05, 0.15):
            mech = NoisePrivatizer(128, sigma, np.random.default_rng(1))
            samples = [cosine_leakage(vec, mech.reconstruct(
                mech.transform(vec))) for _ in range(30)]
            leakages.append(np.mean(samples))
        assert leakages[0] > leakages[1] > leakages[2]

    def test_threshold_widening(self):
        mech = NoisePrivatizer(128, 0.05, np.random.default_rng(0))
        assert mech.map_threshold(0.1) == pytest.approx(
            0.1 + 128 * 0.05 ** 2)

    def test_matching_survives_with_mapped_threshold(self, space):
        mech = NoisePrivatizer(128, 0.04, np.random.default_rng(3))
        threshold = space.suggest_threshold(1.0)
        mapped = mech.map_threshold(threshold)
        hits = 0
        for cls in range(30):
            a = mech.transform(space.observe(cls, -0.4).vector)
            b = mech.transform(space.observe(cls, +0.4).vector)
            if pairwise(a, b) <= mapped:
                hits += 1
        assert hits >= 27  # ~all same-class pairs still match

    def test_validation(self):
        with pytest.raises(ValueError):
            NoisePrivatizer(0, 0.1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            NoisePrivatizer(8, -0.1, np.random.default_rng(0))


class TestSketchPrivatizer:
    def test_output_is_scaled_signs(self):
        mech = SketchPrivatizer(dim=128, n_bits=256)
        out = mech.transform(np.ones(128))
        assert out.shape == (256,)
        assert np.allclose(np.abs(out), 1 / np.sqrt(256))

    def test_one_way_deterministic(self, space):
        mech = SketchPrivatizer(dim=128, n_bits=128)
        vec = space.observe(4, 0.2).vector
        assert np.array_equal(mech.transform(vec), mech.transform(vec))

    def test_angle_preserved_statistically(self, space):
        """Sketch cosine distance tracks the hyperplane-collision law."""
        mech = SketchPrivatizer(dim=128, n_bits=2048)
        a = space.observe(3, -0.5).vector
        b = space.observe(3, +0.5).vector
        theta = float(np.arccos(1 - pairwise(a, b)))
        sketch_distance = pairwise(mech.transform(a),
                                   mech.transform(b))
        assert sketch_distance == pytest.approx(2 * theta / np.pi,
                                                abs=0.05)

    def test_matching_survives_with_mapped_threshold(self, space):
        mech = SketchPrivatizer(dim=128, n_bits=512)
        mapped = mech.map_threshold(space.suggest_threshold(1.0))
        hits = cross = 0
        for cls in range(30):
            a = mech.transform(space.observe(cls, -0.4).vector)
            b = mech.transform(space.observe(cls, +0.4).vector)
            c = mech.transform(space.observe((cls + 5) % 30, 0.0).vector)
            hits += pairwise(a, b) <= mapped
            cross += pairwise(a, c) <= mapped
        assert hits >= 27
        assert cross == 0

    def test_fewer_bits_less_leakage(self, space):
        vec = space.observe(1, 0.0).vector
        leakages = []
        for bits in (32, 256, 2048):
            mech = SketchPrivatizer(dim=128, n_bits=bits)
            leakages.append(cosine_leakage(
                vec, mech.reconstruct(mech.transform(vec))))
        assert leakages[0] < leakages[1] < leakages[2]

    def test_dimension_validated(self):
        mech = SketchPrivatizer(dim=64)
        with pytest.raises(ValueError):
            mech.transform(np.ones(128))

    def test_threshold_domain_validated(self):
        mech = SketchPrivatizer(dim=8)
        with pytest.raises(ValueError):
            mech.map_threshold(2.5)
