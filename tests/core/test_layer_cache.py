"""Unit tests for repro.core.layer_cache (paper §4 fine-grained reuse)."""

import numpy as np
import pytest

from repro.core.cache import ICCache
from repro.core.layer_cache import LayerCacheManager, LayerReusePlan
from repro.core.sketch import SKETCH_DIM, input_sketch
from repro.vision.features import EmbeddingSpace
from repro.vision.model_zoo import EDGE_CPU_2018, vgg16


@pytest.fixture
def network():
    return vgg16()


@pytest.fixture
def manager(network):
    cache = ICCache(capacity_bytes=512_000_000)
    return LayerCacheManager(network, cache, base_threshold=0.05,
                             tighten=0.4)


@pytest.fixture
def space():
    return EmbeddingSpace(dim=128, n_classes=20, seed=0)


class TestSketch:
    def test_sketch_shape_and_norm(self, space):
        sketch = input_sketch(space.observe(1, 0.0).vector)
        assert sketch.shape == (SKETCH_DIM,)
        assert np.linalg.norm(sketch) == pytest.approx(1.0)

    def test_deterministic(self, space):
        vec = space.observe(2, 0.1, noise_key=7).vector
        assert np.array_equal(input_sketch(vec), input_sketch(vec))

    def test_too_small_vector_rejected(self):
        with pytest.raises(ValueError):
            input_sketch(np.ones(8))


class TestThresholds:
    def test_deeper_layers_tighter(self, manager):
        taps = manager.tap_layers
        thresholds = [manager.threshold_for(name) for name in taps]
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))
        assert thresholds[0] == pytest.approx(0.05)
        assert thresholds[-1] == pytest.approx(0.05 * 0.4)

    def test_default_taps_are_every_layer(self, network):
        manager = LayerCacheManager(network, ICCache(capacity_bytes=1000))
        assert manager.tap_layers == [l.name for l in network.layers]

    def test_parameter_validation(self, network):
        cache = ICCache(capacity_bytes=1000)
        with pytest.raises(ValueError):
            LayerCacheManager(network, cache, base_threshold=0)
        with pytest.raises(ValueError):
            LayerCacheManager(network, cache, tighten=0)
        with pytest.raises(KeyError):
            LayerCacheManager(network, cache, tap_layers=["ghost"])


class TestPlan:
    def test_identical_input_full_reuse(self, manager, space):
        sketch = input_sketch(space.observe(3, 0.0).vector)
        # Full-result reuse needs the result cached with the final tap;
        # a marker-only insert is not servable and plans one tap up.
        manager.insert(sketch, result=("label", 3))
        plan = manager.plan(sketch)
        assert plan.full_result
        assert plan.compute_gflops == 0.0
        assert manager.compute_time(plan, EDGE_CPU_2018) == 0.0
        marker_only = LayerCacheManager(manager.network, manager.cache,
                                        base_threshold=0.05, tighten=0.4)
        other = input_sketch(space.observe(9, 0.0).vector)
        marker_only.insert(other)
        assert not marker_only.plan(other).full_result

    def test_unknown_input_full_compute(self, manager, space, network):
        manager.insert(input_sketch(space.observe(3, 0.0).vector))
        far = input_sketch(space.observe(9, 0.0).vector)
        plan = manager.plan(far)
        assert plan.resume_after is None
        assert plan.compute_gflops == pytest.approx(network.total_gflops)

    def test_partial_reuse_monotone_in_distance(self, manager, space,
                                                network):
        """Closer probes resume from deeper layers (fewer FLOPs left)."""
        space_wide = EmbeddingSpace(dim=128, n_classes=20,
                                    viewpoint_scale=0.6, noise_sigma=0.0,
                                    seed=1)
        ref = input_sketch(space_wide.observe(3, 0.0).vector)
        manager.insert(ref)
        remaining = []
        for delta in (0.0, 1.0, 2.0, 4.0):
            probe = input_sketch(space_wide.observe(3, delta).vector)
            remaining.append(manager.plan(probe).compute_gflops)
        assert remaining == sorted(remaining)

    def test_insert_charges_activation_bytes(self, manager, space,
                                             network):
        sketch = input_sketch(space.observe(3, 0.0).vector)
        stored = manager.insert(sketch)
        assert stored == len(network.layers)
        expected = sum(layer.output_bytes for layer in network.layers)
        assert manager.cache.size_bytes == expected

    def test_attached_result_charges_its_bytes(self, manager, space,
                                               network):
        from repro.vision.recognition import RecognitionResult

        sketch = input_sketch(space.observe(3, 0.0).vector)
        final = network.layers[-1].name
        result = RecognitionResult(label=3, confidence=0.9)
        manager.insert(sketch, layers=[final], result=result)
        # The result payload rides the entry: it pays its own bytes in
        # the shared budget (and on the wire when the entry is shipped).
        assert manager.cache.size_bytes == \
            network.layer(final).output_bytes + result.size_bytes
        # Attaching a result to a tap set without the final layer would
        # silently disable full-result reuse — rejected loudly instead.
        with pytest.raises(ValueError):
            manager.insert(sketch, layers=["conv3"], result=result)

    def test_eviction_degrades_gracefully(self, space, network):
        """A tiny cache holds only some layers; plans still work."""
        small = ICCache(capacity_bytes=4_000_000)  # < conv1 activation
        manager = LayerCacheManager(network, small, base_threshold=0.05)
        sketch = input_sketch(space.observe(3, 0.0).vector)
        manager.insert(sketch)
        plan = manager.plan(sketch)
        assert isinstance(plan, LayerReusePlan)
        assert plan.compute_gflops <= network.total_gflops

    def test_compute_time_uses_device(self, manager, space, network):
        space2 = EmbeddingSpace(dim=128, n_classes=20,
                                viewpoint_scale=0.6, noise_sigma=0.0,
                                seed=1)
        manager.insert(input_sketch(space2.observe(3, 0.0).vector))
        probe = input_sketch(space2.observe(3, 2.0).vector)
        plan = manager.plan(probe)
        if not plan.full_result:
            expected = (EDGE_CPU_2018.invocation_overhead_s
                        + plan.compute_gflops
                        / EDGE_CPU_2018.effective_gflops)
            assert manager.compute_time(plan, EDGE_CPU_2018) == \
                pytest.approx(expected)
