"""Unit tests for repro.vision.recognition."""

import numpy as np
import pytest

from repro.vision import (
    CameraFrame,
    EmbeddingSpace,
    MOBILE_SOC_2018,
    CLOUD_GPU_2018,
    Recognizer,
    vgg16,
)


@pytest.fixture
def recognizer():
    space = EmbeddingSpace(dim=128, n_classes=20, seed=0)
    return Recognizer(vgg16(), MOBILE_SOC_2018, space)


class TestRecognizer:
    def test_recognize_returns_ground_truth(self, recognizer):
        frame = CameraFrame(object_class=7)
        result = recognizer.recognize(frame)
        assert result.label == 7
        assert 0 < result.confidence <= 1

    def test_result_size_includes_annotation(self, recognizer):
        result = recognizer.recognize(CameraFrame(object_class=1))
        assert result.size_bytes > result.annotation_bytes

    def test_extract_uses_frame_noise_key(self, recognizer):
        f1 = CameraFrame(object_class=3, viewpoint=0.2, capture_id=5)
        f2 = CameraFrame(object_class=3, viewpoint=0.2, capture_id=5)
        assert np.array_equal(recognizer.extract(f1).vector,
                              recognizer.extract(f2).vector)

    def test_negative_id_is_the_noise_free_observation(self, recognizer):
        frame = CameraFrame(object_class=3, viewpoint=0.4)
        assert frame.capture_id < 0
        got = recognizer.extract(frame).vector
        assert np.array_equal(got, recognizer.space.observe(3, 0.4).vector)
        assert np.array_equal(got, recognizer.extract(frame).vector)
        assert not np.array_equal(got, recognizer.space.observe(
            3, 0.4, noise_key=0).vector)

    @pytest.mark.parametrize("capture_id", [0, 1, 2**32 - 1, 2**40])
    def test_keyed_id_is_observe_with_that_noise_key(self, recognizer,
                                                     capture_id):
        frame = CameraFrame(object_class=3, viewpoint=0.4,
                            capture_id=capture_id)
        assert np.array_equal(
            recognizer.extract(frame).vector,
            recognizer.space.observe(3, 0.4, noise_key=capture_id).vector)

    def test_extract_observation_matches_frame(self, recognizer):
        frame = CameraFrame(object_class=4, viewpoint=0.5, capture_id=1)
        obs = recognizer.extract(frame)
        assert obs.object_class == 4
        assert obs.viewpoint == 0.5

    def test_timing_hierarchy(self, recognizer):
        assert recognizer.extraction_time() < recognizer.inference_time()

    def test_resume_faster_than_full(self, recognizer):
        assert (recognizer.resume_time("conv5")
                < recognizer.inference_time())

    def test_device_changes_timing(self):
        space = EmbeddingSpace(dim=128, n_classes=5, seed=0)
        slow = Recognizer(vgg16(), MOBILE_SOC_2018, space)
        fast = Recognizer(vgg16(), CLOUD_GPU_2018, space)
        assert fast.inference_time() < slow.inference_time()

    def test_descriptor_bytes_forwarded(self, recognizer):
        assert recognizer.descriptor_bytes == vgg16().descriptor_bytes
