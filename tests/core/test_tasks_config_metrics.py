"""Unit tests for repro.core.tasks, config and metrics."""

import numpy as np
import pytest

from repro.core.config import (
    CacheConfig,
    CoICConfig,
    NetworkConfig,
    RecognitionConfig,
    RenderingConfig,
    VrConfig,
)
from repro.core.metrics import (
    LatencySummary,
    MetricsRecorder,
    RequestRecord,
)
from repro.core.tasks import (
    ModelLoadResult,
    ModelLoadTask,
    PanoramaTask,
    RecognitionTask,
)
from repro.render.mesh import LOADED_EXPANSION
from repro.render.panorama import Panorama
from repro.vision.image import CameraFrame

INF, NAN = float("inf"), float("nan")

#: Every float field of ``NetworkConfig`` that sets a link's rate or
#: delay (``loss_rate`` is a probability, checked on its own).
NETWORK_RATES_AND_DELAYS = (
    "wifi_mbps", "wifi_delay_ms", "wifi_jitter_ms", "backhaul_mbps",
    "backhaul_delay_ms", "backhaul_jitter_ms", "lte_downlink_mbps",
    "lte_uplink_mbps", "lte_radio_delay_ms", "lte_core_delay_ms",
    "lte_jitter_ms")


class TestTasks:
    def test_recognition_input_is_frame_size(self):
        frame = CameraFrame(object_class=1)
        task = RecognitionTask(frame=frame)
        assert task.input_bytes == frame.size_bytes
        assert task.kind == "recognition"

    def test_model_load_loaded_bytes(self):
        task = ModelLoadTask(model_id=1, digest="ab", file_bytes=1000)
        assert task.loaded_bytes == int(1000 * LOADED_EXPANSION)
        assert task.input_bytes < 1000  # request is a reference

    def test_model_load_validation(self):
        with pytest.raises(ValueError):
            ModelLoadTask(model_id=1, digest="ab", file_bytes=0)

    def test_panorama_task_reference_sized(self):
        task = PanoramaTask(panorama=Panorama(1, 2, 0))
        assert task.input_bytes < 1000

    def test_model_load_result_size(self):
        result = ModelLoadResult(digest="ab", payload_bytes=5000,
                                 parsed=True)
        assert result.size_bytes == 5000 + 128


class TestConfig:
    def test_defaults_valid(self):
        config = CoICConfig()
        assert config.network.wifi_mbps == 400.0
        assert config.cache.capacity_bytes == int(2048 * 1e6)

    def test_network_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(wifi_mbps=0)
        with pytest.raises(ValueError):
            NetworkConfig(loss_rate=1.0)
        with pytest.raises(ValueError):
            NetworkConfig(backhaul_delay_ms=-1)

    @pytest.mark.parametrize("field,value", [
        ("lte_downlink_mbps", 0.0),
        ("lte_uplink_mbps", -1.0),
        ("lte_radio_delay_ms", -1.0),
        ("lte_core_delay_ms", -1.0),
        ("lte_jitter_ms", -0.5),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_lte_validation(self, field, value):
        with pytest.raises(ValueError):
            NetworkConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("backhaul_mbps", 0.0),
        ("backhaul_jitter_ms", -1.0),
        ("wifi_jitter_ms", -1.0),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_backhaul_and_jitter_validation(self, field, value):
        with pytest.raises(ValueError):
            NetworkConfig(**{field: value})

    def test_recognition_validation(self):
        with pytest.raises(ValueError):
            RecognitionConfig(descriptor_source="fog")
        with pytest.raises(ValueError):
            RecognitionConfig(threshold=-0.1)

    @pytest.mark.parametrize("kwargs", [
        {"threshold": float("nan")},  # passes < 0, then d <= nan misses
        {"threshold": float("inf")},
        {"max_viewpoint_delta": float("nan")},
        {"max_viewpoint_delta": float("inf")},
    ])
    def test_recognition_rejects_non_finite_matching(self, kwargs):
        with pytest.raises(ValueError):
            RecognitionConfig(**kwargs)

    def test_rendering_validation(self):
        with pytest.raises(ValueError):
            RenderingConfig(catalog_sizes_kb=())
        with pytest.raises(ValueError):
            RenderingConfig(catalog_sizes_kb=(0,))

    def test_cache_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(capacity_mb=0)

    def test_the_removed_ttl_knob_fails_loudly(self):
        # Entries live until evicted: there is no lifetime to set.
        with pytest.raises(TypeError, match="ttl_s"):
            CacheConfig(ttl_s=5.0)

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            CoICConfig(edge_workers=0)

    @pytest.mark.parametrize("field", ["edge_workers", "cloud_workers"])
    @pytest.mark.parametrize("value", [True, 2.5, 3.0, float("inf"), NAN],
                             ids=["bool", "fraction", "float", "inf", "nan"])
    def test_worker_count_is_a_whole_int(self, field, value):
        # A Resource admits while fewer than ``capacity`` hold it, so
        # 2.5 workers used to serve as 3 and inf as unbounded.
        with pytest.raises(ValueError, match=field):
            CoICConfig(**{field: value})
        assert getattr(CoICConfig(**{field: np.int64(2)}), field) == 2


class TestConfigRejectsNonFinite:
    """An inf or NaN rate, delay, size or time raises at construction.

    Each used to build: the first request then crashed on a non-finite
    timeout, or (an infinite rate) clocked every message in zero time.
    """

    @pytest.mark.parametrize("value", [INF, NAN], ids=["inf", "nan"])
    @pytest.mark.parametrize("field", NETWORK_RATES_AND_DELAYS)
    def test_network_config(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            NetworkConfig(**{field: value})

    @pytest.mark.parametrize("kwargs", [
        {"capacity_mb": NAN}, {"capacity_mb": INF},
        {"insert_ms": NAN}, {"insert_ms": INF},
    ], ids=["capacity_mb-nan", "capacity_mb-inf", "insert_ms-nan",
            "insert_ms-inf"])
    def test_cache_config(self, kwargs):
        with pytest.raises(ValueError, match="must be finite"):
            CacheConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"storage_read_ms": NAN}, {"storage_read_ms": INF},
        {"client_overhead_ms": NAN},
        {"catalog_sizes_kb": (NAN,)}, {"catalog_sizes_kb": (231, INF)},
    ], ids=["storage_read_ms-nan", "storage_read_ms-inf",
            "client_overhead_ms-nan", "catalog-nan", "catalog-inf"])
    def test_rendering_config(self, kwargs):
        with pytest.raises(ValueError, match="must be finite"):
            RenderingConfig(**kwargs)

    @pytest.mark.parametrize("value", [INF, NAN], ids=["inf", "nan"])
    def test_vr_config(self, value):
        with pytest.raises(ValueError, match="render_ms must be finite"):
            VrConfig(render_ms=value)

    @pytest.mark.parametrize("value", [INF, NAN], ids=["inf", "nan"])
    def test_coic_config(self, value):
        with pytest.raises(ValueError,
                           match="request_timeout_s must be finite"):
            CoICConfig(request_timeout_s=value)


class TestLatencySummary:
    def test_of_values(self):
        s = LatencySummary.of([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4
        assert s.mean == pytest.approx(2.5)
        assert s.p50 == pytest.approx(2.5)
        assert (s.min, s.max) == (1.0, 4.0)

    def test_empty(self):
        s = LatencySummary.of([])
        assert s.n == 0

    def test_single_value_zero_std(self):
        assert LatencySummary.of([5.0]).std == 0.0


class TestMetricsRecorder:
    @pytest.fixture
    def recorder(self):
        r = MetricsRecorder()
        rows = [
            ("recognition", "hit", "u1", 0.0, 1.0, True),
            ("recognition", "miss", "u1", 1.0, 3.5, True),
            ("recognition", "hit", "u2", 2.0, 2.9, False),
            ("model_load", "origin", "u1", 0.0, 2.0, None),
        ]
        for kind, outcome, user, start, end, correct in rows:
            r.record(RequestRecord(task_kind=kind, outcome=outcome,
                                   user=user, start_s=start, end_s=end,
                                   correct=correct))
        return r

    def test_select_filters(self, recorder):
        assert len(recorder.select(task_kind="recognition")) == 3
        assert len(recorder.select(outcome="hit")) == 2
        assert len(recorder.select(user="u2")) == 1
        assert len(recorder.select(task_kind="recognition",
                                   outcome="hit", user="u1")) == 1

    def test_hit_ratio(self, recorder):
        assert recorder.hit_ratio("recognition") == pytest.approx(2 / 3)
        assert recorder.hit_ratio("model_load") == 0.0

    def test_accuracy(self, recorder):
        assert recorder.accuracy("recognition") == pytest.approx(2 / 3)

    def test_latencies(self, recorder):
        assert recorder.latencies(outcome="miss") == [2.5]

    def test_invalid_record_rejected(self):
        r = MetricsRecorder()
        with pytest.raises(ValueError):
            r.record(RequestRecord(task_kind="x", outcome="hit", user="u",
                                   start_s=5.0, end_s=1.0))
