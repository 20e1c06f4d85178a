"""Unit tests for repro.render.loader."""

import pytest

from repro.render.loader import (
    EDGE_GPU_2018,
    GpuProfile,
    MOBILE_GPU_2018,
    ModelLoader,
)
from repro.render.mesh import LOADED_EXPANSION


@pytest.fixture
def loader():
    return ModelLoader(MOBILE_GPU_2018)


class TestTiming:
    def test_parse_time_linear_in_size(self, loader):
        base = loader.parse_time(0)
        t1 = loader.parse_time(12_000_000) - base
        t2 = loader.parse_time(24_000_000) - base
        assert t2 == pytest.approx(2 * t1)

    def test_parse_rate_calibration(self, loader):
        # 12 MB at 12 MB/s = 1 s + overhead.
        assert loader.parse_time(12_000_000) == pytest.approx(1.002)

    def test_upload_time(self, loader):
        assert loader.upload_time(60_000_000) == pytest.approx(1.0)

    def test_cache_hit_skips_parse(self, loader):
        file_bytes = 5_000_000
        loaded = int(file_bytes * LOADED_EXPANSION)
        miss = loader.load_cost_from_file(file_bytes)
        hit = loader.load_cost_from_loaded(loaded)
        assert hit.parse_s == 0.0
        assert hit.total_s < miss.total_s
        assert hit.upload_s == pytest.approx(miss.upload_s)

    def test_edge_parses_faster_than_mobile(self):
        mobile = ModelLoader(MOBILE_GPU_2018)
        edge = ModelLoader(EDGE_GPU_2018)
        assert edge.parse_time(10_000_000) < mobile.parse_time(10_000_000)

    def test_negative_sizes_rejected(self, loader):
        with pytest.raises(ValueError):
            loader.parse_time(-1)
        with pytest.raises(ValueError):
            loader.upload_time(-1)


class TestProfileValidation:
    def test_rates_positive(self):
        with pytest.raises(ValueError):
            GpuProfile("bad", parse_mb_per_s=0, upload_mb_per_s=1)
        with pytest.raises(ValueError):
            GpuProfile("bad", parse_mb_per_s=1, upload_mb_per_s=1,
                       parse_overhead_s=-0.1)
