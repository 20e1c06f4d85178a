"""Unit tests for repro.workload.apps (the 30-app study's measurement)."""

import pytest

from repro.workload.apps import redundancy_report


class TestRedundancyReport:
    def test_counts_repeats(self):
        requests = ["a", "b", "a", "a", "c", "b"]
        stats = redundancy_report(requests, key_fn=lambda r: r)
        assert stats.total == 6
        assert stats.redundant == 3
        assert stats.distinct_keys == 3
        assert stats.ratio == pytest.approx(0.5)

    def test_window_limits_memory(self):
        requests = [(0.0, "a"), (5.0, "a"), (100.0, "a")]
        stats = redundancy_report(
            requests, key_fn=lambda r: r[1], window_s=10.0,
            time_fn=lambda r: r[0])
        assert stats.redundant == 1  # the 100 s repeat fell out of window

    def test_window_requires_time_fn(self):
        with pytest.raises(ValueError):
            redundancy_report(["a"], key_fn=lambda r: r, window_s=5.0)

    def test_empty_stream(self):
        stats = redundancy_report([], key_fn=lambda r: r)
        assert stats.ratio == 0.0
