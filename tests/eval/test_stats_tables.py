"""Unit tests for repro.eval.stats and repro.eval.tables."""

import pytest

from repro.eval.stats import reduction_pct, summarize
from repro.eval.tables import format_table, series_block


class TestStats:
    def test_summarize_percentiles(self):
        values = list(range(1, 101))
        s = summarize(values)
        assert s.p50 == pytest.approx(50.5)
        assert s.p99 == pytest.approx(99.01)
        assert s.n == 100

    def test_reduction_pct_matches_paper_metric(self):
        # 2400 ms origin -> 1145 ms hit is the paper's 52.28%.
        assert reduction_pct(2400, 1145.28) == pytest.approx(52.28)

    def test_reduction_validation(self):
        with pytest.raises(ValueError):
            reduction_pct(0, 1)


class TestTables:
    def test_alignment_and_rule(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_title_included(self):
        text = format_table(["x"], [["1"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_series_block(self):
        text = series_block("Fig 2a", {"origin": [1.0, 2.0],
                                       "hit": [0.5, 0.6]},
                            x_labels=["(90,9)", "(400,40)"])
        assert "origin" in text and "(400,40)" in text

    def test_series_length_checked(self):
        with pytest.raises(ValueError):
            series_block("t", {"s": [1.0]}, x_labels=["a", "b"])
