"""The pair-protocol verdict of ``tools/bench_pairs.py`` is a pure function."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
try:
    import bench_pairs
finally:
    sys.path.pop(0)

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.2, 99.8]


def shifted(deltas):
    return [p + d for p, d in zip(PARENT, deltas)]


class TestVerdict:
    def test_all_wins_beyond_the_parent_spread_is_a_gain(self):
        outcome, wins, ties = bench_pairs.verdict(
            PARENT, shifted([10.0] * 10), "higher", 0.25)
        assert (outcome, wins, ties) == (bench_pairs.GAIN, 10, 0)

    def test_lower_is_better_reads_the_other_way(self):
        assert bench_pairs.verdict(
            PARENT, shifted([-10.0] * 10), "lower", 0.25)[0] == bench_pairs.GAIN
        assert bench_pairs.verdict(
            PARENT, shifted([-10.0] * 10), "higher", 0.05)[0] == bench_pairs.WORSE

    def test_eight_of_ten_is_not_a_gain(self):
        outcome, wins, _ = bench_pairs.verdict(
            PARENT, shifted([10.0] * 8 + [-1.0] * 2), "higher", 0.25)
        assert wins == 8 and outcome == bench_pairs.WITHIN

    def test_ties_count_for_neither_side(self):
        outcome, wins, ties = bench_pairs.verdict(
            PARENT, shifted([10.0] * 5 + [0.0] * 5), "higher", 0.25)
        assert (wins, ties) == (5, 5) and outcome == bench_pairs.WITHIN

    def test_ten_wins_inside_the_parent_iqr_is_not_a_gain(self):
        outcome, wins, _ = bench_pairs.verdict(
            PARENT, shifted([0.1] * 10), "higher", 0.25)
        assert wins == 10 and outcome == bench_pairs.WITHIN

    def test_spread_wider_than_bound_is_unresolved_unless_clear(self):
        noisy = [100.0, 140.0, 70.0, 125.0, 80.0, 100.0, 135.0, 65.0, 110.0, 90.0]
        assert bench_pairs.verdict(
            noisy, [v - 1.0 for v in noisy], "higher", 0.05)[0] \
            == bench_pairs.UNRESOLVED
        assert bench_pairs.verdict(
            noisy, [v + 100.0 for v in noisy], "higher", 0.05)[0] \
            == bench_pairs.GAIN


def test_help_runs_without_a_checkout(capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--help"])
    assert exit_info.value.code == 0
    assert "--parent" in capsys.readouterr().out
