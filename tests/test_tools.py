"""The pair-protocol verdict, the count-row comparison and the workload
selection of ``tools/bench_pairs.py`` are pure functions."""

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


class TestCountRows:
    @staticmethod
    def smoke(events, digest="abc", outcomes=None):
        return {"sim": {"attempted": 10, "failed": 0,
                        "notes": {"digest": digest,
                                  "outcomes": outcomes or {"hit": 9}},
                        "metrics": {"kernel.events_per_req": {"value": events},
                                    "cache.hit_ratio": {"value": 0.9}}},
                "real": {"attempted": 4, "failed": 0, "notes": {},
                         "metrics": {"cache.hit_ratio": {"value": 1.0}}}}

    ROWS = ("kernel.events_per_req", "cache.hit_ratio")

    def test_every_row_of_every_workload_is_compared(self):
        rows = bench_pairs.count_rows(self.smoke(84.0), self.smoke(53.0),
                                      self.ROWS)
        # digest, outcomes, attempted, failed + the exact rows, per workload.
        assert len(rows) == 2 * (4 + len(self.ROWS))
        assert [row for row in rows if row[2] != row[3]] == [
            ("sim", "kernel.events_per_req", 84.0, 53.0)]

    def test_a_moved_digest_or_outcome_count_differs(self):
        rows = bench_pairs.count_rows(
            self.smoke(84.0), self.smoke(84.0, "xyz", {"hit": 8, "miss": 1}),
            self.ROWS)
        assert [row[:2] for row in rows if row[2] != row[3]] == [
            ("sim", "digest"), ("sim", "outcomes")]

    def test_a_row_one_side_lacks_reads_none(self):
        change = self.smoke(84.0)
        del change["real"]
        rows = bench_pairs.count_rows(self.smoke(84.0), change, self.ROWS)
        assert ("real", "attempted", 4, None) in rows
        assert ("real", "kernel.events_per_req", None, None) in rows


class TestSelectWorkloads:
    SPEC = {"workloads": [{"name": "sim_city"}, {"name": "real_hit_small"},
                          {"name": "sim_metro_hit"}]}

    def test_all_is_every_declared_workload_in_order(self):
        assert bench_pairs.select_workloads(self.SPEC, "all") == [
            "sim_city", "real_hit_small", "sim_metro_hit"]

    def test_one_name_or_a_comma_separated_list(self):
        assert bench_pairs.select_workloads(self.SPEC, "sim_city") == [
            "sim_city"]
        assert bench_pairs.select_workloads(
            self.SPEC, "sim_metro_hit,sim_city") == ["sim_metro_hit",
                                                     "sim_city"]

    def test_an_undeclared_name_is_refused(self):
        with pytest.raises(ValueError, match="unknown workload.*nope"):
            bench_pairs.select_workloads(self.SPEC, "sim_city,nope")


class TestSelectRows:
    SPEC = {"end_to_end": [{"name": "req_per_s"}],
            "per_layer": [{"name": "cluster.handoff_us_each"},
                          {"name": "kernel.events_per_req"}]}

    def test_ledger_and_end_to_end_rows_in_the_order_given(self):
        assert bench_pairs.select_rows(
            self.SPEC, "kernel.events_per_req,req_per_s") == [
                "kernel.events_per_req", "req_per_s"]

    def test_an_undeclared_row_is_refused(self):
        with pytest.raises(ValueError, match=r"unknown row\(s\) handoff_us;"):
            bench_pairs.select_rows(self.SPEC, "req_per_s,handoff_us")


def test_trace_does_not_combine_with_counts(capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", ".", "--counts",
                          "--trace", "req_per_s"])
    assert exit_info.value.code == 2
    assert "does not combine with --counts" in capsys.readouterr().err


def test_help_runs_without_a_checkout(capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--help"])
    assert exit_info.value.code == 0
    assert "--parent" in capsys.readouterr().out


def test_each_tree_writes_bytecode_under_its_own_prefix(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = bench_pairs.bytecode_env("/tmp/pairs/parent")
    assert env["PYTHONPYCACHEPREFIX"] == "/tmp/pairs/parent"
    assert "PYTHONDONTWRITEBYTECODE" not in env
