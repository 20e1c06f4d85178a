"""Contract test of the repo benchmark (tier-1 collects this file).

Runs the benchmark at smoke size — fixed work, a few seconds in all —
and checks that it still says what ``BENCHMARK.json`` declares and that
every workload still exercises what its ``why`` claims.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
END_TO_END = {m["name"]: m for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m for m in DECLARED["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

HIT_WORKLOADS = ("sim_metro_hit", "sim_city", "real_hit_small",
                 "real_hit_large")
MISS_WORKLOADS = ("sim_metro_miss", "real_miss_evict")
REAL_WORKLOADS = ("real_hit_small", "real_hit_large", "real_miss_evict")
#: Rows that read 0 on every workload while nothing fails or queues.
ZERO_WHEN_HEALTHY = {"edge_server.shed_share", "loadgen.backlog_end",
                     "model.failed_share"}


def bench(*args: str, cwd: pathlib.Path | None = None
          ) -> subprocess.CompletedProcess:
    script = (cwd or BENCH.parent) / "bench" / "run.py"
    # The benchmark finds the program itself; an inherited PYTHONPATH
    # must not be what makes it importable.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=170)


def last_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke() -> dict:
    return last_line(bench("--smoke"))


def test_declaration_is_well_formed():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["bench"]
    assert 2 <= len(WORKLOADS) <= 8 and 1 <= len(PER_LAYER) <= 128
    names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in [*END_TO_END.values(), *PER_LAYER.values()]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in END_TO_END.values())


def test_every_declared_metric_is_reported(smoke):
    assert list(smoke) == WORKLOADS
    positive_somewhere = set()
    for workload, result in smoke.items():
        metrics = result["metrics"]
        assert set(metrics) == set(END_TO_END) | set(PER_LAYER), workload
        for name, m in metrics.items():
            declared = END_TO_END.get(name) or PER_LAYER[name]
            assert m["unit"] == declared["unit"], (workload, name)
            assert math.isfinite(m["value"]), (workload, name)
            assert m["value"] >= 0, (workload, name)
            if m["value"] > 0:
                positive_somewhere.add(name)
        for name in END_TO_END:
            assert metrics[name]["value"] > 0, (workload, name)
    assert set(PER_LAYER) - positive_somewhere <= ZERO_WHEN_HEALTHY


def test_workloads_exercise_what_they_claim(smoke):
    def value(workload, name):
        return smoke[workload]["metrics"][name]["value"]

    for workload, result in smoke.items():
        assert result["correct"], workload
        assert result["failed"] == 0 and result["attempted"] > 0, workload
    for workload in HIT_WORKLOADS:
        assert value(workload, "cache.hit_ratio") >= 0.95, workload
    for workload in MISS_WORKLOADS:
        assert value(workload, "cache.hit_ratio") <= 0.25, workload
    for workload in ("sim_metro_hit", "sim_city"):
        assert value(workload, "model.hit_ratio") >= 0.95, workload
        assert value(workload, "cluster.handoffs_per_req") > 0, workload
    assert value("sim_metro_miss", "model.hit_ratio") <= 0.25
    assert value("sim_metro_miss", "cache.insert_calls_per_req") > 0.7
    assert value("real_miss_evict", "cache.evictions_per_req") > 0.9
    assert value("real_miss_evict", "cloud_server.resolves_per_req") > 0.9
    assert value("real_miss_evict", "protocol.frames_per_req") > 7.0
    for workload in ("real_hit_small", "real_hit_large"):
        assert value(workload, "protocol.frames_per_req") == 4.0
    # Counts only: nothing here may depend on how fast the box is.
    for workload in REAL_WORKLOADS:
        assert value(workload, "edge_server.shed_share") == 0, workload
        assert value(workload, "kernel.events_per_req") == 0, workload


def test_tracing_does_not_change_what_the_simulator_computes(smoke):
    traced = smoke["sim_metro_hit"]
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload",
         "sim_metro_hit", "--smoke", "--trace", "0",
         "--units", str(traced["notes"]["rounds"])],
        capture_output=True, text=True, timeout=170)
    plain = last_line(done)
    assert plain["notes"]["digest"] == traced["notes"]["digest"]
    assert plain["attempted"] == traced["attempted"]


@pytest.mark.parametrize("trace, declared",
                         [("0", END_TO_END), ("1", PER_LAYER)])
def test_contract_line(trace, declared):
    result = last_line(bench("--workload", "sim_metro_hit", "--seed", "3",
                             "--seconds", "0.5", "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(declared)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert m["unit"] == declared[name]["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "sim_metro_hit", "--seconds", "0.5",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
