"""The repo benchmark: one command, every metric, outputs checked.

Contract form (what the driver runs, from the root of a checkout)::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

prints a table and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — every
end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.

Other forms::

    python3 bench/run.py                 # all six workloads, both tables
    python3 bench/run.py --repeat 3      # A/A: spread of each end-to-end metric
    python3 bench/run.py --smoke         # tiny fixed-work run of everything
    python3 bench/run.py --check         # two smoke runs must agree exactly

This process never imports the program.  Every measurement is a fresh
``child.py`` process, one at a time.  Seed 0 is the default; keep seed 1
held out for later claims.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
END_TO_END = {m["name"]: m for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m for m in DECLARED["per_layer"]}

#: Set-ups timed per run (each in its own process); the fastest is
#: reported: what disturbs a set-up (page faults, cold files, the box)
#: only ever adds time, and a median of three still wandered 2x.
SETUP_REPEATS = 3
#: A child that takes longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170.0
#: Fixed work of a smoke run, in work units (see ``measure.Budget``).
SMOKE_UNITS = 40

#: Per-layer rows that are counts, exact for a seed under fixed work;
#: ``--check`` requires them identical across two runs.
EXACT_ROWS = (
    "kernel.events_per_req", "topology.route_calls_per_req",
    "link.transfers_per_req", "transport.sends_per_req",
    "cache.lookup_calls_per_req", "cache.queries_per_lookup_call",
    "cache.insert_calls_per_req", "cache.evictions_per_req",
    "cache.hit_ratio", "index.entries", "features.observe_calls_per_req",
    "cluster.handoffs_per_req", "protocol.frames_per_req",
    "protocol.bytes_per_req", "cloud_server.resolves_per_req",
    "model.hit_ratio", "model.mean_ms", "model.p99_ms",
    "model.failed_share",
)


class BenchError(RuntimeError):
    """A child failed or printed something that is not a result."""


def child(workload: str, seed: int, *extra: str) -> dict:
    """Run one ``child.py`` to completion; its JSON result."""
    command = [sys.executable, str(BENCH / "child.py"),
               "--workload", workload, "--seed", str(seed), *extra]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: child exceeded "
                         f"{CHILD_TIMEOUT_S:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload}: child exited {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"{workload}: no result line") from exc


def with_units(values: dict[str, float], declared: dict[str, dict],
               fill: float | None = None) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` for every declared metric.

    Per-layer rows of layers a workload never enters read ``fill`` (0);
    an end-to-end metric must be there.
    """
    out = {}
    for name, spec in declared.items():
        if name not in values and fill is None:
            raise BenchError(f"metric {name} missing from the result")
        out[name] = {"value": values.get(name, fill), "unit": spec["unit"]}
    return out


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One contract run: the result object for the last output line."""
    result = child(workload, seed, "--seconds", str(seconds),
                   "--trace", str(trace))
    values = result["metrics"]
    if trace:
        metrics = with_units(values, PER_LAYER, fill=0.0)
    else:
        setups = [values["setup_s"]] + [
            child(workload, seed, "--setup-only")["setup_s"]
            for _ in range(SETUP_REPEATS - 1)]
        values["setup_s"] = min(setups)
        metrics = with_units(values, END_TO_END)
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
            "notes": result["notes"]}


# -- printing -----------------------------------------------------------------


def ledger_shares(metrics: dict[str, dict]) -> dict[str, float]:
    """Share of the wall time per request each ledger row holds.

    The ledger rows are the per-request self times plus the backend's
    remainder row; they add up to the traced window's wall time per
    request by construction.
    """
    rows = {name: m["value"] for name, m in metrics.items()
            if (name.endswith("_us_per_req") or name.startswith("protocol.")
                and name.endswith("_us"))
            and name != "edge_server.cpu_us_per_req"}
    if "cluster.handoffs_per_req" in metrics:
        rows["cluster.handoff_us_each"] = (
            metrics["cluster.handoffs_per_req"]["value"]
            * metrics["cluster.handoff_us_each"]["value"])
    total = sum(rows.values())
    return {name: value / total for name, value in rows.items()} if total \
        else {}


def print_result(workload: str, result: dict) -> None:
    shares = ledger_shares(result["metrics"])
    print(f"== {workload}: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, m in result["metrics"].items():
        if name in PER_LAYER and not m["value"]:
            continue    # a layer this workload never enters
        share = f"{shares[name]:7.1%}" if name in shares else ""
        print(f"  {name:<34} {m['value']:>16.4f} {m['unit']:<6} {share}")
    for key, value in result.get("notes", {}).items():
        print(f"  # {key}: {value}")


# -- modes --------------------------------------------------------------------


def run_contract(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print_result(args.workload, result)
    result.pop("notes")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, args.seed, args.seconds, trace)
            print_result(workload, result)
            ok = ok and result["correct"]
    return 0 if ok else 1


def smoke_set(seed: int) -> dict[str, dict]:
    """Every workload once, smoke-sized, traced, fixed work.

    A traced child measures its plain phases first, so one child yields
    both metric families.
    """
    out = {}
    for workload in WORKLOADS:
        result = child(workload, seed, "--smoke", "--trace", "1",
                       "--units", str(SMOKE_UNITS))
        values = result.pop("metrics")
        result["metrics"] = {**with_units(values, END_TO_END),
                             **with_units(values, PER_LAYER, fill=0.0)}
        out[workload] = result
    return out


def run_smoke(args) -> int:
    results = smoke_set(args.seed)
    for workload, result in results.items():
        print_result(workload, result)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def run_check(args) -> int:
    """Two fixed-work runs of one seed must agree on every exact row."""
    first, second = smoke_set(args.seed), smoke_set(args.seed)
    differing = 0
    for workload in WORKLOADS:
        a, b = first[workload], second[workload]
        pairs = [("digest", a["notes"].get("digest"),
                  b["notes"].get("digest")),
                 ("attempted", a["attempted"], b["attempted"]),
                 ("failed", a["failed"], b["failed"])]
        pairs += [(name, a["metrics"][name]["value"],
                   b["metrics"][name]["value"]) for name in EXACT_ROWS]
        print(f"== {workload}")
        for name, x, y in pairs:
            same = x == y
            differing += not same
            print(f"  {name:<34} {x!s:>20} {y!s:>20} "
                  f"{'same' if same else 'DIFFERENT'}")
    print(f"{differing} rows differ")
    return 1 if differing else 0


def run_repeat(args) -> int:
    """A/A: N sets of the same commit; spread per metric and workload."""
    workloads = [args.workload] if args.workload else WORKLOADS
    samples: dict[tuple[str, str], list[float]] = {}
    for index in range(args.repeat):
        for workload in workloads:
            result = measure(workload, args.seed, args.seconds, 0)
            for name, m in result["metrics"].items():
                samples.setdefault((workload, name), []).append(m["value"])
            print(f"set {index + 1}/{args.repeat} {workload}: " + ", ".join(
                f"{n}={m['value']:.4g}"
                for n, m in result["metrics"].items()), flush=True)
    print(f"\n{'workload':<16} {'metric':<12} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'iqr/med':>8} {'max dev':>8} {'bound':>6}")
    over = 0
    for (workload, name), values in samples.items():
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid
        worst = max(abs(v - mid) for v in values) / mid
        bound = END_TO_END[name]["bound"]
        flag = ""
        # Set-up time is one long unit per process (imports, page
        # faults): its spread is shown, only its median is held to the
        # bound, as the driver does.
        if spread > bound and name != "setup_s":
            over += 1
            flag = "  OVER"
        print(f"{workload:<16} {name:<12} {mid:>11.4f} {q1:>11.4f} "
              f"{q3:>11.4f} {spread:>8.2%} {worst:>8.2%} {bound:>6.0%}"
              f"{flag}")
    return 1 if over else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(DECLARED["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--repeat", type=int, metavar="N")
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if args.repeat is not None and args.repeat < 2:
        parser.error("--repeat needs at least 2 sets")
    try:
        if args.smoke:
            return run_smoke(args)
        if args.check:
            return run_check(args)
        if args.repeat:
            return run_repeat(args)
        if args.workload:
            return run_contract(args)
        return run_all(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
