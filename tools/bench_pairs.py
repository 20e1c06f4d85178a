#!/usr/bin/env python3
"""Parent-vs-change pairs of the repo benchmark, with the verdict rule.

Runs the command ``BENCHMARK.json`` declares, once per tree per pair
(``--workload W --seed <pair> --seconds <run_seconds> --trace 0``), the
order alternating so neither tree always runs first.  Prints every run,
then per end-to-end metric both medians and quartiles, wins/ties and a
verdict by the choosing-metrics rule: a gain needs the change to win at
least nine tenths of all pairs (ties count for neither) *and* the medians
to differ by more than the parent's own inter-quartile distance.
``--workload`` takes one name, a comma-separated list or ``all`` (every
workload ``BENCHMARK.json`` declares); each gets its pairs and its own
summary table, in the order given.

``setup_s`` includes imports, so give both trees the same ``__pycache__``
state (none, or one warm-up run each) before comparing.

``--counts`` compares what the program computed instead of how fast: one
smoke-size traced run (fixed work) of every workload per tree for seeds 0
and 1, then digest, attempted/failed, outcome counts and every exact
count row side by side, and the rows that differ.

``--trace ROW[,ROW...]`` shows where the time went instead of timing:
the same alternating pairs, but ``--trace 1`` runs, printing the named
ledger rows (any metric ``BENCHMARK.json`` declares) of every run and
then both trees' medians.  Traced runs pay the tracer's overhead, so
they give no end-to-end verdict.

Usage:  python tools/bench_pairs.py --parent ../parent --workload sim_city
        python tools/bench_pairs.py --parent ../parent --workload all --pairs 5
        python tools/bench_pairs.py --parent ../parent --counts
        python tools/bench_pairs.py --parent ../parent --workload sim_city \\
            --pairs 3 --trace cluster.handoff_us_each,kernel.events_per_req
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import statistics
import subprocess
import sys
import typing

GAIN = "gain"
WORSE = "worse beyond bound"
UNRESOLVED = "unresolved (spread wider than bound)"
WITHIN = "within bound"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, int, int]:
    """(verdict, wins, ties) for one metric over paired runs.

    ``parent[i]`` and ``change[i]`` are the two runs of pair ``i``;
    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` is the share of
    the parent's median by which the change's median may be worse.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * c > sign * p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    lead = sign * (c_med - p_med)        # > 0: the change reads better
    if wins >= 0.9 * len(parent) and lead > p_q3 - p_q1:
        return GAIN, wins, ties
    if -lead > bound * abs(p_med):
        return WORSE, wins, ties
    clear = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_q3 - p_q1 > bound * abs(p_med) and not clear:
        return UNRESOLVED, wins, ties
    return WITHIN, wins, ties


def count_rows(parent: dict, change: dict,
               exact_rows: typing.Sequence[str]) -> list[tuple]:
    """``(workload, row, parent value, change value)`` for every compared row.

    ``parent`` and ``change`` are the smoke sets of the two trees
    (workload -> result, the last line of ``bench/run.py --smoke``).
    A workload or row only one side reports reads ``None`` on the other.
    """
    rows = []
    for workload in list(parent) + [w for w in change if w not in parent]:
        sides = [tree.get(workload, {}) for tree in (parent, change)]
        for name in ("digest", "outcomes"):
            rows.append((workload, name, *(
                side.get("notes", {}).get(name) for side in sides)))
        for name in ("attempted", "failed"):
            rows.append((workload, name, *(
                side.get(name) for side in sides)))
        for name in exact_rows:
            rows.append((workload, name, *(
                side.get("metrics", {}).get(name, {}).get("value")
                for side in sides)))
    return rows


def run_bench(tree: pathlib.Path, command: list[str], *args: str) -> dict:
    """Run the benchmark in ``tree``; the last stdout line is its JSON."""
    done = subprocess.run([*command, *args], cwd=tree, capture_output=True,
                          text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{tree}: benchmark exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_counts(trees: dict[str, pathlib.Path], command: list[str]) -> int:
    """Print the count rows of both trees for seeds 0 and 1."""
    # The benchmark's own list of rows that are exact under fixed work.
    found = importlib.util.spec_from_file_location(
        "bench_run", trees["change"] / command[1])
    bench_run = importlib.util.module_from_spec(found)
    found.loader.exec_module(bench_run)
    exact_rows = bench_run.EXACT_ROWS
    status = 0
    for seed in (0, 1):
        # Every workload once per tree: smoke-sized, traced, fixed work.
        sets = {side: run_bench(tree, command, "--smoke", "--seed", str(seed))
                for side, tree in trees.items()}
        rows = count_rows(sets["parent"], sets["change"], exact_rows)
        differing = [row for row in rows if row[2] != row[3]]
        print(f"# seed {seed}: {len(differing)} of {len(rows)} rows differ")
        print(f"{'workload':<16} {'row':<32} {'parent':>24} {'change':>24}")
        for workload, name, before, after in rows:
            print(f"{workload:<16} {name:<32} {before!s:>24} {after!s:>24}"
                  + ("" if before == after else "  DIFFERENT"))
        for workload, name, before, after in differing:
            print(f"differs: {workload} {name}: {before} -> {after}")
        if not all(result["correct"] for side in sets.values()
                   for result in side.values()):
            print("a run reported correct = false")
            status = 1
    return status


def _pick(declared: list[str], names: str, what: str) -> list[str]:
    """A comma-separated list of names, each one ``declared``."""
    chosen = names.split(",")
    unknown = [name for name in chosen if name not in declared]
    if unknown:
        raise ValueError(f"unknown {what}(s) {', '.join(unknown)}; "
                         f"BENCHMARK.json declares {', '.join(declared)}")
    return chosen


def select_workloads(spec: dict, names: str) -> list[str]:
    """``--workload``'s value as names: one workload, a comma-separated
    list, or ``all`` (every workload ``spec`` declares, in its order)."""
    declared = [w["name"] for w in spec["workloads"]]
    if names == "all":
        return declared
    return _pick(declared, names, "workload")


def select_rows(spec: dict, names: str) -> list[str]:
    """``--trace``'s value as metric names ``spec`` declares."""
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    return _pick(declared, names, "row")


def alternating_runs(trees: dict[str, pathlib.Path], spec: dict,
                     workload: str, pairs: int, trace: str
                     ) -> typing.Iterator[tuple[int, str, dict]]:
    """``(pair, side, result)`` of every run, seed = pair number, the
    order alternating so neither tree always runs first."""
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            yield pair, side, run_bench(
                trees[side], spec["command"], "--workload", workload,
                "--seed", str(pair), "--seconds", str(spec["run_seconds"]),
                "--trace", trace)


def run_pairs(trees: dict[str, pathlib.Path], spec: dict, workload: str,
              pairs: int) -> int:
    """Time ``pairs`` alternating pairs of one workload; print every run
    and the summary table.  1 when the change is worse beyond a bound or
    fails a larger share of operations, else 0."""
    metrics = spec["end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    print(f"# {workload}: {pairs} pairs x {spec['run_seconds']} s, "
          "seed = pair number")
    print("pair side   failed " + " ".join(f"{m['name']:>12}" for m in metrics))
    for pair, side, result in alternating_runs(trees, spec, workload, pairs,
                                               "0"):
        runs[side].append(result)
        print(f"{pair:>4} {side:<6} {result['failed']:>6} " + " ".join(
            f"{result['metrics'][m['name']]['value']:>12.2f}"
            for m in metrics), flush=True)

    print(f"\n{workload}")
    print("metric        parent q1/median/q3        change q1/median/q3"
          "        wins ties  verdict")
    status = 0
    for metric in metrics:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        outcome, wins, ties = verdict(parent, change, metric["better"],
                                      metric["bound"])
        if outcome == WORSE:
            status = 1
        print(f"{name:<12} " + "  ".join(
            "/".join(f"{q:.2f}" for q in quartiles(values))
            for values in (parent, change))
            + f"  {wins:>2}/{pairs} {ties:>4}  {outcome}")
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    attempted = {side: sum(r["attempted"] for r in runs[side])
                 for side in runs}
    print(f"failed/attempted: parent {failed['parent']}/{attempted['parent']}"
          f", change {failed['change']}/{attempted['change']}\n")
    if (failed["change"] * attempted["parent"]
            > failed["parent"] * attempted["change"]):
        print("the change fails a larger share of operations")
        status = 1
    return status


def run_traces(trees: dict[str, pathlib.Path], spec: dict, workload: str,
               pairs: int, rows: list[str]) -> None:
    """``pairs`` alternating ``--trace 1`` pairs of one workload; print
    the named ``rows`` of every run (``-`` where a run lacks one), then
    both trees' medians."""
    width = max(12, *map(len, rows))
    values = {side: {row: [] for row in rows} for side in trees}
    print(f"# {workload}: {pairs} pairs x {spec['run_seconds']} s, "
          "--trace 1, seed = pair number")
    print("pair side   failed " + " ".join(f"{row:>{width}}" for row in rows))
    for pair, side, result in alternating_runs(trees, spec, workload, pairs,
                                               "1"):
        cells = []
        for row in rows:
            value = result["metrics"].get(row, {}).get("value")
            if value is None:
                cells.append(f"{'-':>{width}}")
            else:
                values[side][row].append(value)
                cells.append(f"{value:>{width}.3f}")
        print(f"{pair:>4} {side:<6} {result['failed']:>6} " + " ".join(cells),
              flush=True)

    print(f"\n{workload} (traced)")
    print(f"{'row':<{width}} {'parent median':>14} {'change median':>14}"
          f" {'change':>8}")
    for row in rows:
        before, after = (statistics.median(values[side][row])
                         if values[side][row] else None
                         for side in ("parent", "change"))
        cells = [f"{'-' if m is None else f'{m:.3f}':>14}"
                 for m in (before, after)]
        moved = (f"{(after - before) / before:+.1%}"
                 if before and after is not None else "-")
        print(f"{row:<{width}} {cells[0]} {cells[1]} {moved:>8}")
    print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", required=True, type=pathlib.Path,
                        help="checkout of the parent commit")
    parser.add_argument("--change", default=".", type=pathlib.Path,
                        help="checkout of the change (default: .)")
    parser.add_argument("--workload",
                        help="a workload, a comma-separated list of them, "
                             "or 'all' (every one BENCHMARK.json declares)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--counts", action="store_true",
                        help="compare digests and exact count rows "
                             "(smoke size, seeds 0 and 1) instead of timing")
    parser.add_argument("--trace", metavar="ROW[,ROW...]",
                        help="make the pairs --trace 1 runs and print these "
                             "ledger rows per run plus both medians, "
                             "instead of timing")
    args = parser.parse_args(argv)
    if not args.counts and not args.workload:
        parser.error("--workload is required unless --counts is given")
    if args.counts and args.trace:
        parser.error("--trace makes pairs; it does not combine with --counts")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent, "change": args.change}
    if args.counts:
        return run_counts(trees, spec["command"])
    try:
        workloads = select_workloads(spec, args.workload)
        rows = select_rows(spec, args.trace) if args.trace else None
    except ValueError as exc:
        parser.error(str(exc))
    if rows:
        for workload in workloads:
            run_traces(trees, spec, workload, args.pairs, rows)
        return 0
    status = 0
    for workload in workloads:
        status = max(status, run_pairs(trees, spec, workload, args.pairs))
    return status


if __name__ == "__main__":
    sys.exit(main())
