"""Command-line interface: run experiments and quick demos.

Usage::

    python -m repro list                       # registered experiments
    python -m repro run fig2a                  # regenerate a figure
    python -m repro run sharing --seed 3
    python -m repro demo --wifi 90 --backhaul 9   # one miss/hit pair
    python -m repro scenario city.json --duration 120   # run a spec file

Output is the same plain-text tables the benches print, so the CLI is
the fastest way to poke at a parameter without writing a script.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing

from repro.eval.runner import experiment_names, run_experiment
from repro.eval.tables import format_table


def _rows_to_table(result: typing.Any) -> str:
    """Render an experiment result (dataclass rows) as a table."""
    rows = getattr(result, "rows", result)
    if not isinstance(rows, (list, tuple)) or not rows:
        return repr(result)
    first = rows[0]
    if not dataclasses.is_dataclass(first):
        return "\n".join(repr(r) for r in rows)
    fields = [f.name for f in dataclasses.fields(first)]
    body = []
    for row in rows:
        rendered = []
        for name in fields:
            value = getattr(row, name)
            if isinstance(value, float):
                rendered.append(f"{value:.3f}")
            else:
                rendered.append(str(value))
        body.append(rendered)
    return format_table(fields, body)


def cmd_list(_args: argparse.Namespace) -> int:
    for name in experiment_names():
        print(name)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    kwargs: dict = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    try:
        result = run_experiment(args.experiment, **kwargs)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(_rows_to_table(result))
    chart = _figure_chart(args.experiment, result)
    if chart:
        print()
        print(chart)
    extras = [(name, getattr(result, name)) for name in
              ("max_reduction_pct", "paper_max_reduction_pct")
              if hasattr(result, name)]
    for name, value in extras:
        print(f"{name}: {value:.2f}")
    return 0


def _figure_chart(name: str, result: typing.Any) -> str | None:
    """Paper-style grouped bars for the two reproduced figures."""
    from repro.eval.charts import bar_chart

    rows = getattr(result, "rows", None)
    if not rows:
        return None
    if name == "fig2a":
        groups = [f"({r.wifi_mbps:.0f},{r.backhaul_mbps:.0f})"
                  for r in rows]
    elif name == "fig2b":
        groups = [f"{r.size_kb}KB" for r in rows]
    else:
        return None
    series = {
        "Origin": [r.origin_ms for r in rows],
        "Cache Hit": [r.hit_ms for r in rows],
        "Cache Miss": [r.miss_ms for r in rows],
    }
    title = ("Figure 2a - recognition latency" if name == "fig2a"
             else "Figure 2b - 3D model load latency")
    return bar_chart(title, groups, series)


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import ClusterDeployment, CoICConfig, ScenarioSpec

    config = CoICConfig(seed=args.seed or 0)
    config.network.wifi_mbps = args.wifi
    config.network.backhaul_mbps = args.backhaul
    config.recognition.speculative_forward = True
    deployment = ClusterDeployment(ScenarioSpec.single_edge(2), config=config)

    origin = deployment.run_tasks(
        deployment.origin_clients[0],
        [deployment.recognition_task(1, viewpoint=-0.3)])[0]
    miss = deployment.run_tasks(
        deployment.all_clients[0],
        [deployment.recognition_task(1, viewpoint=-0.3)])[0]
    hit = deployment.run_tasks(
        deployment.all_clients[1],
        [deployment.recognition_task(1, viewpoint=0.3)])[0]

    rows = [[r.outcome, f"{r.latency_s * 1e3:.0f}"]
            for r in (origin, miss, hit)]
    print(format_table(["path", "latency ms"], rows,
                       title=f"recognition at ({args.wifi:g}, "
                             f"{args.backhaul:g}) Mbps"))
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    from repro.core import CoICConfig
    from repro.core.cluster import ClusterDeployment
    from repro.core.scenario import load_spec
    from repro.eval.experiments.mobility_exp import drive_scenario

    try:
        spec = load_spec(args.spec)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"bad scenario spec: {exc}", file=sys.stderr)
        return 2
    config = CoICConfig(seed=args.seed or 0)
    if args.wifi is not None:
        config.network.wifi_mbps = args.wifi
    if args.backhaul is not None:
        config.network.backhaul_mbps = args.backhaul
    backend = args.backend or spec.backend
    if backend == "real":
        return _run_real_scenario(spec, config, args)
    deployment = ClusterDeployment(spec, config=config)
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        drive_scenario(deployment, duration_s=args.duration,
                       request_interval_s=args.interval)
        profiler.disable()
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    else:
        drive_scenario(deployment, duration_s=args.duration,
                       request_interval_s=args.interval)

    _print_report(
        deployment.recorder,
        f"scenario: {len(deployment.edges)} edges, "
        f"{len(deployment.all_clients)} clients",
        [(name, {**edge.counts, "cache_entries": len(edge.cache)})
         for name, edge in zip(deployment.edge_names, deployment.edges)])
    print(f"handoffs: {len(deployment.handoff_log)}")
    return 0


#: The reply outcomes the per-edge counts table shows.
_OUTCOMES = ("hit", "miss", "partial", "shed", "error")


def _print_report(recorder, title: str,
                  per_edge: typing.Sequence[tuple[str, dict]]) -> None:
    """The scenario report on either backend: outcome latencies, hit
    ratio and each edge's reply outcomes and cache entries (``-`` for an
    edge that reported nothing)."""
    rows = []
    for kind in sorted({r.task_kind for r in recorder.records}):
        for outcome in sorted({r.outcome for r in
                               recorder.select(task_kind=kind)}):
            s = recorder.summary(task_kind=kind, outcome=outcome)
            rows.append([kind, outcome, str(s.n), f"{s.mean * 1e3:.1f}",
                         f"{s.p95 * 1e3:.1f}"])
    print(format_table(["task", "outcome", "n", "mean ms", "p95 ms"], rows,
                       title=title))
    print(f"\nhit ratio: {recorder.hit_ratio():.3f}\n")
    columns = (*_OUTCOMES, "cache_entries")
    print(format_table(
        ["edge", *columns],
        [[name, *(str(counts.get(c, 0)) if counts else "-"
                  for c in columns)] for name, counts in per_edge],
        title="per-edge counts"))
    print()


# Spawns real OS processes: exercised by CI's real-backend job (CLI
# end-to-end step), which the hermetic coverage job does not run.
def _run_real_scenario(spec, config, args) -> int:  # pragma: no cover
    """`repro scenario --backend real`: deploy over real sockets.

    The closed-loop trace length approximates the simulated run's
    request budget: ``duration / interval`` requests per client.
    """
    from repro.backend.runner import run_real_scenario

    duration = args.duration if args.duration is not None else 60.0
    requests_per_client = max(1, int(duration / max(args.interval, 1e-9)))
    result = run_real_scenario(spec, config=config,
                               requests_per_client=requests_per_client,
                               pace_s=args.interval,
                               mode="process")
    _print_report(result.recorder,
                  f"scenario (real backend): {len(spec.edges)} edge "
                  f"processes",
                  list(zip(spec.edge_names, result.edge_counters)))
    print(f"wall clock: {result.wall_s:.2f} s "
          f"({result.requests_per_sec:.1f} requests/s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CoIC reproduction: experiments and demos")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", help="experiment name (see `list`)")
    run_p.add_argument("--seed", type=int, default=None)

    demo_p = sub.add_parser("demo", help="one origin/miss/hit triple")
    demo_p.add_argument("--wifi", type=float, default=90.0,
                        help="mobile->edge bandwidth, Mbps")
    demo_p.add_argument("--backhaul", type=float, default=9.0,
                        help="edge->cloud bandwidth, Mbps")
    demo_p.add_argument("--seed", type=int, default=None)

    scen_p = sub.add_parser(
        "scenario",
        help="build and run a ScenarioSpec from a JSON/YAML dict file")
    scen_p.add_argument("spec", help="path to a spec file (or inline JSON)")
    scen_p.add_argument("--duration", type=float, default=None,
                        help="simulated seconds to run (default: the "
                             "spec's mobility duration, else 60)")
    scen_p.add_argument("--interval", type=float, default=2.0,
                        help="per-client think time between requests, s")
    scen_p.add_argument("--wifi", type=float, default=None,
                        help="mobile->edge bandwidth override, Mbps")
    scen_p.add_argument("--backhaul", type=float, default=None,
                        help="edge->cloud bandwidth override, Mbps")
    scen_p.add_argument("--seed", type=int, default=None)
    scen_p.add_argument("--backend", choices=("sim", "real"), default=None,
                        help="execution backend: the deterministic "
                             "simulation (default) or a real multiprocess "
                             "asyncio deployment over localhost sockets; "
                             "overrides the spec's backend field")
    scen_p.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top 25 "
                             "functions by cumulative time (find out "
                             "where a slow scenario spends its wall "
                             "clock before reaching for a bigger box)")
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"list": cmd_list, "run": cmd_run, "demo": cmd_demo,
                "scenario": cmd_scenario}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
