"""Experiment registry and seed-replication runner.

Gives every experiment a name, so scripts, the CLI and notebooks can do

    from repro.eval.runner import run_experiment
    rows = run_experiment("fig2a")

and replicate any of them across seeds with confidence intervals::

    replicate("sharing", seeds=range(5),
              metric=lambda rows: rows[-1].hit_ratio)
"""

from __future__ import annotations

import dataclasses
import typing

from repro.eval.stats import mean_confidence_interval

#: name -> zero-config callable returning that experiment's rows/result.
_REGISTRY: dict[str, typing.Callable] = {}


def register(name: str):
    """Decorator: expose a runner function under ``name``."""

    def wrap(fn):
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} already registered")
        _REGISTRY[name] = fn
        return fn

    return wrap


def _bootstrap() -> None:
    """Populate the registry from the experiment modules (idempotent)."""
    if _REGISTRY:
        return
    from repro.eval.experiments.affinity_exp import run_affinity
    from repro.eval.experiments.city_scale import run_city_scale
    from repro.eval.experiments.eviction import run_eviction
    from repro.eval.experiments.federation_economics import (
        run_federation_economics,
    )
    from repro.eval.experiments.federation_exp import run_federation
    from repro.eval.experiments.fig2a import run_fig2a
    from repro.eval.experiments.fig2b import run_fig2b
    from repro.eval.experiments.index_scaling import run_index_scaling
    from repro.eval.experiments.layer_reuse_exp import run_layer_reuse
    from repro.eval.experiments.layers import run_layer_cache
    from repro.eval.experiments.mobility_exp import run_mobility
    from repro.eval.experiments.motivation import run_motivation
    from repro.eval.experiments.overload_exp import run_overload
    from repro.eval.experiments.panorama_exp import run_panorama
    from repro.eval.experiments.privacy_exp import run_privacy
    from repro.eval.experiments.real_throughput import run_real_throughput
    from repro.eval.experiments.sharing import run_sharing
    from repro.eval.experiments.speculative import run_speculative
    from repro.eval.experiments.thresholds import run_threshold_sweep

    _REGISTRY.update({
        "fig2a": run_fig2a,
        "fig2b": run_fig2b,
        "thresholds": run_threshold_sweep,
        "sharing": run_sharing,
        "eviction": run_eviction,
        "layers": run_layer_cache,
        "privacy": run_privacy,
        "panorama": run_panorama,
        "index": run_index_scaling,
        "speculative": run_speculative,
        "federation": run_federation,
        "mobility": run_mobility,
        "overload": run_overload,
        "affinity": run_affinity,
        "city_scale": run_city_scale,
        "layer_reuse": run_layer_reuse,
        "federation_economics": run_federation_economics,
        "real_throughput": run_real_throughput,
        "motivation": run_motivation,
    })


def experiment_names() -> list[str]:
    """All registered experiment names, sorted."""
    _bootstrap()
    return sorted(_REGISTRY)


def run_experiment(name: str, **kwargs) -> typing.Any:
    """Run the named experiment with optional keyword overrides."""
    _bootstrap()
    try:
        runner = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; "
            f"choose from {experiment_names()}") from None
    return runner(**kwargs)


@dataclasses.dataclass(frozen=True)
class Replication:
    """Outcome of a seed sweep over one scalar metric."""

    experiment: str
    seeds: tuple
    values: tuple
    mean: float
    ci_low: float
    ci_high: float


def replicate(name: str, seeds: typing.Iterable[int],
              metric: typing.Callable[[typing.Any], float],
              confidence: float = 0.95, **kwargs) -> Replication:
    """Run an experiment once per seed, summarize one metric.

    Args:
        name: Registered experiment.
        seeds: Seeds to sweep.
        metric: Extracts the scalar of interest from the result.
        confidence: CI level.
        kwargs: Forwarded to the experiment on every run.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    values = tuple(float(metric(run_experiment(name, seed=seed, **kwargs)))
                   for seed in seeds)
    mean, low, high = mean_confidence_interval(values, confidence)
    return Replication(experiment=name, seeds=seeds, values=values,
                       mean=mean, ci_low=low, ci_high=high)
