"""Statistics helpers for experiment outputs."""

from __future__ import annotations

import typing

from repro.core.metrics import LatencySummary


def summarize(values: typing.Sequence[float]) -> LatencySummary:
    """Distribution summary (mean/std/percentiles) of a sample."""
    return LatencySummary.of(values)


def reduction_pct(baseline: float, measured: float) -> float:
    """Latency reduction of ``measured`` vs ``baseline``, in percent.

    The paper's headline metrics: 52.28% (recognition), 75.86% (load).
    """
    if baseline <= 0:
        raise ValueError("baseline must be > 0")
    return 100.0 * (1.0 - measured / baseline)
