"""The redundancy measurement behind the paper's 30-app study.

Section 1.2: "we analyzed more than 30 popular mobile VR/AR applications
... to understand the user interactions and computation workload",
deriving three insights (shared recognition inputs, shared 3D models,
shared panoramas).  We cannot re-crawl 2018 app stores; this module
provides the measurement that motivated CoIC: how much of an offered IC
request stream is redundant.
"""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass(frozen=True)
class RedundancyStats:
    """Outcome of a redundancy measurement over a request stream."""

    total: int
    redundant: int
    distinct_keys: int

    @property
    def ratio(self) -> float:
        return self.redundant / self.total if self.total else 0.0


def redundancy_report(requests: typing.Sequence,
                      key_fn: typing.Callable[[typing.Any], typing.Hashable],
                      window_s: float | None = None,
                      time_fn: typing.Callable[[typing.Any], float]
                      | None = None) -> RedundancyStats:
    """Measure repeat-key requests in a stream.

    A request is *redundant* if its key appeared before — within the last
    ``window_s`` seconds if given (a cache has finite retention), else
    ever.  ``time_fn`` extracts timestamps (required with a window).
    """
    if window_s is not None and time_fn is None:
        raise ValueError("window_s requires time_fn")
    last_seen: dict[typing.Hashable, float] = {}
    redundant = 0
    for req in requests:
        key = key_fn(req)
        now = time_fn(req) if time_fn is not None else 0.0
        previous = last_seen.get(key)
        if previous is not None and (window_s is None
                                     or now - previous <= window_s):
            redundant += 1
        last_seen[key] = now
    return RedundancyStats(total=len(requests), redundant=redundant,
                           distinct_keys=len(last_seen))
