"""Measuring helpers shared by the two drivers.

The box the benchmark runs on is a small shared VM: its speed moves by
tens of percent for seconds at a time and stalls for milliseconds at a
time, and none of that shows inside the VM (no steal, the other core
idle).  A median over a 12 s window inherits all of it.  Two things
make a run repeat instead:

* the measured window is cut into *work units* of 10-50 ms, and the
  run reports the cost of its least-disturbed units — the
  ``FAST_PERCENT`` percentile of unit costs, not their median;
* a fixed *reference unit* (the benchmark's own code, nothing of the
  program's) runs between work units all through the window, and the
  reported cost is the ratio of the two fast percentiles, scaled to
  ``REFERENCE_NOMINAL_S``: time on a machine on which the reference
  unit takes exactly that long.

So a throughput here reads "requests per second of reference-machine
time".  It compares commits on one seed and one benchmark; it is not a
capacity figure for any real machine.
"""

from __future__ import annotations

import dataclasses
import resource
import time

#: Which percentile of unit costs counts as "undisturbed".
FAST_PERCENT = 3.0
#: Seconds the reference unit takes at that percentile on the box the
#: README's numbers were taken on; every reported time is scaled to it.
REFERENCE_NOMINAL_S = 0.0090
#: A reference unit runs whenever this much work time has passed.
REFERENCE_EVERY_S = 0.05


def reference_unit() -> float:
    """Run the fixed reference kernel; its wall seconds.

    Plain interpreter work (ints, a dict), about as long as a work
    unit.  A memory-bound part (a matrix scan) was tried and dropped:
    memory bandwidth on this box wanders independently of interpreter
    speed, and dividing an interpreter-bound workload by it tripled
    that workload's spread.
    """
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(100000):
        total += i * i
        table[i & 1023] = total
    return time.perf_counter() - start


class Samples:
    """Work-unit costs of one window with the interleaved references.

    A window may hold several kinds of work unit (a real workload
    alternates closed-loop bursts and open-loop slices); each kind is
    one named series, all share the window's reference units.
    """

    def __init__(self) -> None:
        self.costs: dict[str, list[float]] = {}
        self.references: list[float] = []
        self._last_reference = float("-inf")

    def calibrate(self) -> None:
        """Run a reference unit if one is due; call between work units."""
        if time.perf_counter() - self._last_reference >= REFERENCE_EVERY_S:
            self.references.append(reference_unit())
            self._last_reference = time.perf_counter()

    def add(self, series: str, cost: float) -> None:
        self.costs.setdefault(series, []).append(cost)

    def fast_reference_s(self) -> float:
        return percentile(self.references, FAST_PERCENT)

    def fast_cost(self, series: str) -> float:
        """Cost of the least-disturbed units, in reference-machine time."""
        return (percentile(self.costs[series], FAST_PERCENT)
                / self.fast_reference_s() * REFERENCE_NOMINAL_S)

    def disturbance(self) -> float:
        """Mean over fast reference time: 1.0 on a quiet box."""
        return (sum(self.references) / len(self.references)
                / self.fast_reference_s())


@dataclasses.dataclass(frozen=True)
class Budget:
    """How long a measured phase runs: wall seconds, or a unit count.

    ``seconds`` is what the benchmark reports from; ``units`` fixes the
    amount of work instead, so two runs of one seed do exactly the same
    requests (``--smoke``, ``--check``).
    """

    seconds: float | None = None
    units: int | None = None

    def __post_init__(self) -> None:
        if (self.seconds is None) == (self.units is None):
            raise ValueError("give exactly one of seconds and units")

    def share(self, fraction: float) -> "Budget":
        """This budget's ``fraction``, at least one unit."""
        if self.seconds is not None:
            return Budget(seconds=self.seconds * fraction)
        return Budget(units=max(1, round(self.units * fraction)))

    def deadline(self) -> float:
        """``perf_counter`` instant the phase ends (inf when counted)."""
        if self.seconds is None:
            return float("inf")
        return time.perf_counter() + self.seconds

    def max_units(self) -> float:
        return float("inf") if self.units is None else self.units


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_kb() -> float:
    """Resident set of this process right now."""
    with open("/proc/self/statm", "r", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 1024.0


def median(values) -> float:
    return percentile(values, 50.0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return float(ordered[int(round(q / 100.0 * (len(ordered) - 1)))])
