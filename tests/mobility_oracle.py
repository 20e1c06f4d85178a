"""The per-user waypoint draw and the per-call place scans, kept verbatim.

:class:`ReferenceWaypointUser` is ``RandomWaypointUser`` as it was
before one :class:`~repro.workload.mobility.Gravity` timetable drew for
the whole crowd: each user checks its own weights and every gravity hop
calls ``Generator.choice(n, p=probs / total)``.
:func:`nearest_edge_scan` and :func:`home_place_scan` are the scans the
deployment ran per itinerary stop and per client before it kept one
table of each.  The core and property tests hold the program to these:
same itineraries, same generator state afterwards, same tables.
"""

import math
import typing

import numpy as np


class ReferenceWaypointUser:
    """The pre-``Gravity`` random-waypoint user (bias and schedule)."""

    def __init__(self, name, world, rng: np.random.Generator,
                 mean_dwell_s: float = 60.0, home_place: int | None = None,
                 bias: typing.Sequence[float] | None = None,
                 bias_schedule: typing.Sequence[
                     tuple[float, typing.Sequence[float]]] | None = None):
        if not 0 < mean_dwell_s < math.inf:
            raise ValueError("mean_dwell_s must be finite and > 0")
        self.name = name
        self.world = world
        self._rng = rng
        self.mean_dwell_s = mean_dwell_s
        self.place_id = (int(rng.integers(len(world)))
                         if home_place is None else home_place)
        self._bias = self._check_weights(bias, "bias")
        self._schedule: list[tuple[float, np.ndarray]] | None = None
        if bias_schedule is not None:
            segments = [(float(start),
                         self._check_weights(w, f"bias_schedule[{k}]"))
                        for k, (start, w) in enumerate(bias_schedule)]
            starts = [s for s, _ in segments]
            if starts != sorted(starts):
                raise ValueError("bias_schedule must be sorted by start time")
            self._schedule = segments

    def _check_weights(self, weights, label: str) -> "np.ndarray | None":
        if weights is None:
            return None
        arr = np.asarray(weights, dtype=float)
        if arr.shape != (len(self.world),):
            raise ValueError(
                f"{label} needs one weight per place "
                f"({len(self.world)}), got shape {arr.shape}")
        if not ((arr >= 0) & (arr < np.inf)).all():
            raise ValueError(f"{label} weights must be finite and >= 0")
        if arr.sum() <= 0:
            raise ValueError(f"{label} weights must not all be zero")
        return arr

    def itinerary(self, duration_s: float) -> list[tuple[float, int]]:
        if not 0 < duration_s < math.inf:
            raise ValueError("duration_s must be finite and > 0")
        stops = [(0.0, self.place_id)]
        t = float(self._rng.exponential(self.mean_dwell_s))
        current = self.place_id
        while t < duration_s:
            if len(self.world) > 1:
                current = self._next_place(current, t)
            stops.append((t, current))
            t += float(self._rng.exponential(self.mean_dwell_s))
        return stops

    def _gravity_at(self, when: float) -> "np.ndarray | None":
        if self._schedule is not None:
            active = None
            for start, weights in self._schedule:
                if start > when:
                    break
                active = weights
            if active is not None:
                return active
        return self._bias

    def _next_place(self, current: int, when: float = 0.0) -> int:
        gravity = self._gravity_at(when)
        if gravity is None:
            nxt = int(self._rng.integers(len(self.world)))
            while nxt == current:
                nxt = int(self._rng.integers(len(self.world)))
            return nxt
        probs = gravity.copy()
        probs[current] = 0.0
        total = probs.sum()
        if total <= 0:
            nxt = int(self._rng.integers(len(self.world)))
            while nxt == current:
                nxt = int(self._rng.integers(len(self.world)))
            return nxt
        return int(self._rng.choice(len(self.world), p=probs / total))


def nearest_edge_scan(spec, world, place_id: int) -> str:
    """The edge closest to a world place (ties go to spec order)."""
    place = world.place(place_id)
    best, best_d2 = None, float("inf")
    for espec in spec.edges:
        d2 = (espec.x - place.x) ** 2 + (espec.y - place.y) ** 2
        if d2 < best_d2:
            best, best_d2 = espec.name, d2
    return best


def home_place_scan(spec, world, edge_name: str) -> int:
    """The world place nearest an edge (ties go to place order)."""
    espec = spec.edge(edge_name)
    best, best_d2 = 0, float("inf")
    for place in world.places:
        d2 = (espec.x - place.x) ** 2 + (espec.y - place.y) ** 2
        if d2 < best_d2:
            best, best_d2 = place.place_id, d2
    return best
