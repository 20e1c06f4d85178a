"""Places, users and co-location.

The paper's redundancy insights are spatial: "two safe-driving
applications are likely to recognize the same stop sign ... at the same
crossroads"; "two Pokemon Go players ... in the same place".  This module
models a world of :class:`Place` s, each exposing a set of visible object
classes, and users that move between places — users standing at the same
place observe the same objects, which is exactly what makes their IC
requests redundant.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import typing

import numpy as np

from repro.workload.zipf import ZipfSampler


@dataclasses.dataclass(frozen=True)
class Place:
    """A point of interest with a fixed set of visible objects.

    Attributes:
        place_id: Index in the world.
        x, y: Position in metres.
        object_classes: Classes observable here (e.g. the stop sign at
            this crossroads).  Popular classes appear at several places.
    """

    place_id: int
    x: float
    y: float
    object_classes: tuple

    def __post_init__(self) -> None:
        if not self.object_classes:
            raise ValueError("a place needs at least one object")


class World:
    """A square world of places drawing objects from a global popularity.

    Args:
        n_places: Number of points of interest.
        n_classes: Global object-class vocabulary size.
        objects_per_place: Distinct classes visible at each place.
        extent_m: World side length in metres.
        popularity_alpha: Zipf exponent for class-to-place assignment —
            higher alpha means the same landmark objects recur at many
            places (more cross-place redundancy).
        rng: Source of randomness.
    """

    def __init__(self, n_places: int, n_classes: int,
                 objects_per_place: int, rng: np.random.Generator,
                 extent_m: float = 1000.0, popularity_alpha: float = 0.8):
        if n_places < 1:
            raise ValueError("n_places must be >= 1")
        if objects_per_place < 1:
            raise ValueError("objects_per_place must be >= 1")
        if objects_per_place > n_classes:
            raise ValueError("objects_per_place cannot exceed n_classes")
        self.n_classes = n_classes
        self.extent_m = extent_m
        sampler = ZipfSampler(n_classes, popularity_alpha, rng)
        self.places: list[Place] = []
        for place_id in range(n_places):
            classes: set[int] = set()
            # Rejection-sample distinct classes from the popularity law.
            while len(classes) < objects_per_place:
                classes.add(sampler.sample())
            self.places.append(Place(
                place_id=place_id,
                x=float(rng.uniform(0, extent_m)),
                y=float(rng.uniform(0, extent_m)),
                object_classes=tuple(sorted(classes))))

    def place(self, place_id: int) -> Place:
        return self.places[place_id]

    def __len__(self) -> int:
        return len(self.places)


class Gravity:
    """One read-only gravity timetable that a whole crowd draws from.

    Args:
        n_places: Places in the world the weights cover.
        bias: Optional gravity weights, one per place.  The next
            waypoint is drawn proportionally to these (current place
            excluded) instead of uniformly — a hotspot with 10x the
            weight of everywhere else pulls the crowd the way a stadium
            or transit hub does, making handoff arrivals heavy-tailed.
        schedule: Optional piecewise timetable
            ``[(start_s, weights), ...]`` sorted by start time.  The
            weights active at the hop's departure time drive the draw,
            so the stadium fills before full time and empties after it.
            Before the first segment starts the static ``bias`` (or,
            with no bias, a uniform hop) applies.

    The weights are checked once and kept as read-only arrays.  A draw
    reads a cumulative row per (segment, current place), built on first
    use and kept read-only: ``n_places**2 * 8`` bytes per segment at
    most.  Each row is built exactly the way ``Generator.choice``
    builds its CDF from ``p = probs / total`` (``cdf = p.cumsum();
    cdf /= cdf[-1]``), and a draw searches it with one
    ``rng.random()``, as ``choice`` does, so it picks the same place
    from the same uniform and leaves the generator in the same state.
    That mirrors numpy's arithmetic rather than calling it: the
    properties in ``tests/property/test_mobility_properties.py``
    replay the ``choice``-based draw, with the uniform also put on
    every step of a row, and are what catches a numpy that changes it.
    """

    def __init__(self, n_places: int,
                 bias: typing.Sequence[float] | None = None,
                 schedule: typing.Sequence[
                     tuple[float, typing.Sequence[float]]] | None = None):
        self.n_places = n_places
        self.bias = self._check_weights(bias, "bias")
        self.starts: tuple[float, ...] = ()
        self.segments: tuple[np.ndarray, ...] = ()
        if schedule is not None:
            self.starts = tuple(float(start) for start, _ in schedule)
            self.segments = tuple(
                self._check_weights(w, f"bias_schedule[{k}]")
                for k, (_, w) in enumerate(schedule))
            if list(self.starts) != sorted(self.starts):
                raise ValueError("bias_schedule must be sorted by start time")
        # Segment 0 is the static bias; segment k the schedule's k-1st.
        self._weights = (self.bias, *self.segments)
        self._rows: dict[int, np.ndarray] = {}

    def _check_weights(self, weights, label: str) -> "np.ndarray | None":
        if weights is None:
            return None
        arr = np.array(weights, dtype=float)
        if arr.shape != (self.n_places,):
            raise ValueError(
                f"{label} needs one weight per place "
                f"({self.n_places}), got shape {arr.shape}")
        if not ((arr >= 0) & (arr < np.inf)).all():
            raise ValueError(f"{label} weights must be finite and >= 0")
        if arr.sum() <= 0:
            raise ValueError(f"{label} weights must not all be zero")
        arr.flags.writeable = False
        return arr

    def _segment(self, when: float) -> int:
        return bisect.bisect_right(self.starts, when)

    def weights_at(self, when: float) -> "np.ndarray | None":
        """The gravity weights in force at time ``when`` (None: uniform)."""
        return self._weights[self._segment(when)]

    def draw(self, rng: np.random.Generator, current: int,
             when: float) -> int:
        """The next waypoint after ``current`` for a hop at ``when``."""
        segment = self._segment(when)
        key = segment * self.n_places + current
        cdf = self._rows.get(key)
        if cdf is None:
            weights = self._weights[segment]
            if weights is None:
                return _uniform_hop(rng, self.n_places, current)
            cdf = self._rows[key] = _cdf_row(weights, current)
        if cdf.size == 0:
            # All the mass sits on the current place: stay-at-hotspot
            # degenerates to a uniform hop away.
            return _uniform_hop(rng, self.n_places, current)
        return int(cdf.searchsorted(rng.random(), side="right"))


def _cdf_row(weights: np.ndarray, current: int) -> np.ndarray:
    """``Generator.choice``'s CDF for a hop away from ``current``.

    Empty when every other place has zero weight.
    """
    probs = weights.copy()
    probs[current] = 0.0
    total = probs.sum()
    if total <= 0:
        cdf = np.empty(0)
    else:
        cdf = (probs / total).cumsum()
        cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def _uniform_hop(rng: np.random.Generator, n_places: int,
                 current: int) -> int:
    nxt = int(rng.integers(n_places))
    while nxt == current:
        nxt = int(rng.integers(n_places))
    return nxt


class RandomWaypointUser:
    """A user hopping between places with exponentially distributed dwell.

    Args:
        name: User/device name (matches a deployment client name).
        world: The world to move in.
        rng: Source of randomness.
        mean_dwell_s: Average time spent at a place before moving.
        home_place: Starting place (random if None).
        gravity: Optional :class:`Gravity` timetable for ``world`` that
            draws each next waypoint.  One instance can serve a whole
            crowd.  None keeps the classic uniform random-waypoint model
            (bit-identical to the pre-bias implementation).
    """

    def __init__(self, name: str, world: World, rng: np.random.Generator,
                 mean_dwell_s: float = 60.0, home_place: int | None = None,
                 gravity: Gravity | None = None):
        if not 0 < mean_dwell_s < math.inf:
            raise ValueError("mean_dwell_s must be finite and > 0")
        if gravity is not None and gravity.n_places != len(world):
            raise ValueError(
                f"gravity covers {gravity.n_places} places, "
                f"the world has {len(world)}")
        self.name = name
        self.world = world
        self._rng = rng
        self.mean_dwell_s = mean_dwell_s
        self.place_id = (int(rng.integers(len(world)))
                         if home_place is None else home_place)
        self.gravity = gravity

    def itinerary(self, duration_s: float) -> list[tuple[float, int]]:
        """[(arrival_time_s, place_id), ...] covering ``duration_s``.

        The first entry is (0, starting place).
        """
        if not 0 < duration_s < math.inf:
            raise ValueError("duration_s must be finite and > 0")
        stops = [(0.0, self.place_id)]
        t = float(self._rng.exponential(self.mean_dwell_s))
        current = self.place_id
        n_places = len(self.world)
        while t < duration_s:
            if n_places > 1:
                current = self._next_place(current, t)
            stops.append((t, current))
            t += float(self._rng.exponential(self.mean_dwell_s))
        return stops

    def _next_place(self, current: int, when: float = 0.0) -> int:
        """Draw the next waypoint: uniform, or gravity-biased."""
        if self.gravity is None:
            return _uniform_hop(self._rng, len(self.world), current)
        return self.gravity.draw(self._rng, current, when)

    @staticmethod
    def place_at(itinerary: list[tuple[float, int]], when: float) -> int:
        """The place a user with ``itinerary`` occupies at time ``when``."""
        place = itinerary[0][1]
        for arrival, place_id in itinerary:
            if arrival > when:
                break
            place = place_id
        return place
