"""Unit tests for repro.workload.mobility."""

import numpy as np
import pytest

from repro.core.scenario import MobilitySpec
from repro.workload.mobility import Gravity, Place, RandomWaypointUser, World


@pytest.fixture
def world():
    return World(n_places=5, n_classes=50, objects_per_place=6,
                 rng=np.random.default_rng(0))


class TestWorld:
    def test_shape(self, world):
        assert len(world) == 5
        for place in world.places:
            assert len(place.object_classes) == 6
            assert all(0 <= c < 50 for c in place.object_classes)

    def test_objects_distinct_within_place(self, world):
        for place in world.places:
            assert len(set(place.object_classes)) == 6

    def test_popular_objects_shared_across_places(self):
        """High alpha => the same landmark classes recur at many places."""
        rng = np.random.default_rng(1)
        world = World(n_places=20, n_classes=100, objects_per_place=5,
                      rng=rng, popularity_alpha=1.4)
        counts = {}
        for place in world.places:
            for cls in place.object_classes:
                counts[cls] = counts.get(cls, 0) + 1
        assert max(counts.values()) >= 3

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            World(0, 10, 2, rng)
        with pytest.raises(ValueError):
            World(3, 10, 11, rng)

    def test_place_needs_objects(self):
        with pytest.raises(ValueError):
            Place(0, 0.0, 0.0, ())


class TestRandomWaypoint:
    def test_itinerary_starts_at_zero(self, world):
        user = RandomWaypointUser("u", world, np.random.default_rng(2))
        itinerary = user.itinerary(300)
        assert itinerary[0][0] == 0.0

    def test_itinerary_times_increase(self, world):
        user = RandomWaypointUser("u", world, np.random.default_rng(3))
        times = [t for t, _ in user.itinerary(600)]
        assert times == sorted(times)

    def test_moves_change_place(self, world):
        user = RandomWaypointUser("u", world, np.random.default_rng(4),
                                  mean_dwell_s=10)
        itinerary = user.itinerary(500)
        for (_, a), (_, b) in zip(itinerary, itinerary[1:]):
            assert a != b

    def test_place_at_lookup(self, world):
        itinerary = [(0.0, 2), (10.0, 4), (20.0, 1)]
        assert RandomWaypointUser.place_at(itinerary, 5) == 2
        assert RandomWaypointUser.place_at(itinerary, 10) == 4
        assert RandomWaypointUser.place_at(itinerary, 99) == 1

    def test_home_place_respected(self, world):
        user = RandomWaypointUser("u", world, np.random.default_rng(5),
                                  home_place=3)
        assert user.itinerary(10)[0][1] == 3

    def test_validation(self, world):
        with pytest.raises(ValueError):
            RandomWaypointUser("u", world, np.random.default_rng(0),
                               mean_dwell_s=0)


class TestGravityBias:
    def test_biased_hops_concentrate_on_the_hotspot(self, world):
        # Place 0 carries 50x the gravity of everywhere else: visits
        # should be heavily skewed toward it (vs ~1/5 under uniform).
        bias = (50.0, 1.0, 1.0, 1.0, 1.0)
        user = RandomWaypointUser("u", world, np.random.default_rng(7),
                                  mean_dwell_s=1.0, home_place=1,
                                  gravity=Gravity(5, bias))
        places = [p for _, p in user.itinerary(2000)]
        share = places.count(0) / len(places)
        assert share > 0.4

    def test_bias_never_picks_the_current_place(self, world):
        bias = (1000.0, 1.0, 1.0, 1.0, 1.0)
        user = RandomWaypointUser("u", world, np.random.default_rng(8),
                                  mean_dwell_s=1.0, home_place=0,
                                  gravity=Gravity(5, bias))
        itinerary = user.itinerary(500)
        for (_, a), (_, b) in zip(itinerary, itinerary[1:]):
            assert a != b

    def test_all_mass_on_current_place_hops_uniformly(self, world):
        # Degenerate gravity: every other place has zero weight.  The
        # user still moves (uniform fallback) instead of dividing by 0.
        bias = (1.0, 0.0, 0.0, 0.0, 0.0)
        user = RandomWaypointUser("u", world, np.random.default_rng(9),
                                  mean_dwell_s=1.0, home_place=0,
                                  gravity=Gravity(5, bias))
        places = [p for _, p in user.itinerary(200)]
        assert len(places) > 1

    def test_unbiased_matches_legacy_sampling(self, world):
        # gravity=None must keep the exact pre-bias draw sequence:
        # compare against an inline transcription of the legacy sampling
        # loop driven by an identically seeded generator.
        user = RandomWaypointUser("u", world, np.random.default_rng(5),
                                  mean_dwell_s=5.0, home_place=2,
                                  gravity=None)
        actual = user.itinerary(400)

        rng = np.random.default_rng(5)
        stops = [(0.0, 2)]
        t = float(rng.exponential(5.0))
        current = 2
        while t < 400:
            nxt = int(rng.integers(len(world)))
            while nxt == current:
                nxt = int(rng.integers(len(world)))
            current = nxt
            stops.append((t, current))
            t += float(rng.exponential(5.0))
        assert actual == stops

    def test_bias_validation(self):
        with pytest.raises(ValueError, match=r"bias needs one weight per "
                           r"place \(5\), got shape \(2,\)"):
            Gravity(5, bias=(1.0, 2.0))
        with pytest.raises(ValueError,
                           match="bias weights must be finite and >= 0"):
            Gravity(5, bias=(1.0, -1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError,
                           match="bias weights must not all be zero"):
            Gravity(5, bias=(0.0, 0.0, 0.0, 0.0, 0.0))

    def test_gravity_must_cover_the_world(self, world):
        with pytest.raises(ValueError, match="gravity covers 4 places"):
            RandomWaypointUser("u", world, np.random.default_rng(0),
                               gravity=Gravity(4, bias=(1.0,) * 4))


class TestBiasSchedule:
    def test_schedule_segments_take_effect_at_their_start(self, world):
        # Act 1 (t < 1000): uniform.  Act 2 (t >= 1000): place 0 has
        # 50x gravity.  Hops drawn after the switch concentrate there.
        schedule = ((0.0, (1.0,) * 5),
                    (1000.0, (50.0, 1.0, 1.0, 1.0, 1.0)))
        user = RandomWaypointUser("u", world, np.random.default_rng(3),
                                  mean_dwell_s=1.0, home_place=1,
                                  gravity=Gravity(5, schedule=schedule))
        stops = user.itinerary(3000)
        act1 = [p for t, p in stops if 0 < t < 1000]
        act2 = [p for t, p in stops if t >= 1000]
        assert act1.count(0) / len(act1) < 0.35
        assert act2.count(0) / len(act2) > 0.4

    def test_static_bias_applies_before_first_segment(self, world):
        # The schedule only starts at t=500; until then the static bias
        # (hotspot on place 2) governs the draw.
        user = RandomWaypointUser(
            "u", world, np.random.default_rng(11), mean_dwell_s=1.0,
            home_place=0, gravity=Gravity(
                5, bias=(1.0, 1.0, 50.0, 1.0, 1.0),
                schedule=((500.0, (1.0,) * 5),)))
        stops = user.itinerary(1500)
        early = [p for t, p in stops if 0 < t < 500]
        assert early.count(2) / len(early) > 0.4

    def test_weights_in_force_follow_the_timetable(self):
        gravity = Gravity(5, bias=(1.0, 1.0, 50.0, 1.0, 1.0),
                          schedule=((500.0, (1.0,) * 5),
                                    (900.0, (2.0,) * 5)))
        assert gravity.weights_at(0.0) is gravity.bias
        assert gravity.weights_at(500.0) is gravity.segments[0]
        assert gravity.weights_at(899.0) is gravity.segments[0]
        assert gravity.weights_at(1e9) is gravity.segments[1]
        assert Gravity(5).weights_at(0.0) is None

    def test_unsorted_schedule_rejected(self):
        with pytest.raises(ValueError, match="bias_schedule must be sorted "
                           "by start time"):
            Gravity(5, schedule=((10.0, (1.0,) * 5), (0.0, (1.0,) * 5)))

    def test_segment_weights_validated(self):
        with pytest.raises(ValueError, match=r"bias_schedule\[0\] needs "
                           r"one weight per place \(5\), got shape \(2,\)"):
            Gravity(5, schedule=((0.0, (1.0, 2.0)),))


_INF, _NAN = float("inf"), float("nan")


def _user(world, **kwargs):
    return RandomWaypointUser("u", world, np.random.default_rng(0), **kwargs)


@pytest.mark.parametrize("build", [
    pytest.param(lambda w: MobilitySpec(duration_s=_INF), id="spec-duration"),
    pytest.param(lambda w: MobilitySpec(mean_dwell_s=_INF), id="spec-dwell"),
    pytest.param(lambda w: MobilitySpec(handoff_latency_s=_INF),
                 id="spec-handoff"),
    pytest.param(lambda w: MobilitySpec(extent_m=_INF), id="spec-extent"),
    pytest.param(lambda w: MobilitySpec(extent_m=_NAN), id="spec-extent-nan"),
    pytest.param(lambda w: MobilitySpec(n_places=2, bias=(1.0, _INF)),
                 id="spec-bias"),
    pytest.param(lambda w: MobilitySpec(
        n_places=2, bias_schedule=((0.0, (_INF, 1.0)),)), id="spec-schedule"),
    pytest.param(lambda w: _user(w, mean_dwell_s=_INF), id="user-dwell"),
    pytest.param(lambda w: Gravity(5, bias=(1.0, 1.0, _INF, 1.0, 1.0)),
                 id="gravity-bias"),
    pytest.param(lambda w: Gravity(5, schedule=[
        (0.0, (1.0, _NAN, 1.0, 1.0, 1.0))]), id="gravity-schedule"),
    pytest.param(lambda w: _user(w).itinerary(_INF), id="user-itinerary"),
    pytest.param(lambda w: _user(w).itinerary(_NAN), id="user-itinerary-nan"),
])
def test_non_finite_mobility_values_are_rejected(world, build):
    """An infinite duration used to loop forever and an infinite weight to
    die in the draw with NaN probabilities; both now fail up front."""
    with pytest.raises(ValueError, match="finite"):
        build(world)
