"""One shared gravity timetable draws what every user's own draw drew.

:class:`~repro.workload.mobility.Gravity` checks the weights once and
draws each hop from a cumulative row it builds per (segment, current
place), mirroring ``Generator.choice``'s CDF arithmetic instead of
calling it.  ``tests/mobility_oracle.py`` keeps the per-user code it
replaced verbatim.  On any world size, static bias, 1-3 segment
schedule (zero weights and all the mass on the current place included)
and seed, the two must give the same itinerary and leave the user's
generator in the same state -- so a numpy whose ``choice`` changes its
arithmetic fails here.  Likewise, a named stream is keyed exactly as
``SeedSequence([seed, *name_bytes])`` keys it, and the deployment's
place->edge and edge->place tables equal the per-call scans.
"""

import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from repro.core import CoICConfig
from repro.core.cluster import ClusterDeployment
from repro.core.scenario import ClientSpec, EdgeSpec, MobilitySpec, \
    ScenarioSpec
from repro.sim import RngStreams
from repro.workload.mobility import Gravity, RandomWaypointUser, World

from mobility_oracle import (
    ReferenceWaypointUser,
    home_place_scan,
    nearest_edge_scan,
)

SEED = st.integers(min_value=0, max_value=2**32 - 1)
#: Zero is drawn often, so rows with zero mass next to the current place
#: (and all of it on the current place) come up.
WEIGHT = st.one_of(st.just(0.0), st.just(1.0),
                   st.floats(min_value=0.0, max_value=1e3))


@st.composite
def weights(draw, n: int) -> tuple[float, ...]:
    """Valid gravity weights: arbitrary, or all the mass on one place."""
    if draw(st.booleans()):
        hot = draw(st.integers(min_value=0, max_value=n - 1))
        return tuple(draw(st.floats(min_value=1e-3, max_value=1e3))
                     if i == hot else 0.0 for i in range(n))
    drawn = draw(st.lists(WEIGHT, min_size=n, max_size=n))
    assume(sum(drawn) > 0)
    return tuple(drawn)


@st.composite
def timetables(draw):
    """(n_places, bias, schedule, duration_s) of a gravity timetable."""
    n = draw(st.integers(min_value=2, max_value=40))
    duration = draw(st.floats(min_value=1.0, max_value=200.0))
    bias = draw(st.one_of(st.none(), weights(n)))
    schedule = None
    if draw(st.booleans()):
        starts = sorted(draw(st.lists(
            st.floats(min_value=0.0, max_value=duration),
            min_size=1, max_size=3)))
        schedule = tuple((start, draw(weights(n))) for start in starts)
    return n, bias, schedule, duration


def world_of(n: int, seed: int) -> World:
    return World(n_places=n, n_classes=8, objects_per_place=2,
                 rng=np.random.default_rng(seed))


@given(timetable=timetables(), seed=SEED,
       dwell=st.floats(min_value=0.5, max_value=20.0))
@settings(max_examples=120, deadline=None)
def test_gravity_itineraries_equal_the_per_user_choice_draw(timetable, seed,
                                                            dwell):
    n, bias, schedule, duration = timetable
    world = world_of(n, seed)
    home = seed % n
    gravity = Gravity(n, bias, schedule)
    # Two users on one timetable: the second reads rows the first built.
    for user_seed in (seed, seed + 1):
        reference = ReferenceWaypointUser(
            "u", world, np.random.default_rng(user_seed), mean_dwell_s=dwell,
            home_place=home, bias=bias, bias_schedule=schedule)
        expected = reference.itinerary(duration)
        rng = np.random.default_rng(user_seed)
        user = RandomWaypointUser("u", world, rng, mean_dwell_s=dwell,
                                  home_place=home, gravity=gravity)
        assert user.itinerary(duration) == expected
        assert rng.bit_generator.state == \
            reference._rng.bit_generator.state
    assert not any(row.flags.writeable for row in gravity._rows.values())
    if bias is None and schedule is None:
        rng = np.random.default_rng(seed)
        user = RandomWaypointUser("u", world, rng, mean_dwell_s=dwell,
                                  home_place=home)
        reference = ReferenceWaypointUser(
            "u", world, np.random.default_rng(seed), mean_dwell_s=dwell,
            home_place=home)
        assert user.itinerary(duration) == reference.itinerary(duration)


class FixedUniform(np.random.Generator):
    """A generator whose ``random()`` returns ``u``: ``choice`` draws its
    uniform through it, so a test can put the uniform on a CDF step."""

    u = 0.0

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u


@st.composite
def rows(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    return n, draw(weights(n)), draw(st.integers(min_value=0,
                                                 max_value=n - 1))


@given(row=rows())
@settings(max_examples=150, deadline=None)
def test_gravity_picks_what_choice_picks_on_every_cdf_step(row):
    """Itineraries alone would miss a one-ulp change in the CDF: a draw
    differs only if its uniform lands in that ulp.  Here the uniform is
    put on each step of the row, and just below it."""
    n, bias, current = row
    probs = np.array(bias)
    probs[current] = 0.0
    total = probs.sum()
    assume(total > 0)
    gravity = Gravity(n, bias)
    rng = FixedUniform(np.random.PCG64(0))
    gravity.draw(rng, current, 0.0)
    steps = gravity._rows[current]
    for u in {0.0, *steps, *np.nextafter(steps, 0.0)}:
        if u >= 1.0:
            continue
        rng.u = float(u)
        assert gravity.draw(rng, current, 0.0) == \
            rng.choice(n, p=probs / total)


BAD_WEIGHT = st.sampled_from([0.0, 1.0, 2.5, -1.0, float("inf"),
                              float("nan")])


@given(n=st.integers(min_value=1, max_value=6),
       bias=st.one_of(st.none(), st.lists(BAD_WEIGHT, max_size=7)),
       schedule=st.one_of(st.none(), st.lists(
           st.tuples(st.sampled_from([0.0, 5.0, 10.0]),
                     st.lists(BAD_WEIGHT, max_size=7)), max_size=3)))
@settings(max_examples=150, deadline=None)
def test_gravity_rejects_what_each_user_rejected_with_its_message(n, bias,
                                                                 schedule):
    world = world_of(n, 0)

    def outcome(build):
        try:
            build()
        except ValueError as exc:
            return str(exc)
        return None

    assert outcome(lambda: Gravity(n, bias, schedule)) == outcome(
        lambda: ReferenceWaypointUser("u", world, np.random.default_rng(0),
                                      bias=bias, bias_schedule=schedule))


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       name=st.text(min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_stream_state_equals_seed_sequence_of_seed_and_name_bytes(seed, name):
    expected = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, *name.encode("utf-8")])))
    assert RngStreams(seed).stream(name).bit_generator.state == \
        expected.bit_generator.state


#: Coarse coordinates, so edges share positions and places tie for an
#: edge (ties go to spec order and place order).
COORD = st.sampled_from([0.0, 250.0, 500.0, 750.0, 1000.0])


@given(edges=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=6),
       places=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=12),
       seed=SEED)
@settings(max_examples=40, deadline=None)
def test_place_edge_tables_equal_the_scans(edges, places, seed):
    spec = ScenarioSpec(
        edges=tuple(EdgeSpec(name=f"edge{k}", x=x, y=y,
                             clients=(ClientSpec(name=f"c{k}"),))
                    for k, (x, y) in enumerate(edges)),
        mobility=MobilitySpec(n_places=len(places), objects_per_place=1))
    dep = ClusterDeployment(spec, config=CoICConfig(seed=seed))
    # The tables are built on first use, so place the world first.
    dep.world.places = [dataclasses.replace(place, x=x, y=y)
                        for place, (x, y) in zip(dep.world.places, places)]
    for place in dep.world.places:
        assert dep.nearest_edge_name(place.place_id) == nearest_edge_scan(
            spec, dep.world, place.place_id)
    for client in dep.all_clients:
        assert dep._home_place(client) == home_place_scan(
            spec, dep.world, client.edge_name)


@pytest.mark.parametrize("seed", [0, 1])
def test_generated_city_places_match_the_scans(seed):
    """The same on a grid city's own (random) places."""
    spec = ScenarioSpec.metro(
        n_edges=9, clients_per_edge=1, mesh="grid",
        mobility=MobilitySpec(n_places=36))
    dep = ClusterDeployment(spec, config=CoICConfig(seed=seed))
    assert dep._edge_of_place == [
        nearest_edge_scan(spec, dep.world, p) for p in range(36)]
    assert dep._home_of_edge == {
        e.name: home_place_scan(spec, dep.world, e.name) for e in spec.edges}
