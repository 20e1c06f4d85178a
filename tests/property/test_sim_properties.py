"""Property-based tests for the event kernel's ordering guarantees."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sim import Environment, Resource, Store


@given(delays=st.lists(st.floats(min_value=0, max_value=1000,
                                 allow_nan=False),
                       min_size=1, max_size=50))
@settings(max_examples=80, deadline=None)
def test_events_fire_in_time_order(delays):
    env = Environment()
    fired = []
    for delay in delays:
        env.timeout(delay).callbacks.append(
            lambda e, d=delay: fired.append(d))
    env.run()
    assert fired == sorted(delays)
    assert len(fired) == len(delays)


@given(delays=st.lists(st.floats(min_value=0.01, max_value=10,
                                 allow_nan=False),
                       min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_clock_is_monotone_through_processes(delays):
    env = Environment()
    observed = []

    def worker(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(worker(env, delay))
    env.run()
    assert observed == sorted(observed)


@given(holds=st.lists(st.floats(min_value=0.01, max_value=5,
                                allow_nan=False),
                      min_size=1, max_size=15),
       capacity=st.integers(min_value=1, max_value=4))
@settings(max_examples=50, deadline=None)
def test_resource_never_oversubscribed(holds, capacity):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    active = [0]
    peak = [0]

    def worker(env, hold):
        req = resource.request()
        yield req
        active[0] += 1
        peak[0] = max(peak[0], active[0])
        try:
            yield env.timeout(hold)
        finally:
            active[0] -= 1
            resource.release(req)

    for hold in holds:
        env.process(worker(env, hold))
    env.run()
    assert peak[0] <= capacity
    assert active[0] == 0


@given(items=st.lists(st.integers(), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_store_preserves_fifo_order(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in items:
            yield store.put(item)
            yield env.timeout(0.1)

    def consumer(env):
        for _ in items:
            value = yield store.get()
            received.append(value)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == items


# Delays chosen to straddle every wheel regime of the default geometry
# (bucket_s=1e-2, 8192 buckets, ~82 s horizon): same-tick, in-horizon,
# and far-future overflow.
_wheel_delay = st.one_of(
    st.floats(min_value=0, max_value=200, allow_nan=False),
    st.sampled_from([0.0, 0.001, 0.005, 0.01, 1.0, 81.92, 100.0]))


@given(bursts=st.lists(
    st.tuples(st.floats(min_value=0, max_value=150, allow_nan=False),
              st.lists(_wheel_delay, min_size=1, max_size=8),
              st.booleans()),
    min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_wheel_and_heap_fire_identically(bursts):
    """The calendar wheel is an exact drop-in for the binary heap.

    Each burst starts at its own simulated time (exercising mid-run
    scheduling and cursor advancement) and registers a batch of
    timeouts; half the bursts wait via a bare-number yield (the
    per-process wake-up event).  Both queue disciplines must fire every
    tagged timeout at the same simulated time, in the same total order.
    """
    def drive(queue):
        env = Environment(queue=queue)
        fired = []

        def burst(env, start, delays, bare, base):
            if bare:
                yield start
            else:
                yield env.timeout(start)
            for i, delay in enumerate(delays):
                env.timeout(delay).callbacks.append(
                    lambda e, tag=(base, i): fired.append((env.now, tag)))

        for base, (start, delays, bare) in enumerate(bursts):
            env.process(burst(env, start, delays, bare, base))
        env.run()
        return fired

    assert drive("wheel") == drive("heap")


@pytest.mark.parametrize("queue", ["wheel", "heap"])
def test_same_tick_timeouts_fire_in_creation_order(queue):
    """FIFO within one wheel bucket: equal (time, priority) keeps seq order.

    Thirty timeouts with the same delay land in the same tick of the
    same bucket; the heap entries differ only in sequence number, so
    any regression in the entry layout or bucket drain order shows up
    as a permutation here.
    """
    env = Environment(queue=queue)
    fired = []
    for i in range(30):
        env.timeout(0.042).callbacks.append(
            lambda e, i=i: fired.append(i))
    env.run()
    assert fired == list(range(30))
