"""Property-based tests for the event kernel's ordering guarantees."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sim import Environment, Resource, Store
from repro.sim.kernel import PRIORITY_NORMAL, PRIORITY_URGENT


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


# A resource operation is (op, pick): ``pick`` chooses among the
# requests the op applies to.  "release" returns a held slot, "cancel"
# withdraws a queued request, "fail" fails a queued request elsewhere
# (a timeout race), and "stale" releases a request that is neither
# held nor queued.
resource_ops = st.lists(
    st.tuples(st.sampled_from(["request", "request", "release", "cancel",
                               "fail", "stale"]),
              st.integers(min_value=0, max_value=100)),
    min_size=1, max_size=60)


@given(ops=resource_ops, capacity=st.integers(min_value=1, max_value=3))
@settings(max_examples=100, deadline=None)
def test_resource_grants_like_a_reference_fifo(ops, capacity):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    requests = []
    # The reference: ids of holders, a FIFO of waiting ids (a failed
    # one stays queued until a grant passes it over), ids failed, ids
    # done with, and every grant in order.
    held, queue, failed, gone, model_grants = [], [], set(), [], []
    seen = set()
    grants = []

    def grant_next():
        while queue:
            nxt = queue.pop(0)
            if nxt not in failed:
                held.append(nxt)
                model_grants.append(nxt)
                return

    for op, pick in ops:
        waiting = [i for i in queue if i not in failed]
        if op == "request":
            requests.append(resource.request())
            rid = len(requests) - 1
            if len(held) < capacity:
                held.append(rid)
                model_grants.append(rid)
            else:
                queue.append(rid)
        elif op == "release" and held:
            rid = held.pop(pick % len(held))
            resource.release(requests[rid])
            gone.append(rid)
            grant_next()
        elif op == "cancel" and waiting:
            rid = waiting[pick % len(waiting)]
            resource.release(requests[rid])
            queue.remove(rid)
            gone.append(rid)
        elif op == "fail" and waiting:
            rid = waiting[pick % len(waiting)]
            requests[rid].fail(TimeoutError("gave up"))
            requests[rid].defuse()
            failed.add(rid)
        elif op == "stale" and gone:
            with pytest.raises(ValueError):
                resource.release(requests[gone[pick % len(gone)]])
        for rid, req in enumerate(requests):
            if rid not in seen and rid not in failed and req.triggered:
                seen.add(rid)
                grants.append(rid)
        assert grants == model_grants
        assert resource.count == len(held)
        assert resource.queue_length == len(queue)
    env.run()


@given(items=st.lists(st.integers(), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_store_preserves_fifo_order(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in items:
            store.put(item)
            yield env.timeout(0.1)

    def consumer(env):
        for _ in items:
            value = yield store.get()
            received.append(value)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == items


# Delays chosen to straddle every regime of the queue's fixed geometry
# (10 ms ticks, 8192 buckets, 81.92 s horizon): same-tick, in-horizon,
# and far-future overflow.
_wheel_delay = st.one_of(
    st.floats(min_value=0, max_value=200, allow_nan=False),
    st.sampled_from([0.0, 0.001, 0.005, 0.01, 1.0, 81.92, 100.0]))


@given(bursts=st.lists(
    st.tuples(st.floats(min_value=0, max_value=150, allow_nan=False),
              st.lists(st.tuples(_wheel_delay, st.booleans()),
                       min_size=1, max_size=8),
              st.booleans()),
    min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_events_fire_in_sorted_entry_order(bursts):
    """The queue pops in sorted ``(time, priority, seq)`` order.

    The oracle is the sort itself.  Each burst starts at its own
    simulated time (mid-run scheduling, cursor advancement); half the
    bursts wait via a bare-number yield (the per-process wake event).
    Each then schedules tagged events, urgent or normal, and records
    each as ``(now + delay, priority, creation index)``: creation order
    is sequence order.  Every tagged event must fire at exactly that
    time, in the sorted order -- through the inlined hot loop and,
    with a trace hook installed, through ``step()``.
    """
    def drive(traced):
        env = Environment()
        if traced:
            env.set_trace(lambda when, priority, event: None)
        created, fired = [], []

        def burst(env, start, entries, bare):
            if bare:
                yield start
            else:
                yield env.timeout(start)
            for delay, urgent in entries:
                priority = PRIORITY_URGENT if urgent else PRIORITY_NORMAL
                tag = (env.now + delay, priority, len(created))
                created.append(tag)
                event = env.event()
                event._ok, event._value = True, None
                event.callbacks.append(
                    lambda e, tag=tag: fired.append((env.now, *tag[1:])))
                env.schedule(event, priority, delay)

        for start, entries, bare in bursts:
            env.process(burst(env, start, entries, bare))
        env.run()
        return created, fired

    for traced in (False, True):
        created, fired = drive(traced)
        assert fired == sorted(created)


def test_same_tick_timeouts_fire_in_creation_order(loop_env):
    """FIFO within one wheel bucket: equal (time, priority) keeps seq order.

    Thirty timeouts with the same delay land in the same tick of the
    same bucket; the entries differ only in sequence number, so any
    regression in the entry layout or bucket drain order shows up as a
    permutation here.
    """
    env = loop_env
    fired = []
    for i in range(30):
        env.timeout(0.042).callbacks.append(
            lambda e, i=i: fired.append(i))
    env.run()
    assert fired == list(range(30))
