"""Unit tests for repro.sim.resources."""

import pytest

from repro.sim import Environment, Resource, Store


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_serializes_users(self, env):
        res = Resource(env, capacity=1)
        log = []

        def worker(env, name):
            req = res.request()
            yield req
            try:
                log.append((env.now, name, "in"))
                yield env.timeout(2)
            finally:
                res.release(req)

        for name in "abc":
            env.process(worker(env, name))
        env.run()
        assert log == [(0, "a", "in"), (2, "b", "in"), (4, "c", "in")]

    def test_capacity_two_admits_two(self, env):
        res = Resource(env, capacity=2)
        entries = []

        def worker(env):
            req = res.request()
            yield req
            entries.append(env.now)
            yield env.timeout(1)
            res.release(req)

        for _ in range(4):
            env.process(worker(env))
        env.run()
        assert entries == [0, 0, 1, 1]

    def test_queue_length_and_count(self, env):
        res = Resource(env, capacity=1)
        held = res.request()
        env.run()
        assert res.count == 1
        queued = res.request()
        assert res.queue_length == 1
        res.release(queued)  # cancel from queue
        assert res.queue_length == 0
        res.release(held)
        assert res.count == 0

    def test_release_unknown_request_raises(self, env):
        res = Resource(env)
        foreign = Resource(env).request()
        with pytest.raises(ValueError):
            res.release(foreign)


    def test_cancelled_queued_request_is_never_granted(self, env):
        res = Resource(env, capacity=1)
        held = res.request()
        cancelled, kept = res.request(), res.request()
        res.release(cancelled)
        res.release(held)
        assert not cancelled.triggered
        assert kept.triggered and res.count == 1 and res.queue_length == 0

    def test_release_skips_a_waiter_failed_elsewhere(self, env):
        """A queued request another party failed is passed over, not
        granted: the slot goes to the next live waiter."""
        res = Resource(env, capacity=1)
        held = res.request()
        abandoned, live = res.request(), res.request()
        abandoned.fail(TimeoutError("gave up"))
        abandoned.defuse()
        res.release(held)
        assert live.triggered and live.ok
        assert res.count == 1 and res.queue_length == 0
        env.run()
        assert not abandoned.ok

    def test_wait_queue_is_built_on_the_first_contention(self, env):
        res = Resource(env, capacity=1)
        assert not hasattr(res, "__dict__") and res._waiters is None
        held = res.request()
        res.release(held)
        assert res._waiters is None and res.queue_length == 0
        held = res.request()
        queued = res.request()
        assert res._waiters is not None and res.queue_length == 1
        res.release(held)
        assert queued.triggered and res.count == 1

    def test_release_of_nothing_raises_before_any_contention(self, env):
        res = Resource(env, capacity=2)
        held = res.request()
        res.release(held)
        with pytest.raises(ValueError, match="not held or queued"):
            res.release(held)

    def test_release_grants_one_waiter_per_freed_slot(self, env):
        res = Resource(env, capacity=2)
        holders = [res.request(), res.request()]
        waiters = [res.request() for _ in range(3)]
        res.release(holders[0])
        assert [w.triggered for w in waiters] == [True, False, False]
        assert res.count == 2 and res.queue_length == 2
        res.release(holders[1])
        assert [w.triggered for w in waiters] == [True, True, False]


class TestStore:
    def test_put_get_fifo(self, env):
        store = Store(env)
        got = []

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        for item in ("x", "y", "z"):
            store.put(item)
        env.process(consumer(env))
        env.run()
        assert got == ["x", "y", "z"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        arrival = []

        def consumer(env):
            item = yield store.get()
            arrival.append((env.now, item))

        def producer(env):
            yield env.timeout(4)
            store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert arrival == [(4, "late")]

    def test_waiting_consumers_are_served_in_arrival_order(self, env):
        store = Store(env)
        got = []

        def consumer(env, name, start):
            yield env.timeout(start)
            item = yield store.get()
            got.append((name, item))

        def producer(env):
            yield env.timeout(5)
            for item in ("x", "y", "z"):
                store.put(item)

        for name, start in (("c", 2), ("a", 0), ("b", 1)):
            env.process(consumer(env, name, start))
        env.process(producer(env))
        env.run()
        assert got == [("a", "x"), ("b", "y"), ("c", "z")]

    def test_put_never_waits(self, env):
        """The store is unbounded: every put lands at once, off the queue."""
        store = Store(env)
        for i in range(1000):
            assert store.put(i) is None
        assert store.items == list(range(1000))
        assert env.peek() == float("inf") and env.events_processed == 0

    def test_items_snapshot(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        assert store.items == ["a", "b"]


class TestGrantedOnTheSpot:
    """What is free is granted without a queue entry; what is not, queues."""

    def test_free_slot_is_processed_at_once_and_held(self, loop_env):
        env = loop_env
        res = Resource(env, capacity=1)
        req = res.request()
        assert req.processed and req.ok and res.count == 1
        log = []

        def holder(env):
            yield req                  # resumes inline
            log.append(("held", env.now))
            yield env.timeout(2)
            res.release(req)

        def waiter(env, name):
            mine = res.request()
            assert not mine.triggered      # contended: queued as before
            yield mine
            log.append((name, env.now))
            res.release(mine)

        env.process(holder(env))
        env.process(waiter(env, "first"))
        env.process(waiter(env, "second"))
        env.run()
        # Release hands over in FIFO order at the release instant.
        assert log == [("held", 0.0), ("first", 2.0), ("second", 2.0)]
        assert res.count == 0 and res.queue_length == 0
        # Three _Initialize, the holder's timeout, the two queued grants.
        assert env.events_processed == 6

    def test_uncontended_request_costs_no_event(self, loop_env):
        env = loop_env
        res = Resource(env, capacity=2)

        def worker(env):
            req = res.request()
            yield req
            res.release(req)

        env.process(worker(env))
        env.process(worker(env))
        env.run()
        assert env.events_processed == 2    # the two _Initialize

    def test_put_to_a_waiting_consumer_wakes_it_through_the_queue(
            self, loop_env):
        env = loop_env
        store = Store(env)
        got = store.get()
        assert store.put("x") is None
        assert got.triggered and not got.processed and store.items == []
        env.run()
        assert got.value == "x" and env.events_processed == 1

    def test_get_on_a_non_empty_store_is_a_queued_event(self, loop_env):
        # Pinned on purpose: a consumer's wake-up is a kernel event even
        # when the item is already there.  Handing it over on the spot
        # reorders same-instant server loops and moves GOLDEN_METRO
        # (docs/scenario_spec.md, "Same-instant ordering").
        env = loop_env
        store = Store(env)
        store.put("x")
        got = store.get()
        assert got.triggered and not got.processed
        env.run()
        assert got.value == "x" and env.events_processed == 1

    def test_run_until_accepts_a_granted_request(self, loop_env):
        env = loop_env
        res = Resource(env, capacity=2)
        a, b = res.request(), res.request()
        assert env.run(until=a) is None
        assert env.run(until=b) is None
        assert env.now == 0.0 and env.events_processed == 0
