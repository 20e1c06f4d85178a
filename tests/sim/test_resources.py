"""Unit tests for repro.sim.resources."""

import pytest

from repro.sim import (AllOf, AnyOf, Container, Environment, PriorityResource,
                       Resource, Store)


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


class TestPriorityResource:
    def test_lower_priority_number_served_first(self, env):
        res = PriorityResource(env, capacity=1)
        order = []

        def worker(env, name, priority, start_delay):
            yield env.timeout(start_delay)
            req = res.request(priority=priority)
            yield req
            order.append(name)
            yield env.timeout(5)
            res.release(req)

        env.process(worker(env, "first", 0, 0))      # holds the slot
        env.process(worker(env, "low", 5, 1))
        env.process(worker(env, "high", 1, 2))
        env.run()
        assert order == ["first", "high", "low"]


class TestStore:
    def test_put_get_fifo(self, env):
        store = Store(env)
        got = []

        def producer(env):
            for item in ("x", "y", "z"):
                yield store.put(item)

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer(env))
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
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert arrival == [(4, "late")]

    def test_bounded_put_blocks_until_room(self, env):
        store = Store(env, capacity=1)
        times = []

        def producer(env):
            yield store.put(1)
            t0 = env.now
            yield store.put(2)  # must wait for the consumer
            times.append((t0, env.now))

        def consumer(env):
            yield env.timeout(3)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert times == [(0, 3)]

    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_items_snapshot(self, env):
        store = Store(env)
        store.put("a")
        store.put("b")
        assert store.items == ["a", "b"]


class TestContainer:
    def test_initial_level_validation(self, env):
        with pytest.raises(ValueError):
            Container(env, capacity=10, init=11)
        with pytest.raises(ValueError):
            Container(env, capacity=0)

    def test_get_blocks_until_enough(self, env):
        tank = Container(env, capacity=100, init=0)
        got_at = []

        def consumer(env):
            yield tank.get(30)
            got_at.append(env.now)

        def producer(env):
            for _ in range(3):
                yield env.timeout(1)
                yield tank.put(10)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got_at == [3]
        assert tank.level == 0

    def test_put_blocks_at_capacity(self, env):
        tank = Container(env, capacity=10, init=10)
        done_at = []

        def producer(env):
            yield tank.put(5)
            done_at.append(env.now)

        def consumer(env):
            yield env.timeout(2)
            yield tank.get(6)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert done_at == [2]
        assert tank.level == 9

    def test_conservation(self, env):
        tank = Container(env, capacity=1000, init=500)

        def mover(env, amount):
            yield tank.get(amount)
            yield env.timeout(0.1)
            yield tank.put(amount)

        for amount in (10, 20, 30, 40):
            env.process(mover(env, amount))
        env.run()
        assert tank.level == 500

    def test_amount_validation(self, env):
        tank = Container(env, capacity=10, init=5)
        with pytest.raises(ValueError):
            tank.put(0)
        with pytest.raises(ValueError):
            tank.get(-1)


class TestGrantedOnTheSpot:
    """What is free is granted without a queue entry; what is not, queues."""

    @pytest.fixture(params=[Resource, PriorityResource],
                    ids=lambda kind: kind.__name__)
    def kind(self, request):
        return request.param

    def test_free_slot_is_processed_at_once_and_held(self, kind, loop_env):
        env = loop_env
        res = kind(env, capacity=1)
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

    def test_put_with_room_is_processed_a_full_put_queues(self, loop_env):
        env = loop_env
        store = Store(env, capacity=1)
        first, second = store.put("a"), store.put("b")
        assert first.processed and first.ok
        assert not second.triggered and store.items == ["a"]
        got = store.get()
        env.run()
        assert got.value == "a" and second.processed
        assert store.items == ["b"]

    def test_put_to_a_waiting_consumer_is_processed(self, loop_env):
        env = loop_env
        store = Store(env)
        got = store.get()
        put = store.put("x")
        assert put.processed and got.triggered and not got.processed
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

    def test_conditions_and_run_until_accept_a_granted_request(self, loop_env):
        env = loop_env
        res = Resource(env, capacity=2)
        a, b = res.request(), res.request()
        assert env.run(until=a) is None
        both = AllOf(env, [a, b])
        either = AnyOf(env, [b, env.timeout(5)])
        assert env.run(until=both) == {a: None, b: None}
        assert b in env.run(until=either)
        assert env.now == 0.0
