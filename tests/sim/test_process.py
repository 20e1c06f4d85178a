"""Unit tests for repro.sim.process (generator processes)."""

import pytest

from repro.sim import Environment, SimulationError
from repro.sim.process import ProcessCrashed


@pytest.fixture
def env():
    return Environment()


class TestBasics:
    def test_process_runs_and_returns(self, env):
        def proc(env):
            yield env.timeout(1)
            return 99

        p = env.process(proc(env))
        assert p.is_alive
        assert env.run(until=p) == 99
        assert not p.is_alive

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_process_waits_on_process(self, env):
        def child(env):
            yield env.timeout(3)
            return "child-value"

        def parent(env):
            value = yield env.process(child(env))
            return f"got:{value}"

        p = env.process(parent(env))
        assert env.run(until=p) == "got:child-value"
        assert env.now == 3

    def test_yield_non_event_crashes_process(self, env):
        def bad(env):
            yield "not an event"

        p = env.process(bad(env))
        with pytest.raises(ProcessCrashed):
            env.run(until=p)

    def test_yield_bare_number_sleeps(self, env):
        def proc(env):
            yield 1.5
            yield 2  # ints work too
            return env.now

        p = env.process(proc(env))
        assert env.run(until=p) == 3.5
        assert env.now == 3.5

    def test_bare_number_sleep_matches_timeout_ordering(self, env):
        log = []

        def number_sleeper(env):
            yield 1.0
            log.append("number")

        def timeout_sleeper(env):
            yield env.timeout(1.0)
            log.append("timeout")

        # FIFO tie-break: creation order decides among equal wake times.
        env.process(timeout_sleeper(env))
        env.process(number_sleeper(env))
        env.run()
        assert log == ["timeout", "number"]

    @pytest.mark.parametrize("delay", [-0.5, float("inf"), float("nan")],
                             ids=["negative", "inf", "nan"])
    def test_yield_negative_number_crashes_process(self, loop_env, delay):
        # Only the yielding process fails: a bare inf or nan used to
        # escape run() as OverflowError / ValueError from the queue.
        env = loop_env

        def bad(env):
            yield delay

        p = env.process(bad(env))
        with pytest.raises(ProcessCrashed, match="non-finite delay"):
            env.run(until=p)
        assert env.now == 0.0

    def test_yield_foreign_event_crashes_process(self, env):
        other = Environment()

        def bad(env):
            yield other.timeout(1)

        p = env.process(bad(env))
        with pytest.raises(ProcessCrashed):
            env.run(until=p)

    def test_exception_propagates_to_waiter(self, env):
        def failing(env):
            yield env.timeout(1)
            raise ValueError("inner")

        def waiter(env):
            try:
                yield env.process(failing(env))
            except ValueError as exc:
                return f"caught:{exc}"

        p = env.process(waiter(env))
        assert env.run(until=p) == "caught:inner"

    def test_failed_event_is_thrown_into_its_waiter(self, env):
        gate = env.event()

        def waiter(env):
            try:
                yield gate
            except KeyError as exc:
                return ("caught", exc.args[0], env.now)

        def failer(env):
            yield env.timeout(3)
            gate.fail(KeyError("gone"))

        p = env.process(waiter(env))
        env.process(failer(env))
        assert env.run(until=p) == ("caught", "gone", 3)

    def test_waiting_on_several_events_in_turn_ends_at_the_latest(self, env):
        """Yielding each of several pending events in turn joins them:
        the process resumes once the last has fired, with every value."""
        events = [env.timeout(delay, value=delay) for delay in (3, 1, 2)]

        def joiner(env):
            values = []
            for event in events:
                values.append((yield event))
            return values, env.now

        assert env.run(until=env.process(joiner(env))) == ([3, 1, 2], 3)

    def test_unwaited_exception_crashes_simulation(self, env):
        def failing(env):
            yield env.timeout(1)
            raise ValueError("nobody watching")

        env.process(failing(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_yield_already_processed_event(self, env):
        """Waiting on a finished event resumes promptly with its value."""
        t = env.timeout(1, value="early")
        env.run()

        def late(env):
            value = yield t
            return value

        p = env.process(late(env))
        assert env.run(until=p) == "early"


class TestWake:
    """A process re-arms its own wake event, the same under both loops."""

    def test_bare_number_yields_share_one_wake(self, loop_env):
        env = loop_env

        def sleeper(env):
            for i in range(100):
                yield 0.5
                if i % 10 == 9:
                    yield env.timeout(0.5)    # the fired wake sits idle
            return env.now

        p = env.process(sleeper(env))
        wake = None

        def watch(env):
            nonlocal wake
            yield 0.1
            wake = p._wake

        env.process(watch(env))
        assert env.run(until=p) == 55.0
        assert p._wake is wake
        # Two _Initialize, 100 wakes of p and 1 of watch, 10 timeouts,
        # p's completion.
        assert env.events_processed == 114


class TestCompletion:
    """A process completion is a queue entry only if somebody waits on it."""

    @staticmethod
    def quick(env):
        yield env.timeout(1)
        return 7

    def test_unwaited_return_adds_no_queue_entry(self, loop_env):
        env = loop_env
        p = env.process(self.quick(env))
        env.run()
        # _Initialize + the timeout; the return itself cost nothing.
        assert env.events_processed == 2
        assert p.processed and p.ok and p.value == 7 and not p.is_alive

    def test_finished_process_still_answers_late_waiters(self, loop_env):
        env = loop_env
        p = env.process(self.quick(env))
        env.run()

        def late(env):
            value = yield p
            again = yield p
            tick = yield env.timeout(1, value="t")
            return value, again, tick

        assert env.run(until=env.process(late(env))) == (7, 7, "t")
        assert env.run(until=p) == 7

    def test_waited_process_fires_exactly_once(self, loop_env):
        env = loop_env
        seen = []

        def waiter(env):
            seen.append((yield env.process(self.quick(env))))

        env.process(waiter(env))
        env.run()
        assert seen == [7]
        # Two _Initialize, the timeout, and the one awaited completion.
        assert env.events_processed == 4

    def test_unwaited_raise_still_aborts(self, loop_env):
        env = loop_env

        def failing(env):
            yield env.timeout(1)
            raise ValueError("nobody watching")

        env.process(failing(env))
        with pytest.raises(SimulationError, match="nobody watching"):
            env.run()


class TestReadyEvents:
    """Yielding an event that is already processed costs no kernel event."""

    def test_processed_events_resume_within_the_same_kernel_event(self, loop_env):
        env = loop_env
        done = env.timeout(1, value="early")
        env.run()
        assert done.processed and env.events_processed == 1
        seen = []

        def late(env):
            seen.append((yield done))
            seen.append((yield done))    # any number of them, still inline
            seen.append(env.now)
            yield env.timeout(1)

        started = []
        env.set_trace(lambda when, priority, event: started.append(
            (when, list(seen))))
        env.process(late(env))
        env.run()
        # Only the _Initialize and the real timeout are kernel events; both
        # resumptions happened inside the first.
        assert env.events_processed == 3
        assert started == [(1.0, []), (2.0, ["early", "early", 1.0])]

    def test_processed_failure_is_thrown_in_and_defused(self, loop_env):
        env = loop_env
        broken = env.event()
        broken.callbacks.append(lambda event: event.defuse())
        broken.fail(ValueError("stale"))
        env.run()
        assert broken.processed and not broken.ok
        broken._defused = False    # as if nobody had looked yet

        def late(env):
            try:
                yield broken
            except ValueError as exc:
                return str(exc)
            raise AssertionError("the failure was not thrown in")

        p = env.process(late(env))
        env.run()
        assert p.value == "stale" and broken._defused
        # The failed event + this process's _Initialize: the throw itself
        # is no event.
        assert env.events_processed == 2

    def test_uncaught_processed_failure_fails_the_process(self, loop_env):
        env = loop_env
        broken = env.event()
        broken.callbacks.append(lambda event: event.defuse())
        broken.fail(ValueError("stale"))
        env.run()

        def late(env):
            yield broken

        env.process(late(env))
        with pytest.raises(SimulationError, match="stale"):
            env.run()
