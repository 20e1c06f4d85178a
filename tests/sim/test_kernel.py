"""Unit tests for repro.sim.kernel (Environment / run semantics)."""

import pytest

from repro.sim import Environment, SimulationError


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_initial_time(self):
        """The clock always starts at 0; the start is not settable."""
        assert Environment().now == 0.0
        with pytest.raises(TypeError):
            Environment(5.0)

    def test_clock_advances_with_events(self, env):
        env.timeout(3.0)
        env.run()
        assert env.now == 3.0

    def test_peek_empty_queue(self, env):
        assert env.peek() == float("inf")

    def test_peek_reports_next_event_time(self, env):
        env.timeout(7.0)
        env.timeout(4.0)
        assert env.peek() == 4.0


class TestRunUntil:
    def test_run_until_number_stops_clock_there(self, env):
        env.timeout(10)
        env.run(until=4.0)
        assert env.now == 4.0

    def test_run_until_number_processes_earlier_events(self, env):
        seen = []
        env.timeout(2).callbacks.append(lambda e: seen.append(2))
        env.timeout(8).callbacks.append(lambda e: seen.append(8))
        env.run(until=5)
        assert seen == [2]

    def test_run_until_past_raises(self, env):
        env.timeout(1)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=0.5)

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return "result"

        p = env.process(proc(env))
        assert env.run(until=p) == "result"

    def test_run_until_event_already_processed(self, env):
        t = env.timeout(1, value="x")
        env.run()
        assert env.run(until=t) == "x"

    def test_run_until_event_that_cannot_fire(self, env):
        event = env.event()  # never triggered
        env.timeout(1)
        with pytest.raises(SimulationError):
            env.run(until=event)

    def test_run_until_failing_event_raises(self, env):
        def proc(env):
            yield env.timeout(1)
            raise KeyError("inner failure")

        p = env.process(proc(env))
        with pytest.raises(KeyError):
            env.run(until=p)

    def test_run_drains_queue(self, env):
        counter = []
        for i in range(10):
            env.timeout(i).callbacks.append(lambda e: counter.append(1))
        env.run()
        assert len(counter) == 10
        assert env.peek() == float("inf")

    def test_interleaved_runs_continue(self, env):
        """run() can be called repeatedly; time never goes backwards."""
        env.timeout(1)
        env.run()
        first = env.now
        env.timeout(1)
        env.run()
        assert env.now == first + 1


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def build_and_run():
            env = Environment()
            trace = []

            def worker(env, name, delay):
                yield env.timeout(delay)
                trace.append((env.now, name))
                yield env.timeout(delay)
                trace.append((env.now, name))

            for i, d in enumerate((0.3, 0.7, 0.5)):
                env.process(worker(env, f"w{i}", d))
            env.run()
            return trace

        assert build_and_run() == build_and_run()


class TestRunUntilFailedEvent:
    """A failed ``until`` event is reported exactly once (then defused)."""

    def test_event_failed_by_callback_raises_once(self, loop_env):
        """The raise at the run() call site IS the report; the failure
        must not also abort a later sweep as unhandled."""
        env = loop_env
        event = env.event()
        env.timeout(1).callbacks.append(
            lambda t: event.fail(RuntimeError("dead")))
        with pytest.raises(RuntimeError, match="dead"):
            env.run(until=event)
        assert event.triggered and not event.ok

        env.timeout(1)
        env.run()  # would raise SimulationError were the event not defused

    def test_already_failed_event_reraises_each_run(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run(until=event)
        # Subsequent run(until=...) calls keep reporting the outcome
        # without tripping the unhandled-failure sweep.
        with pytest.raises(ValueError, match="boom"):
            env.run(until=event)
        env.timeout(1)
        env.run()
