"""Unit tests for repro.sim.events."""

import pytest

from repro.sim import Environment, EventAlreadyTriggered


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self, env):
        event = env.event()
        with pytest.raises(RuntimeError):
            _ = event.value
        with pytest.raises(RuntimeError):
            _ = event.ok

    def test_succeed_carries_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_twice_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(EventAlreadyTriggered):
            event.succeed()

    def test_fail_then_succeed_raises(self, env):
        event = env.event()
        event.fail(ValueError("boom"))
        with pytest.raises(EventAlreadyTriggered):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(ValueError):
            event.fail("not an exception")

    def test_callbacks_invoked_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("hello")
        env.run()
        assert seen == ["hello"]
        assert event.processed

    def test_unhandled_failure_crashes_run(self, env):
        event = env.event()
        event.fail(RuntimeError("nobody caught me"))
        from repro.sim import SimulationError

        with pytest.raises(SimulationError):
            env.run()

    def test_defused_failure_is_silent(self, env):
        event = env.event()
        event.fail(RuntimeError("handled"))
        event.defuse()
        env.run()  # no raise


class TestTimeout:
    def test_fires_at_delay(self, env):
        fired = []
        t = env.timeout(2.5, value="done")
        t.callbacks.append(lambda e: fired.append(env.now))
        env.run()
        assert fired == [2.5]

    @pytest.mark.parametrize("delay", [-1, float("inf"), float("nan")],
                             ids=["negative", "inf", "nan"])
    def test_negative_delay_rejected(self, env, delay):
        # A non-finite delay takes the negative one's path: inf used to
        # overflow the queue's tick arithmetic instead.
        with pytest.raises(ValueError, match="negative or non-finite delay"):
            env.timeout(delay)
        assert env.peek() == float("inf")  # nothing was queued

    def test_zero_delay_fires_immediately(self, env):
        t = env.timeout(0, value=1)
        env.run()
        assert t.processed and t.value == 1

    def test_ordering_by_delay(self, env):
        order = []
        for delay in (3, 1, 2):
            env.timeout(delay).callbacks.append(
                lambda e, d=delay: order.append(d))
        env.run()
        assert order == [1, 2, 3]

    def test_fifo_among_equal_delays(self, env):
        order = []
        for tag in ("a", "b", "c"):
            env.timeout(1).callbacks.append(
                lambda e, t=tag: order.append(t))
        env.run()
        assert order == ["a", "b", "c"]
