"""Unit tests for repro.net.link."""

import numpy as np
import pytest

from repro.net import Link, LinkDown, Message, TransferLost
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def deliver(env, link, message):
    """Run a single transfer to completion; returns (ok, delivery_time)."""
    outcome = {}

    def proc(env):
        start = env.now
        try:
            yield from link.transfer(message)
            outcome["ok"] = True
        except (TransferLost, LinkDown) as exc:
            outcome["ok"] = False
            outcome["error"] = exc
        outcome["elapsed"] = env.now - start

    env.run(until=env.process(proc(env)))
    return outcome


class TestFootprint:
    def test_a_link_and_its_stats_carry_no_instance_dict(self, env):
        link = Link(env, "l", bandwidth_bps=8e6)
        assert not hasattr(link, "__dict__")
        assert not hasattr(link.stats, "__dict__")
        with pytest.raises(AttributeError):
            link.color = "red"

    def test_a_standalone_link_changes_rate_and_state(self, env):
        link = Link(env, "l", bandwidth_bps=8e6)
        link.set_bandwidth(4e6)
        link.set_up(False)
        assert link.bandwidth_bps == 4e6 and not link.up


class TestTiming:
    def test_serialization_plus_propagation(self, env):
        link = Link(env, "l", bandwidth_bps=8e6, propagation_s=0.05)
        msg = Message(size_bytes=100_000)  # 0.1 s at 8 Mbps
        out = deliver(env, link, msg)
        assert out["ok"]
        assert out["elapsed"] == pytest.approx(0.1 + 0.05)

    def test_zero_size_message_costs_propagation_only(self, env):
        link = Link(env, "l", bandwidth_bps=1e6, propagation_s=0.02)
        out = deliver(env, link, Message(size_bytes=0))
        assert out["elapsed"] == pytest.approx(0.02)

    def test_transfers_serialize_but_pipeline(self, env):
        """Second message waits for the transmitter, not the receiver."""
        link = Link(env, "l", bandwidth_bps=8e6, propagation_s=1.0)
        times = []

        def send(env, order):
            yield env.timeout(0)
            start = env.now
            yield from link.transfer(Message(size_bytes=100_000))
            times.append((order, env.now - start))

        env.process(send(env, 1))
        env.process(send(env, 2))
        env.run()
        # msg1: 0.1 tx + 1.0 prop = 1.1; msg2 waits 0.1 then same.
        assert dict(times)[1] == pytest.approx(1.1)
        assert dict(times)[2] == pytest.approx(1.2)

    def test_rate_change_affects_later_transfers(self, env):
        link = Link(env, "l", bandwidth_bps=8e6)
        msg = Message(size_bytes=100_000)
        first = deliver(env, link, msg)
        link.set_bandwidth(16e6)
        second = deliver(env, link, Message(size_bytes=100_000))
        assert second["elapsed"] == pytest.approx(first["elapsed"] / 2)

    def test_rate_change_mid_serialization_spares_the_message_on_the_wire(
            self, env):
        """A rate set while a message serializes applies to the next one."""
        link = Link(env, "l", bandwidth_bps=8e6)
        done = []

        def sender(env):
            yield from link.transfer(Message(size_bytes=100_000))
            done.append(env.now)

        def reshaper(env):
            yield env.timeout(0.05)
            link.set_bandwidth(80e6)

        env.process(sender(env))
        env.process(reshaper(env))
        env.run()
        assert done == [pytest.approx(0.1)]      # the old 8 Mbps throughout
        assert link.bandwidth_bps == 80e6

    def test_queued_message_takes_the_rate_in_force_when_it_starts(self, env):
        link = Link(env, "l", bandwidth_bps=8e6)
        done = {}

        def sender(env, name):
            yield from link.transfer(Message(size_bytes=100_000))
            done[name] = env.now

        def reshaper(env):
            yield env.timeout(0.05)
            link.set_bandwidth(80e6)

        env.process(sender(env, "first"))
        env.process(sender(env, "second"))
        env.process(reshaper(env))
        env.run()
        # The second waits out the first's 0.1 s, then clocks at 80 Mbps.
        assert done["first"] == pytest.approx(0.1)
        assert done["second"] == pytest.approx(0.1 + 0.01)

    def test_one_way_delay_helper(self, env):
        link = Link(env, "l", bandwidth_bps=1e6, propagation_s=0.5)
        assert link.one_way_delay(125_000) == pytest.approx(1.0 + 0.5)


class TestValidation:
    def test_bad_bandwidth(self, env):
        with pytest.raises(ValueError):
            Link(env, "l", bandwidth_bps=0)

    def test_bad_loss_rate(self, env):
        with pytest.raises(ValueError):
            Link(env, "l", 1e6, loss_rate=1.0,
                 rng=np.random.default_rng(0))

    def test_jitter_requires_rng(self, env):
        with pytest.raises(ValueError):
            Link(env, "l", 1e6, jitter_s=0.1)

    def test_negative_propagation_rejected(self, env):
        with pytest.raises(ValueError, match="propagation_s"):
            Link(env, "l", 1e6, propagation_s=-0.001)

    def test_negative_jitter_rejected(self, env):
        with pytest.raises(ValueError, match="jitter_s"):
            Link(env, "l", 1e6, jitter_s=-0.1,
                 rng=np.random.default_rng(0))

    @pytest.mark.parametrize("value", [float("inf"), float("nan")],
                             ids=["inf", "nan"])
    @pytest.mark.parametrize("field", ["bandwidth_bps", "propagation_s",
                                       "jitter_s"])
    def test_non_finite_rejected(self, env, field, value):
        kwargs = {"bandwidth_bps": 1e6, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Link(env, "l", rng=np.random.default_rng(0), **kwargs)

    @pytest.mark.parametrize("bps", [0.0, -1e6, float("inf"), float("nan")],
                             ids=["zero", "negative", "inf", "nan"])
    def test_set_bandwidth_rejects_non_positive(self, env, bps):
        link = Link(env, "l", 1e6)
        with pytest.raises(ValueError, match="bandwidth_bps"):
            link.set_bandwidth(bps)
        assert link.bandwidth_bps == 1e6


class TestLossAndDown:
    def test_loss_fails_transfer(self, env):
        link = Link(env, "l", 1e9, loss_rate=0.999,
                    rng=np.random.default_rng(1))
        out = deliver(env, link, Message(size_bytes=10))
        assert not out["ok"]
        assert isinstance(out["error"], TransferLost)
        assert link.stats.messages_lost == 1

    def test_zero_loss_never_drops(self, env):
        link = Link(env, "l", 1e9, loss_rate=0.0)
        for _ in range(50):
            assert deliver(env, link, Message(size_bytes=10))["ok"]

    def test_down_link_rejects(self, env):
        link = Link(env, "l", 1e6)
        link.set_up(False)
        out = deliver(env, link, Message(size_bytes=10))
        assert not out["ok"]
        assert isinstance(out["error"], LinkDown)

    def test_link_taken_down_while_queued_fails_the_waiter(self, env):
        """A message queued behind the transmitter checks the link again
        when its turn comes, and hands the transmitter back on failure."""
        link = Link(env, "l", bandwidth_bps=8e6)
        outcome = {}

        def sender(env, name):
            try:
                yield from link.transfer(Message(size_bytes=100_000))
                outcome[name] = ("ok", env.now)
            except LinkDown:
                outcome[name] = ("down", env.now)

        def breaker(env):
            yield env.timeout(0.05)
            link.set_up(False)

        env.process(sender(env, "first"))
        env.process(sender(env, "second"))
        env.process(breaker(env))
        env.run()
        # The first was already on the wire and completes.
        assert outcome["first"] == ("ok", pytest.approx(0.1))
        assert outcome["second"] == ("down", pytest.approx(0.1))
        assert link._transmitter.count == 0
        assert link.stats.messages_sent == 1

    def test_down_link_claims_no_transmitter_slot(self, env):
        link = Link(env, "l", 1e6)
        link.set_up(False)
        deliver(env, link, Message(size_bytes=10))
        assert link._transmitter.count == 0
        assert link._transmitter.queue_length == 0
        link.set_up(True)
        assert deliver(env, link, Message(size_bytes=10))["ok"]

    def test_jitter_adds_nonnegative_delay(self, env):
        link = Link(env, "l", 1e9, propagation_s=0.01, jitter_s=0.005,
                    rng=np.random.default_rng(2))
        base = Link(env, "b", 1e9, propagation_s=0.01)
        for _ in range(20):
            jittered = deliver(env, link, Message(size_bytes=1000))
            clean = deliver(env, base, Message(size_bytes=1000))
            assert jittered["elapsed"] >= clean["elapsed"] - 1e-12


class TestStats:
    def test_counters_accumulate(self, env):
        link = Link(env, "l", 8e6)
        for size in (1000, 2000, 3000):
            deliver(env, link, Message(size_bytes=size))
        assert link.stats.messages_sent == 3
        assert link.stats.bytes_sent == 6000

    def test_lost_message_adds_nothing_to_the_sent_counters(self, env):
        link = Link(env, "l", 1e9, loss_rate=0.999,
                    rng=np.random.default_rng(1))
        deliver(env, link, Message(size_bytes=500))
        assert link.stats.messages_lost == 1
        assert (link.stats.messages_sent, link.stats.bytes_sent) == (0, 0)
