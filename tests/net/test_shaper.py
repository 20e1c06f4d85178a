"""Unit tests for repro.net.shaper (tc-like control)."""

import pytest

from repro.net import Link, Message, NetemImpairment, TrafficShaper
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestSetRate:
    def test_mbps_and_bps_equivalent(self, env):
        shaper = TrafficShaper(env)
        l1 = Link(env, "l1", 1e6)
        l2 = Link(env, "l2", 1e6)
        shaper.set_rate(l1, mbps=42)
        shaper.set_rate(l2, bps=42e6)
        assert l1.bandwidth_bps == l2.bandwidth_bps == 42e6

    def test_exactly_one_unit_required(self, env):
        shaper = TrafficShaper(env)
        link = Link(env, "l", 1e6)
        with pytest.raises(ValueError):
            shaper.set_rate(link)
        with pytest.raises(ValueError):
            shaper.set_rate(link, bps=1, mbps=1)

    def test_change_log(self, env):
        shaper = TrafficShaper(env)
        link = Link(env, "l", 1e6)
        shaper.set_rate(link, mbps=10)
        assert shaper.changes[0][1] == "l"


class TestImpairments:
    def test_netem_bundle_applies(self, env):
        import numpy as np

        shaper = TrafficShaper(env)
        link = Link(env, "l", 1e6, rng=np.random.default_rng(0))
        shaper.set_impairment(link, NetemImpairment(
            delay_s=0.05, jitter_s=0.001, loss_rate=0.01))
        assert link.propagation_s == 0.05
        assert link.jitter_s == 0.001
        assert link.loss_rate == 0.01

    def test_invalid_bundle_rejected(self):
        with pytest.raises(ValueError):
            NetemImpairment(delay_s=-1)
        with pytest.raises(ValueError):
            NetemImpairment(loss_rate=1.5)


class TestScheduledChanges:
    def test_rate_change_at_time(self, env):
        shaper = TrafficShaper(env)
        link = Link(env, "l", 8e6)
        shaper.at(10.0, link, mbps=80)
        # Before: 1 Mbit message takes 0.125 s.
        done = []

        def sender(env):
            yield from link.transfer(Message(size_bytes=125_000))
            done.append(env.now)
            yield env.timeout(10.5 - env.now)
            yield from link.transfer(Message(size_bytes=125_000))
            done.append(env.now)

        env.run(until=env.process(sender(env)))
        assert done[0] == pytest.approx(0.125)
        assert done[1] == pytest.approx(10.5 + 0.0125)

    def test_past_schedule_rejected(self, env):
        shaper = TrafficShaper(env)
        link = Link(env, "l", 1e6)
        env.timeout(5)
        env.run()
        with pytest.raises(ValueError):
            shaper.at(1.0, link, mbps=10)

    def test_empty_schedule_rejected(self, env):
        shaper = TrafficShaper(env)
        link = Link(env, "l", 1e6)
        with pytest.raises(ValueError):
            shaper.at(10.0, link)

    def test_replay_trace(self, env):
        shaper = TrafficShaper(env)
        link = Link(env, "l", 1e6)
        shaper.replay_trace(link, [(1.0, 10), (2.0, 20), (3.0, 5)])
        env.run(until=2.5)
        assert link.bandwidth_bps == 20e6
        env.run(until=3.5)
        assert link.bandwidth_bps == 5e6
