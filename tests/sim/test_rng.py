"""Unit tests for repro.sim.rng."""

import numpy as np
import pytest

from repro.sim import RngStreams


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = RngStreams(42).stream("x").random(10)
        b = RngStreams(42).stream("x").random(10)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        rng = RngStreams(42)
        a = rng.stream("a").random(10)
        b = rng.stream("b").random(10)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x").random(10)
        b = RngStreams(2).stream("x").random(10)
        assert not np.array_equal(a, b)

    def test_stream_is_cached(self):
        rng = RngStreams(0)
        assert rng.stream("s") is rng.stream("s")

    def test_consumption_isolated_between_streams(self):
        """Draining one stream must not shift another."""
        rng1 = RngStreams(7)
        rng1.stream("noise").random(1000)  # heavy consumer
        a = rng1.stream("signal").random(5)

        rng2 = RngStreams(7)
        b = rng2.stream("signal").random(5)
        assert np.array_equal(a, b)

    def test_fork_differs_from_parent(self):
        parent = RngStreams(3)
        child = parent.fork(1)
        assert not np.array_equal(parent.stream("x").random(5),
                                  child.stream("x").random(5))

    def test_fork_deterministic(self):
        a = RngStreams(3).fork(9).stream("x").random(5)
        b = RngStreams(3).fork(9).stream("x").random(5)
        assert np.array_equal(a, b)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RngStreams(0).stream("")

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngStreams("seed")

    def test_negative_seed_rejected_at_construction(self):
        # numpy would only refuse it at the first stream(), which for a
        # handoff's new access link comes mid-run.
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            RngStreams(-1)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**40 + 5])
    def test_stream_keyed_like_seed_sequence_of_seed_and_name(self, seed):
        # Seeds of 2**32 and above span several 32-bit entropy words.
        for name in ("mobility.user.mobile0_0", "caf\u00e9"):
            expected = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence([seed, *name.encode("utf-8")])))
            got = RngStreams(seed).stream(name)
            assert (got.bit_generator.state
                    == expected.bit_generator.state)


class TestTake:
    def test_draws_what_stream_would_and_is_not_kept(self):
        rng = RngStreams(3)
        taken = rng.take("mobility.user.m0")
        assert "mobility.user.m0" not in rng._streams
        assert np.array_equal(taken.random(4),
                              RngStreams(3).stream("mobility.user.m0")
                              .random(4))

    def test_a_taken_name_is_not_handed_out_again(self):
        # Either way a second reader would replay the taken stream
        # from its start.
        rng = RngStreams(3)
        rng.take("mobility.user.m0")
        with pytest.raises(ValueError, match="taken"):
            rng.take("mobility.user.m0")
        with pytest.raises(ValueError, match="taken"):
            rng.stream("mobility.user.m0")

    def test_a_built_stream_cannot_be_taken(self):
        rng = RngStreams(3)
        rng.stream("net.x")
        with pytest.raises(ValueError, match="already built"):
            rng.take("net.x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RngStreams(0).take("")

