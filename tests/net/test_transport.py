"""Unit tests for repro.net.transport (RPC layer)."""

import types

import pytest

from repro.net import Message, Rpc, RpcError, RpcTimeout, Topology
from repro.sim import Environment, RngStreams, SimulationError

from ordering import shuffle_ties


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    """A mobile--edge--cloud chain with an rpc endpoint."""
    topo = Topology(env)
    topo.add_duplex("mobile", "edge", 100e6, propagation_s=0.001)
    topo.add_duplex("edge", "cloud", 20e6, propagation_s=0.010)
    return topo, Rpc(env, topo)


class TestSend:
    def test_delivers_to_inbox(self, env, net):
        topo, rpc = net
        msg = Message(size_bytes=1000, src="mobile", dst="cloud")
        received = []

        def server(env):
            m = yield rpc.serve(topo.hosts["cloud"])
            received.append((env.now, m))

        env.process(server(env))
        env.process(rpc.send(msg))
        env.run()
        assert received and received[0][1] is msg
        # Two-hop store-and-forward: tx at both links + both props.
        expected = 1000 * 8 / 100e6 + 0.001 + 1000 * 8 / 20e6 + 0.010
        assert received[0][0] == pytest.approx(expected)

    def test_missing_addressing_rejected(self, env, net):
        _, rpc = net
        with pytest.raises(ValueError):
            rpc.send(Message(size_bytes=10))

    def test_unroutable_destination_fails_event(self, env, net):
        topo, rpc = net
        topo.add_host("island")
        msg = Message(size_bytes=10, src="mobile", dst="island")
        failures = []

        def sender(env):
            try:
                yield from rpc.send(msg)
            except RpcError as exc:
                failures.append(exc)

        env.run(until=env.process(sender(env)))
        assert failures


class TestCall:
    def test_round_trip(self, env, net):
        topo, rpc = net

        def server(env):
            request = yield rpc.serve(topo.hosts["cloud"])
            yield env.timeout(0.05)
            yield from rpc.respond(request, size_bytes=500, payload="answer")

        def client(env):
            msg = Message(size_bytes=1000, src="mobile", dst="cloud")
            response = yield rpc.call(msg)
            return (response.payload, env.now)

        env.process(server(env))
        p = env.process(client(env))
        payload, elapsed = env.run(until=p)
        assert payload == "answer"
        assert elapsed > 0.05

    def test_response_does_not_hit_inbox(self, env, net):
        """Replies resolve the call; server loops never see them."""
        topo, rpc = net

        def server(env):
            request = yield rpc.serve(topo.hosts["cloud"])
            yield from rpc.respond(request, size_bytes=10)

        def client(env):
            yield rpc.call(Message(size_bytes=10, src="mobile",
                                   dst="cloud"))

        env.process(server(env))
        env.run(until=env.process(client(env)))
        env.run()
        assert topo.hosts["mobile"].inbox.items == []

    def test_timeout_fires(self, env, net):
        topo, rpc = net
        # No server: the call can never be answered.
        errors = []

        def client(env):
            try:
                yield rpc.call(Message(size_bytes=10, src="mobile",
                                       dst="cloud"), timeout=0.5)
            except RpcTimeout as exc:
                errors.append((env.now, exc))

        env.run(until=env.process(client(env)))
        env.run()
        assert errors and errors[0][0] == pytest.approx(0.5, abs=0.01)

    def test_late_response_after_timeout_is_ignored(self, env, net):
        topo, rpc = net

        def slow_server(env):
            request = yield rpc.serve(topo.hosts["cloud"])
            yield env.timeout(5.0)
            # Responds long after the deadline; must not crash anything.
            yield from rpc.respond(request, size_bytes=10,
                                   payload="too late")

        outcome = []

        def client(env):
            try:
                yield rpc.call(Message(size_bytes=10, src="mobile",
                                       dst="cloud"), timeout=0.2)
            except RpcTimeout:
                outcome.append("timed out")

        env.process(slow_server(env))
        env.run(until=env.process(client(env)))
        env.run()
        assert outcome == ["timed out"]

    def test_concurrent_calls_demultiplex(self, env, net):
        topo, rpc = net

        def server(env):
            while True:
                request = yield rpc.serve(topo.hosts["cloud"])
                # Answer out of order: second request returns first.
                delay = 0.2 if request.payload == "first" else 0.05
                env.process(respond_later(env, request, delay))

        def respond_later(env, request, delay):
            yield env.timeout(delay)
            yield from rpc.respond(request, size_bytes=10,
                                   payload=f"re:{request.payload}")

        results = {}

        def client(env, tag):
            msg = Message(size_bytes=10, src="mobile", dst="cloud",
                          payload=tag)
            response = yield rpc.call(msg)
            results[tag] = response.payload

        env.process(server(env))
        p1 = env.process(client(env, "first"))
        p2 = env.process(client(env, "second"))
        env.run(until=p1)
        env.run(until=p2) if not p2.processed else None
        assert results == {"first": "re:first", "second": "re:second"}


class TestRetries:
    def test_loss_is_retried_transparently(self, env):
        topo = Topology(env)
        rng = RngStreams(5)
        topo.add_link("a", "b", 1e9, loss_rate=0.3,
                      rng=rng.stream("loss"))
        rpc = Rpc(env, topo, max_retries=50)
        delivered = []

        def sender(env):
            for i in range(20):
                yield from rpc.send(
                    Message(size_bytes=100, src="a", dst="b"))
                delivered.append(i)

        env.run(until=env.process(sender(env)))
        assert len(delivered) == 20

    def test_retries_exhausted_raises(self, env):
        topo = Topology(env)
        rng = RngStreams(6)
        topo.add_link("a", "b", 1e9, loss_rate=0.99,
                      rng=rng.stream("loss"))
        rpc = Rpc(env, topo, max_retries=2)
        errors = []

        def sender(env):
            try:
                yield from rpc.send(
                    Message(size_bytes=100, src="a", dst="b"))
            except RpcError as exc:
                errors.append(exc)

        env.run(until=env.process(sender(env)))
        assert errors


class TestEventBudget:
    def test_round_trip_budget(self, env):
        """Only a ``call`` costs a process; a relay creeping back shows here.

        The request: its process's _Initialize, serialization, flight and
        the server's wake-up from the inbox ``get`` (4) — the free
        transmitter is granted on the spot, the inbox ``put`` is a plain
        call and the finished process has no waiter.  The reply runs inside the
        responder: serialization, flight, the caller's response event (3).
        The two test processes start (2); the call's expiry fires last (1).
        """
        topo = Topology(env)
        topo.add_duplex("a", "b", 1e9, propagation_s=0.001)
        rpc = Rpc(env, topo)
        started = []
        env.set_trace(lambda when, priority, event: started.append(
            type(event).__name__ == "_Initialize"))

        def server(env):
            request = yield rpc.serve(topo.hosts["b"])
            yield from rpc.respond(request, size_bytes=100, payload="pong")

        def client(env):
            response = yield rpc.call(
                Message(size_bytes=100, src="a", dst="b"), timeout=1.0)
            return response.payload

        env.process(server(env))
        p = env.process(client(env))
        env.run()
        assert p.value == "pong"
        assert sum(started) - 2 == 1   # transport processes: the call's
        assert env.events_processed == 10


class TestFaultMatrix:
    def test_second_hop_loss_retried_on_that_hop_only(self, env):
        topo = Topology(env)
        first = topo.add_link("a", "b", 1e9)
        draws = iter([0.0, 0.9])   # lost once, then through
        second = topo.add_link("b", "c", 1e9, loss_rate=0.5,
                               rng=types.SimpleNamespace(random=draws.__next__))
        rpc = Rpc(env, topo)
        delivery = env.process(
            rpc.send(Message(size_bytes=100, src="a", dst="c")))
        env.run(until=delivery)
        assert (first.stats.messages_sent, first.stats.messages_lost) == (1, 0)
        assert (second.stats.messages_sent, second.stats.messages_lost) == (1, 1)

    def test_link_down_while_queued_fails_call_and_frees_transmitter(self, env):
        topo = Topology(env)
        link = topo.add_link("a", "b", 1e6)   # 1 s per 125 kB
        rpc = Rpc(env, topo)
        outcome = []

        def caller(env):
            env.process(
                rpc.send(Message(size_bytes=125_000, src="a", dst="b")))
            try:
                yield rpc.call(Message(size_bytes=100, src="a", dst="b"))
            except RpcError as exc:
                outcome.append((env.now, str(exc)))
            link.set_up(True)
            yield from rpc.send(
                Message(size_bytes=125_000, src="a", dst="b"))
            outcome.append(env.now)

        def operator(env):
            yield env.timeout(0.5)
            link.set_up(False)

        env.process(operator(env))
        env.run(until=env.process(caller(env)))
        # The queued call dies the moment it reaches the transmitter;
        # the message after it crosses, so the slot was handed back.
        assert outcome == [(1.0, "link a->b is down"), 2.0]
        assert link._transmitter.count == 0 and not rpc._pending
        assert link.stats.messages_sent == 2

    def test_respond_over_down_link_raises_in_responder(self, env, net):
        topo, rpc = net
        caught = []

        def server(env):
            request = yield rpc.serve(topo.hosts["edge"])
            topo.link("edge", "mobile").set_up(False)
            try:
                yield from rpc.respond(request, size_bytes=10)
            except RpcError as exc:
                caught.append(str(exc))

        def client(env):
            with pytest.raises(RpcTimeout):
                yield rpc.call(Message(size_bytes=10, src="mobile",
                                       dst="edge"), timeout=0.5)

        env.process(server(env))
        env.run(until=env.process(client(env)))
        env.run()
        assert len(caught) == 1 and "mobile" in caught[0]

    def test_unwaited_failed_send_aborts_the_run(self, env, net):
        topo, rpc = net
        topo.add_host("island")
        env.process(
            rpc.send(Message(size_bytes=10, src="mobile", dst="island")))
        with pytest.raises(SimulationError, match="island"):
            env.run()

    def test_undeliverable_call_fails_the_caller_and_leaves_nothing(self, env,
                                                                    net):
        topo, rpc = net
        topo.add_host("island")

        def client(env):
            with pytest.raises(RpcError, match="island") as caught:
                yield rpc.call(Message(size_bytes=10, src="mobile",
                                       dst="island"), timeout=0.5)
            assert not isinstance(caught.value, RpcTimeout)
            return env.now

        assert env.run(until=env.process(client(env))) == 0.0
        assert not rpc._pending
        env.run()   # no failed process-event left to raise SimulationError

    def test_reply_after_expiry_is_dropped_and_respond_completes(self, env, net):
        topo, rpc = net
        completed = []

        def slow_server(env):
            request = yield rpc.serve(topo.hosts["cloud"])
            yield env.timeout(5.0)
            reply = yield from rpc.respond(request, size_bytes=10)
            completed.append((reply.kind, reply.dst))

        def client(env):
            with pytest.raises(RpcTimeout):
                yield rpc.call(Message(size_bytes=10, src="mobile",
                                       dst="cloud"), timeout=0.2)
            return env.now

        env.process(slow_server(env))
        assert env.run(until=env.process(client(env))) == pytest.approx(0.2)
        env.run()
        assert completed == [("reply", "mobile")]
        assert not rpc._pending
        assert topo.hosts["mobile"].inbox.items == []


class TestCallOrder:
    @pytest.mark.parametrize("shuffle_seed", [None, *range(8)])
    def test_a_hosts_calls_leave_in_call_order(self, shuffle_seed):
        # Three calls made in one instant each start delivering in a
        # process of their own; whatever order those same-instant starts
        # pop in, the requests take the link in call order.
        env = Environment()
        topo = Topology(env)
        topo.add_duplex("mobile", "edge", 100e6, propagation_s=0.001)
        rpc = Rpc(env, topo)
        if shuffle_seed is not None:
            shuffle_ties(env, shuffle_seed)
        arrived = []

        def server():
            while True:
                msg = yield rpc.serve(topo.hosts["edge"])
                arrived.append(msg.payload)

        def client():
            yield 0.5
            for n in range(3):
                rpc.call(Message(size_bytes=1000, src="mobile", dst="edge",
                                 payload=n))

        env.process(server())
        env.process(client())
        env.run(until=1.0)
        assert arrived == [0, 1, 2]
        assert not (rpc._called or rpc._started or rpc._held)
