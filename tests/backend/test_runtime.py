"""The asyncio interpreter of the edge's stage generators."""

import asyncio

import pytest

from repro.backend import runtime, server
from repro.backend.cloud_server import CloudService
from repro.backend.server import FrameServer
from repro.core.tasks import RecognitionTask
from repro.net.message import Message
from repro.net.transport import RpcError
from repro.vision.image import CameraFrame


async def _fail():
    raise RpcError("down")


def test_drive_skips_charges_awaits_the_rest_and_throws_back_errors():
    # A bare number is a modelled charge (skipped, resumes with None);
    # an awaitable's value is sent back; its exception is thrown in.
    compute = runtime.Compute(2)
    seen = []

    def stages():
        slot = compute.request()
        seen.append((yield slot))
        seen.append((yield 0.5))
        compute.release(slot)
        seen.append((yield 3))
        seen.append((yield asyncio.sleep(0, result="slept")))
        try:
            yield _fail()
        except RpcError as exc:
            seen.append(str(exc))
        return "done"

    assert asyncio.run(runtime.drive(stages())) == "done"
    assert seen == [None, None, None, "slept", "down"]
    assert (compute.count, compute.queue_length) == (0, 0)


def test_an_error_the_generator_does_not_handle_propagates():
    def stages():
        yield _fail()

    with pytest.raises(RpcError, match="down"):
        asyncio.run(runtime.drive(stages()))


def test_env_timeout_is_a_real_wait_where_a_number_is_a_charge():
    # A shed's backoff is yielded as env.timeout(delay): waited on every
    # backend, unlike a bare number, which drive() skips.
    env = runtime.Env()

    def client():
        yield 30.0
        yield env.timeout(0.02)

    started = env.now
    asyncio.run(runtime.drive(client()))
    assert 0.02 <= env.now - started < 1.0


def test_a_broken_stream_reconnects_to_the_attached_address_first():
    # A reset of an established connection is not a dead edge: the
    # re-attempt connects to the same address and the route stays
    # there.  Only a refused connect walks on to the next address.
    from repro.backend.protocol import read_frame, write_frame

    def answering(name, once):
        async def handle(reader, writer):
            while (frame := await read_frame(reader)) is not None:
                await write_frame(writer, {"op": "ok", "by": name,
                                           "id": frame["id"]})
                if once:
                    break
            writer.close()
        return handle

    async def _run():
        first = await asyncio.start_server(answering("a", True), "127.0.0.1", 0)
        second = await asyncio.start_server(answering("b", False),
                                            "127.0.0.1", 0)
        route = runtime.Route(
            "edge", [s.sockets[0].getsockname()[:2] for s in (first, second)],
            retries=3, backoff_s=0.0)
        by = []
        try:
            for _ in range(2):  # "a" drops each connection after a reply
                by.append((await route.call({}))["by"])
            by.append(route.attached)
            first.close()
            await first.wait_closed()
            by.append((await route.call({}))["by"])
            by.append(route.attached)
        finally:
            route.close()
            second.close()
        return by

    assert asyncio.run(_run()) == ["a", "a", 0, "b", 1]


def test_rpc_has_no_route_for_peer_traffic():
    # Edges have no peers on sockets yet: only ic_request (a client's
    # edge) and cloud_request (an edge's cloud) are routed.
    probe = Message(size_bytes=96, kind="peer_lookup", dst="edge1")
    with pytest.raises(RpcError, match="no route"):
        runtime.Rpc(cloud=None, edges=[("127.0.0.1", 1)]).call(probe)


def test_start_finishes_a_generator_of_numbers_without_a_loop():
    # No event loop runs here: a generator that yields only charges
    # finishes inside start(), which returns its value.
    def stages():
        yield 0.5
        yield 2
        return "answered"

    assert runtime.start(stages()) == "answered"


def test_start_stops_at_the_first_wait_and_the_rest_throws_errors_in():
    seen = []

    def stages():
        seen.append("charged")
        yield 1.0
        try:
            yield _fail()
        except RpcError as exc:
            seen.append(str(exc))
        seen.append((yield asyncio.sleep(0, result="slept")))
        return "done"

    async def _run():
        rest = runtime.start(stages())
        assert isinstance(rest, runtime.Waiting)
        assert seen == ["charged"]
        return await rest

    assert asyncio.run(_run()) == "done"
    assert seen == ["charged", "down", "slept"]


def test_cancelling_the_rest_runs_the_generators_finally():
    seen = []

    def stages():
        try:
            yield asyncio.sleep(30)
        finally:
            seen.append("released")

    async def _run():
        task = asyncio.ensure_future(runtime.start(stages()))
        await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    asyncio.run(_run())
    assert seen == ["released"]


class Sleepy(FrameServer):
    """``sleep`` answers ``{"op": "slept", "n": n}`` after ``s`` seconds."""

    def __init__(self) -> None:
        super().__init__()
        self.ops["sleep"] = (lambda frame: (frame["s"], frame["n"]),
                             self._sleep)

    def counters(self) -> dict:
        return {}

    @staticmethod
    async def _sleep(seconds: float, n: int) -> dict:
        await asyncio.sleep(seconds)
        return {"op": "slept", "n": n}


def test_a_timed_out_call_leaves_the_other_call_and_the_connection(
        monkeypatch):
    # Two calls share the route's one connection.  The first times out:
    # it drops only its own id, its late reply is dropped, and the
    # second's reply arrives intact, with no second connection opened.
    connects = []
    connect = server.connect

    async def counted(host, port):
        connects.append(port)
        return await connect(host, port)

    monkeypatch.setattr(server, "connect", counted)

    async def _run():
        service = Sleepy()
        await service.start()
        route = runtime.Route("svc", [("127.0.0.1", service.port)], 0, 0.0)
        try:
            late = asyncio.wait_for(
                route.call({"op": "sleep", "s": 0.05, "n": 1}), 0.01)
            kept = route.call({"op": "sleep", "s": 0.1, "n": 2})
            results = await asyncio.gather(late, kept,
                                           return_exceptions=True)
            connection = route.connection
            after = await route.call({"op": "sleep", "s": 0.0, "n": 3})
            return (results, after, connection is route.connection,
                    connection.closed, dict(connection._pending))
        finally:
            route.close()
            await service.stop()

    results, after, same, closed, pending = asyncio.run(_run())
    assert isinstance(results[0], asyncio.TimeoutError)
    assert results[1] == {"op": "slept", "n": 2}
    assert after == {"op": "slept", "n": 3}
    assert same and not closed and pending == {}
    assert len(connects) == 1


def _cloud_request(object_class: int) -> Message:
    task = RecognitionTask(frame=CameraFrame(
        object_class=object_class, viewpoint=0.0, capture_id=1))
    return Message(size_bytes=task.input_bytes, kind="cloud_request",
                   payload=task)


def test_closing_an_rpc_fails_its_pending_calls_with_rpc_error():
    async def _run():
        cloud = CloudService({"backhaul_mbps": 1000.0,
                              "backhaul_delay_ms": 0.0, "inference_s": 30.0})
        await cloud.start()
        rpc = runtime.Rpc(cloud=("127.0.0.1", cloud.port))
        try:
            waiting = [asyncio.ensure_future(rpc.call(_cloud_request(k)))
                       for k in range(2)]
            route = rpc._routes["cloud_request"]
            while route.connection is None or len(
                    route.connection._pending) < 2:
                await asyncio.sleep(0.005)
            rpc.close()
            outcomes = await asyncio.wait_for(asyncio.gather(
                *waiting, return_exceptions=True), 1.0)
            with pytest.raises(RpcError, match="closed"):
                await rpc.call(_cloud_request(0))
            return outcomes
        finally:
            await cloud.stop()

    outcomes = asyncio.run(_run())
    assert [type(o) for o in outcomes] == [RpcError, RpcError]
    assert all("cloud route closed" in str(o) for o in outcomes)
