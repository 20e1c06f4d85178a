"""The asyncio interpreter of the edge's stage generators."""

import asyncio

import pytest

from repro.backend import runtime
from repro.net.message import Message
from repro.net.transport import RpcError


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


def test_rpc_routes_only_the_cloud_leg():
    probe = Message(size_bytes=96, kind="peer_lookup", dst="edge1")
    with pytest.raises(RpcError, match="no route"):
        runtime.Rpc(cloud=None).call(probe)
