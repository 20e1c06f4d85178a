"""Concurrent calls on one route each get their own reply.

Any set of ``resolve`` calls, each held by the cloud stub for its own
few milliseconds (its ``input_bytes`` over a 1 Mbps backhaul), sent at
once down one :class:`~repro.backend.runtime.Route`: the replies come
back in whatever order the delays give, and every caller gets the label
of its own request.  Afterwards the connection waits for nothing.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import runtime
from repro.backend.cloud_server import CloudService

#: 1 Mbps: a frame's ``input_bytes`` hold it 8 us each, so 0..2500 bytes
#: is a 0..20 ms shim.
SHIM = {"backhaul_mbps": 1.0, "backhaul_delay_ms": 0.0, "inference_s": 0.0}

CALLS = st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 2500)),
                 min_size=1, max_size=12)


async def _resolve_all(calls):
    cloud = CloudService(SHIM)
    await cloud.start()
    route = runtime.Route("cloud", [("127.0.0.1", cloud.port)], 1, 0.0)
    try:
        replies = await asyncio.gather(*(
            route.call({"op": "resolve", "object_class": label,
                        "capture_id": k, "input_bytes": size})
            for k, (label, size) in enumerate(calls)))
        return replies, dict(route.connection._pending), cloud.resolved
    finally:
        route.close()
        await cloud.stop()


@settings(max_examples=30)
@given(calls=CALLS)
def test_each_concurrent_caller_gets_the_reply_to_its_own_request(calls):
    replies, pending, resolved = asyncio.run(_resolve_all(calls))
    assert [reply["label"] for reply in replies] == [
        label for label, _ in calls]
    assert all(reply == {"op": "resolved", "label": reply["label"]}
               for reply in replies)
    assert pending == {}
    assert resolved == len(calls)
