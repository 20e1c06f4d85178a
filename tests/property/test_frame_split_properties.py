"""The server's frame loop against ``read_frame``, split anywhere.

For any frames and any chunk boundaries, a connection fed the chunks
answers exactly the frames that ``read_frame`` reads from the whole
byte string, in the same order — the reply to each ``echo`` frame
carries the frame it decoded.
"""

import asyncio

from hypothesis import given
from hypothesis import strategies as st

from repro.backend.protocol import encode_frame, read_frame

from frame_peer import Echo, connect

JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)

FRAMES = st.lists(
    st.dictionaries(st.text(max_size=8).filter(lambda key: key != "op"),
                    JSON, max_size=4).map(lambda body: {"op": "echo",
                                                        **body}),
    min_size=1, max_size=8)


def read_all(data: bytes) -> list[dict]:
    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = []
        while (frame := await read_frame(reader)) is not None:
            frames.append(frame)
        return frames

    return asyncio.run(_run())


def answered(chunks: list[bytes]) -> list[dict]:
    # ``echo`` answers inline, so no event loop is needed.
    connection, transport = connect(Echo())
    for chunk in chunks:
        connection.data_received(chunk)
    assert transport.reading and not transport.closed
    return [reply["frame"] for reply in transport.replies()]


@given(frames=FRAMES, data=st.data())
def test_any_split_yields_the_frames_read_frame_reads(frames, data):
    stream = b"".join(map(encode_frame, frames))
    cuts = sorted(data.draw(st.sets(
        st.integers(min_value=1, max_value=len(stream) - 1),
        max_size=min(len(stream) - 1, 24))))
    bounds = [0, *cuts, len(stream)]
    chunks = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    assert answered(chunks) == read_all(stream) == frames
