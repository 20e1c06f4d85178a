"""Frame-level tests for the real backend's wire protocol and codec."""

import asyncio
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backend import runtime
from repro.backend.cloud_server import CloudService
from repro.backend.edge_server import EdgeService
from repro.backend.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    bad_frame_reply,
    call,
    decode_body,
    decode_reply,
    decode_request,
    encode_frame,
    encode_reply,
    encode_request,
    read_frame,
)
from repro.backend import server as server_module
from repro.backend.server import READ_LIMIT, Connection, FrameServer
from repro.core.client import CoICClient
from repro.core.config import CoICConfig
from repro.core.descriptors import VectorDescriptor
from repro.core.metrics import MetricsRecorder, OUTCOME_ERROR, OUTCOME_MISS
from repro.core.sketch import SKETCH_DIM
from repro.core.tasks import RecognitionTask
from repro.net.message import Message
from repro.vision.image import RESOLUTIONS, CameraFrame
from repro.vision.recognition import RecognitionResult

from frame_peer import Echo, FakeTransport, connect


def read_from_bytes(data: bytes, eof: bool = True):
    """Drive read_frame over an in-memory StreamReader."""

    async def _run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(_run())


class TestFraming:
    def test_round_trip(self):
        message = {"op": "recognize", "capture_id": 7,
                   "viewpoint": -0.25, "user": "m0"}
        assert read_from_bytes(encode_frame(message)) == message

    def test_prefix_is_4_byte_big_endian(self):
        frame = encode_frame({"op": "x"})
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4

    def test_two_frames_back_to_back(self):
        first, second = {"op": "a"}, {"op": "b", "n": 2}

        async def _run():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(first) + encode_frame(second))
            reader.feed_eof()
            return await read_frame(reader), await read_frame(reader)

        assert asyncio.run(_run()) == (first, second)

    def test_clean_eof_returns_none(self):
        assert read_from_bytes(b"") is None

    def test_eof_mid_prefix_raises(self):
        with pytest.raises(ProtocolError, match="mid-prefix"):
            read_from_bytes(b"\x00\x00")

    def test_eof_mid_frame_raises(self):
        frame = encode_frame({"op": "x"})
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_from_bytes(frame[:-2])

    def test_oversized_length_prefix_rejected_before_reading(self):
        huge = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            read_from_bytes(huge, eof=False)

    def test_oversized_outgoing_frame_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_body(b"[1, 2, 3]")

    @pytest.mark.parametrize("body", [
        b"\xff\xfe{}",                     # not UTF-8
        b"{not json",                       # UTF-8, not JSON
        b"[" * 100_000,                     # nested past the stack
    ], ids=["non-utf8", "non-json", "too-deep"])
    def test_undecodable_body_is_a_protocol_error(self, body):
        # Every caller's ``except`` names ProtocolError: a body that
        # cannot be decoded must not surface as a bare ValueError.
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_body(body)
        with pytest.raises(ProtocolError, match="undecodable"):
            read_from_bytes(struct.pack(">I", len(body)) + body)


async def exchange(service, frames):
    """Start ``service``, send ``frames`` down ONE connection in order."""
    await service.start()
    reader, writer = await asyncio.open_connection("127.0.0.1",
                                                   service.port)
    try:
        return [await call(reader, writer, frame) for frame in frames]
    finally:
        writer.close()
        await service.stop()


class TestMalformedFrames:
    """A bad frame costs an ``error`` reply, not the connection."""

    def test_edge_answers_bad_recognize_frames_and_keeps_serving(
            self, edge_payload):
        # A class the 4-class edge does not know and a NaN viewpoint
        # are bad fields like a missing or ill-typed one: each costs an
        # error reply, and the next frame on the connection is served.
        async def _run():
            service = EdgeService(edge_payload())
            replies = await exchange(service, [
                {"op": "recognize"},
                {"op": "recognize", "object_class": "x", "capture_id": 1},
                {"op": "recognize", "object_class": 99, "capture_id": 1},
                {"op": "recognize", "object_class": 2, "capture_id": 1,
                 "viewpoint": float("nan")},
                {"op": "recognize", "object_class": 2, "capture_id": 1},
            ])
            return replies, service

        (missing, ill_typed, unknown_class, nan_viewpoint, good), service = \
            asyncio.run(_run())
        assert missing["op"] == "error" and "object_class" in missing["error"]
        assert ill_typed["op"] == "error"
        assert unknown_class["op"] == "error"
        assert "object_class 99 outside [0, 4)" in unknown_class["error"]
        assert nan_viewpoint["op"] == "error"
        assert "not finite" in nan_viewpoint["error"]
        assert good["outcome"] == OUTCOME_MISS and good["label"] == 2
        counters = service.counters()
        assert counters["served"] == 1 and counters["misses"] == 1
        assert service.active == 0

    #: Frames the codec once served by running ``int()`` / ``float()``
    #: on wire fields (class 3.7 as class 3; a negative capture id took
    #: the simulator's legacy noise path, which a real edge cannot).
    COERCIBLE = [{"object_class": 3.7}, {"object_class": "5"},
                 {"object_class": True}, {"capture_id": "9"},
                 {"capture_id": -5}, {"viewpoint": "0.25"},
                 {"input_bytes": 2.9}]

    def test_coercible_fields_are_rejected_not_coerced(self, edge_payload):
        good = {"op": "recognize", "object_class": 2, "capture_id": 1}

        async def _run():
            service = EdgeService(edge_payload())
            replies = await exchange(
                service, [{**good, **bad} for bad in self.COERCIBLE] + [good])
            return replies, service

        (*errors, served), service = asyncio.run(_run())
        for bad, reply in zip(self.COERCIBLE, errors):
            assert reply["op"] == "error", bad
            assert "bad recognize frame" in reply["error"], bad
        assert served["outcome"] == OUTCOME_MISS and served["label"] == 2
        assert service.counters()["served"] == 1
        assert service.active == 0

    def test_cloud_answers_a_resolve_frame_without_object_class(self):
        async def _run():
            service = CloudService({"backhaul_mbps": 1000.0,
                                    "backhaul_delay_ms": 0.0,
                                    "inference_s": 0.0})
            replies = await exchange(service, [
                {"op": "resolve"},
                {"op": "resolve", "object_class": 3},
            ])
            return replies, service.resolved

        (bad, good), resolved = asyncio.run(_run())
        assert bad["op"] == "error" and "object_class" in bad["error"]
        assert good == {"op": "resolved", "label": 3}
        assert resolved == 1

    @pytest.mark.parametrize("service, bad, good, answer", [
        ("edge",
         {"op": "recognize", "object_class": 2, "capture_id": "x"},
         {"op": "recognize", "object_class": 2, "capture_id": 1}, "result"),
        ("cloud",
         {"op": "resolve", "object_class": []},
         {"op": "resolve", "object_class": 2}, "resolved"),
    ], ids=["edge", "cloud"])
    def test_unknown_op_and_bad_field_cost_an_error_reply_only(
            self, edge_payload, service, bad, good, answer):
        # The shared connection loop's contract, once per service: no
        # op, an unknown op, an unhashable op and a badly typed field
        # are each answered with ``error`` on a connection that then
        # serves a good frame and the stats probe.
        async def _run():
            server = (EdgeService(edge_payload()) if service == "edge"
                      else CloudService({"backhaul_mbps": 1000.0,
                                         "backhaul_delay_ms": 0.0,
                                         "inference_s": 0.0}))
            return await exchange(server, [
                {}, {"op": "frobnicate"}, {"op": ["stats"]}, bad, good,
                {"op": "stats"}])

        no_op, unknown, unhashable, ill_typed, served, stats = \
            asyncio.run(_run())
        for reply, fragment in ((no_op, "unknown op None"),
                                (unknown, "unknown op 'frobnicate'"),
                                (unhashable, "unknown op ['stats']"),
                                (ill_typed, f"bad {bad['op']} frame")):
            assert reply["op"] == "error" and fragment in reply["error"]
        assert served["op"] == answer and served["label"] == 2
        assert stats["op"] == "counters"

    def test_client_records_an_error_reply_as_an_error_outcome(self):
        # An edge's refusal, and a reply that is no reply at all (a
        # result without a label, an unknown op), each end the client's
        # request as an error outcome — never as an exception escaping
        # drive() — and the connection serves the next request.
        replies = [
            ({"op": "error", "error": "bad recognize frame: KeyError('x')"},
             "bad recognize frame: KeyError('x')"),
            ({"op": "result", "outcome": "hit", "served_by": "edge0"},
             "bad reply frame: KeyError('label')"),
            ({"op": "frobnicate"}, "unexpected reply op 'frobnicate'"),
        ]
        recorder = MetricsRecorder()

        async def _run():
            edge = Replying([reply for reply, _ in replies])
            await edge.start()
            client = CoICClient(
                runtime.Env(), runtime.Rpc(edges=[("127.0.0.1", edge.port)]),
                "m0", CoICConfig(seed=0), recognizer=None, loader=None,
                recorder=recorder, edge_name="edge0")
            try:
                for capture_id in range(len(replies)):
                    await runtime.drive(client.perform(RecognitionTask(
                        CameraFrame(object_class=2, capture_id=capture_id))))
            finally:
                client.rpc.close()
                await edge.stop()

        asyncio.run(_run())
        assert len(recorder.records) == len(replies)
        for record, (_, error) in zip(recorder.records, replies):
            assert record.outcome == OUTCOME_ERROR and record.correct is None
            assert error in record.detail["error"]


class Replying(FrameServer):
    """Answers successive ``recognize`` frames with canned replies."""

    def __init__(self, replies):
        super().__init__()
        self.ops["recognize"] = (lambda frame: (), self._reply)
        self.replies = iter(replies)

    async def _reply(self):
        return next(self.replies)


def recognition_request(**headers) -> Message:
    """A client's ``ic_request`` for capture 7 (class 2) of a 720p frame."""
    frame = CameraFrame(object_class=2, viewpoint=-0.25, user="m0", seq=3,
                        capture_id=7, resolution=RESOLUTIONS["720p"])
    return Message(size_bytes=64, kind="ic_request",
                   payload=RecognitionTask(frame), headers=headers)


class TestCodec:
    """``Message`` <-> frame: what crosses the socket is what the
    simulator's messages carry."""

    def test_a_client_descriptor_request_round_trips(self):
        vector = np.linspace(-1.0, 1.0, 16, dtype=np.float32)
        sketch = np.linspace(0.5, -0.5, SKETCH_DIM)
        msg = recognition_request(
            descriptor=VectorDescriptor(kind="recognition", vector=vector),
            has_input=True, force_forward=True, sketch=sketch)
        frame = read_from_bytes(encode_frame(encode_request(msg)))
        decoded = decode_request(frame, n_classes=4, dim=16)

        assert decoded.kind == "ic_request"
        assert decoded.headers["descriptor"] == msg.headers["descriptor"]
        assert np.array_equal(decoded.headers["sketch"], sketch)
        assert decoded.headers["has_input"] is True
        assert decoded.headers["force_forward"] is True
        capture = decoded.payload.frame
        assert (capture.object_class, capture.viewpoint,
                capture.capture_id) == (2, -0.25, 7)
        # The cloud leg relays the input in the simulated forward's
        # envelope: the frame's bytes plus 64.
        assert (decoded.payload.input_bytes
                == 64 + msg.payload.input_bytes)

    def test_a_descriptor_without_input_asks_for_nothing_more(self):
        msg = recognition_request(descriptor=VectorDescriptor(
            kind="recognition", vector=np.ones(16, dtype=np.float32)))
        frame = encode_request(msg)
        assert frame["has_input"] is False and frame["input_bytes"] == 0
        decoded = decode_request(frame, n_classes=4, dim=16)
        assert decoded.headers == {
            "has_input": False, "descriptor": msg.headers["descriptor"]}

    def test_a_hand_written_frame_carries_its_input_and_relays_its_size(
            self):
        # bench/real_driver.py's frames: no descriptor, no has_input,
        # input_bytes 0 — which the cloud leg must relay as 0.
        decoded = decode_request(
            {"op": "recognize", "user": "bench", "seq": 0, "capture_id": 1,
             "object_class": 3, "viewpoint": 0.1, "input_bytes": 0},
            n_classes=4, dim=16)
        assert decoded.headers == {"has_input": True}
        assert decoded.payload.input_bytes == 0

    @pytest.mark.parametrize("kind, payload, headers, op", [
        ("ic_result", RecognitionResult(label=3, confidence=0.97),
         {"outcome": "hit", "served_by": "edge0"}, "result"),
        ("shed", None, {"outcome": "shed", "served_by": "edge0",
                        "retry_after_s": 0.02}, "result"),
        ("need_input", None, {"outcome": "miss", "served_by": "edge0"},
         "need_input"),
        ("error", "cloud unreachable: refused",
         {"outcome": "error", "served_by": "edge0"}, "error"),
    ], ids=["result", "shed", "need_input", "error"])
    def test_every_reply_kind_round_trips(self, kind, payload, headers,
                                          op):
        frame = encode_reply(kind, payload, dict(headers))
        assert frame["op"] == op
        reply = decode_reply(read_from_bytes(encode_frame(frame)))
        assert (reply.kind, reply.headers) == (kind, headers)
        if kind == "ic_result":
            assert reply.payload.label == 3
        else:
            assert reply.payload == payload


def every_op_frames() -> dict[str, dict]:
    """One frame of each op in the vocabulary, built as the backend
    builds them (non-ASCII text and float32-derived lists included)."""
    vector = np.linspace(-1.0, 1.0, 16, dtype=np.float32) / 3
    request = encode_request(recognition_request(
        descriptor=VectorDescriptor(kind="recognition", vector=vector),
        has_input=True, force_forward=True,
        sketch=np.linspace(0.5, -0.5, SKETCH_DIM) / 7))
    counters = {"hit": 3, "miss": 1, "edge": "edge-\u00e9\u2603",
                "cpu_s": 0.1 + 0.2}
    return {
        "recognize": request,
        "result": encode_reply(
            "ic_result", RecognitionResult(label=3, confidence=0.97),
            {"outcome": "hit", "served_by": "edge0"}),
        "shed": encode_reply("shed", None, {
            "outcome": "shed", "served_by": "edge0",
            "retry_after_s": 1 / 3}),
        "need_input": encode_reply("need_input", None, {
            "outcome": "miss", "served_by": "edge0"}),
        "error": encode_reply("error", "cloud unreachable: \u00e9", {
            "outcome": "error", "served_by": "edge0"}),
        "bad_frame": bad_frame_reply("recognize", KeyError("capture_id")),
        "resolve": {"op": "resolve", "object_class": 2, "capture_id": 7,
                    "input_bytes": 1 << 20},
        "resolved": {"op": "resolved", "label": 3},
        "stats": {"op": "stats"},
        "counters": {"op": "counters", **counters},
        "shutdown": {"op": "shutdown"},
        "bye": {"op": "bye", **counters},
    }


@pytest.mark.parametrize("op", sorted(every_op_frames()))
def test_encode_frame_bytes_are_json_dumps_bytes(op):
    """The shared encoder writes what ``json.dumps`` with the compact
    separators writes, byte for byte, for every frame op."""
    frame = every_op_frames()[op]
    body = json.dumps(frame, separators=(",", ":")).encode("utf-8")
    assert encode_frame(frame) == struct.pack(">I", len(body)) + body


#: Values a well-formed 16-d descriptor or 32-d sketch never has.
def bad_vectors(dim):
    finite = st.floats(-1.0, 1.0)
    return st.one_of(
        st.lists(finite, max_size=2 * dim).filter(lambda v: len(v) != dim),
        st.tuples(st.lists(finite, min_size=dim, max_size=dim),
                  st.integers(0, dim - 1),
                  st.sampled_from([math.nan, math.inf, -math.inf, 1e300]))
        .map(lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:]),
        st.lists(st.lists(finite, min_size=dim, max_size=dim),
                 min_size=1, max_size=2),
        st.lists(st.text(max_size=3), min_size=dim, max_size=dim),
        st.text(max_size=8), st.booleans(), st.integers(),
        st.dictionaries(st.text(max_size=2), finite, max_size=2))


NOT_BOOL = st.one_of(st.integers(), st.floats(allow_nan=False),
                     st.text(max_size=3), st.none(),
                     st.lists(st.booleans(), max_size=2))

BAD_FIELDS = st.one_of(
    st.tuples(st.just("descriptor"), bad_vectors(16)),
    st.tuples(st.just("sketch"), bad_vectors(SKETCH_DIM)),
    st.tuples(st.just("has_input"), NOT_BOOL),
    st.tuples(st.just("force_forward"), NOT_BOOL),
    st.tuples(st.just("object_class"),
              st.one_of(st.integers(max_value=-1), st.integers(min_value=4),
                        st.floats(), st.booleans(),
                        st.text(max_size=3), st.none())),
    st.tuples(st.just("capture_id"),
              st.one_of(st.integers(max_value=-1), st.floats(),
                        st.booleans(), st.text(max_size=3), st.none())),
    st.tuples(st.just("viewpoint"),
              st.one_of(st.sampled_from([math.nan, math.inf, -math.inf,
                                         None]),
                        st.booleans(), st.text(max_size=4))),
    st.tuples(st.just("input_bytes"),
              st.one_of(st.integers(max_value=-1),
                        st.integers(min_value=MAX_FRAME_BYTES + 1),
                        st.floats(), st.booleans(),
                        st.sampled_from([math.inf, "many", None]))),
)


class TestRecognizeFrameFuzz:
    GOOD = {"op": "recognize", "user": "m0", "seq": 0, "capture_id": 1,
            "object_class": 2, "viewpoint": 0.0, "input_bytes": 0}

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad=st.lists(BAD_FIELDS, min_size=1, max_size=4))
    def test_each_bad_field_costs_an_error_reply_only(self, edge_payload,
                                                      bad):
        # Each frame with one bad field is answered with ``error`` on the
        # same connection, serves nothing, and leaves nothing in flight;
        # the good frame after them is served.
        async def _run():
            service = EdgeService(edge_payload())
            frames = [{**self.GOOD, name: value} for name, value in bad]
            replies = await exchange(service, [*frames, self.GOOD])
            return replies, service

        replies, service = asyncio.run(_run())
        *errors, good = replies
        assert all(reply["op"] == "error" for reply in errors), errors
        assert good["outcome"] == OUTCOME_MISS and good["label"] == 2
        assert service.counters()["served"] == 1
        assert service.active == 0


def echo(n: int) -> dict:
    return {"op": "echo", "n": n}


class TestConnectionLoop:
    """The server's frame loop: frames cut from any chunks, answered in
    order, inline when the handler need not wait."""

    FRAMES = [echo(0), {"op": "stats"}, echo(1), {"op": "frobnicate"},
              echo(2)]

    @staticmethod
    def expected(frames):
        return [{"op": "echoed", "frame": frame} if frame["op"] == "echo"
                else {"op": "counters"} if frame["op"] == "stats"
                else {"op": "error", "error": f"unknown op {frame['op']!r}"}
                for frame in frames]

    def test_frames_in_one_write_get_their_replies_in_order(self):
        async def _run():
            server = Echo()
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            try:
                writer.write(b"".join(map(encode_frame, self.FRAMES)))
                return [await read_frame(reader) for _ in self.FRAMES]
            finally:
                writer.close()
                await server.stop()

        assert asyncio.run(_run()) == self.expected(self.FRAMES)

    def test_the_same_bytes_one_byte_per_read_get_the_same_replies(self):
        # Every frame here is answered inline: no event loop is needed.
        connection, transport = connect(Echo())
        for byte in b"".join(map(encode_frame, self.FRAMES)):
            connection.data_received(bytes([byte]))
        assert transport.replies() == self.expected(self.FRAMES)
        assert transport.reading and not transport.closed

    def test_a_waiting_reply_leaves_before_a_pipelined_inline_one(self):
        # ``wait`` becomes a task; the ``echo`` behind it in the same
        # write is not answered until the waited reply is written.
        async def _run():
            server = Echo()
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            try:
                writer.write(encode_frame({"op": "wait", "n": 7})
                             + encode_frame(echo(8)))
                early = asyncio.ensure_future(read_frame(reader))
                await asyncio.sleep(0.05)
                assert not early.done()
                server.release.set()
                return [await early, await read_frame(reader)]
            finally:
                writer.close()
                await server.stop()

        assert asyncio.run(_run()) == [
            {"op": "waited", "n": 7}, {"op": "echoed", "frame": echo(8)}]

    @pytest.mark.parametrize("bad", [
        struct.pack(">I", MAX_FRAME_BYTES + 1),
        struct.pack(">I", 9) + b"{not json",
    ], ids=["oversized-prefix", "undecodable-body"])
    def test_a_bad_frame_closes_only_its_connection(self, bad):
        async def _run():
            server = Echo()
            await server.start()
            bad_peer = await asyncio.open_connection("127.0.0.1", server.port)
            good_peer = await asyncio.open_connection("127.0.0.1",
                                                      server.port)
            try:
                bad_peer[1].write(encode_frame(echo(0)) + bad)
                answered = await read_frame(bad_peer[0])
                closed = await read_frame(bad_peer[0])
                served = await call(*good_peer, echo(1))
                return answered, closed, served
            finally:
                bad_peer[1].close()
                good_peer[1].close()
                await server.stop()

        answered, closed, served = asyncio.run(_run())
        assert answered == {"op": "echoed", "frame": echo(0)}
        assert closed is None  # a clean EOF: the server hung up
        assert served == {"op": "echoed", "frame": echo(1)}

    def test_a_peer_gone_mid_miss_leaves_nothing_in_flight(
            self, edge_payload):
        # The cloud takes 30 s; the peer hangs up while its miss waits.
        # The EOF ends the connection and cancels the request, so
        # drain() finds the edge idle at once.
        import time

        async def _run():
            cloud = CloudService({"backhaul_mbps": 1000.0,
                                  "backhaul_delay_ms": 0.0,
                                  "inference_s": 30.0})
            await cloud.start()
            edge = EdgeService(edge_payload(cloud=("127.0.0.1", cloud.port)))
            await edge.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", edge.port)
                writer.write(encode_frame({"op": "recognize",
                                           "capture_id": 1,
                                           "object_class": 2}))
                while edge.active == 0:
                    await asyncio.sleep(0.005)
                writer.close()
                started = time.monotonic()
                await edge.drain(timeout_s=10.0)
                return edge.active, time.monotonic() - started
            finally:
                await edge.stop()
                await cloud.stop()

        active, drained_s = asyncio.run(_run())
        assert active == 0
        assert drained_s < 1.0

    def test_reading_stops_while_a_reply_is_owed_or_writing_is_paused(self):
        # Owing a reply, the connection reads on (a hang-up is seen)
        # until READ_LIMIT bytes wait; paused writing stops it at once.
        pipelined = encode_frame({"op": "echo", "pad": "x" * READ_LIMIT})

        async def _run():
            server = Echo()
            connection, transport = connect(server)
            seen = []

            def look():
                seen.append((transport.reading, len(transport.replies())))

            connection.data_received(encode_frame({"op": "wait", "n": 1}))
            look()
            connection.data_received(pipelined)
            look()
            server.release.set()
            await asyncio.sleep(0)  # the task writes the reply it owed
            look()
            connection.pause_writing()
            connection.data_received(encode_frame(echo(3)))
            look()
            connection.resume_writing()
            look()
            return seen, transport.replies()

        seen, replies = asyncio.run(_run())
        assert seen == [(True, 0), (False, 0), (True, 2), (False, 2),
                        (True, 3)]
        assert [reply["op"] for reply in replies] == [
            "waited", "echoed", "echoed"]


def settle():
    """A few loop turns: a released handler's task writes its reply."""
    async def _settle():
        for _ in range(5):
            await asyncio.sleep(0)
    return _settle()


class TestCallIds:
    """A request frame may carry an ``id``; its reply echoes it, and a
    waiting handler with one runs beside the others."""

    @pytest.mark.parametrize("bad", ["7", True, -1, 1.5, [1], {"n": 1}])
    def test_a_bad_id_costs_an_error_reply_only(self, bad):
        connection, transport = connect(Echo())
        connection.data_received(encode_frame({**echo(0), "id": bad})
                                 + encode_frame({**echo(1), "id": 4}))
        error, served = transport.replies()
        assert error["op"] == "error" and "id" not in error
        assert error["error"].startswith(f"bad id {bad!r}")
        assert served == {"op": "echoed", "frame": {**echo(1), "id": 4},
                          "id": 4}
        assert transport.reading and not transport.closed

    def test_a_duplicate_in_flight_id_costs_an_error_reply(self):
        async def _run():
            server = Echo()
            connection, transport = connect(server)
            connection.data_received(
                encode_frame({"op": "wait", "n": 1, "id": 5})
                + encode_frame({"op": "wait", "n": 2, "id": 5}))
            before = transport.replies()
            server.release.set()
            await settle()
            return before, transport.replies()

        before, after = asyncio.run(_run())
        assert [reply["op"] for reply in before] == ["error"]
        assert before[0]["error"].startswith("duplicate id 5")
        assert "id" not in before[0]
        assert after == [*before, {"op": "waited", "n": 1, "id": 5}]

    def test_waiting_frames_with_ids_do_not_hold_the_ones_behind(self):
        # Two waits with ids run side by side and the echo behind them is
        # answered at once; a wait without an id still holds what follows.
        async def _run():
            server = Echo()
            connection, transport = connect(server)
            connection.data_received(b"".join(map(encode_frame, [
                {"op": "wait", "n": 1, "id": 1},
                {"op": "wait", "n": 2, "id": 2}, {**echo(3), "id": 3},
                {"op": "wait", "n": 4}, echo(5)])))
            early = transport.replies()
            server.release.set()
            await settle()
            return early, transport.replies()

        early, replies = asyncio.run(_run())
        assert early == [{"op": "echoed", "frame": {**echo(3), "id": 3},
                          "id": 3}]
        assert replies[1:] == [
            {"op": "waited", "n": 1, "id": 1},
            {"op": "waited", "n": 2, "id": 2}, {"op": "waited", "n": 4},
            {"op": "echoed", "frame": echo(5)}]

    def test_a_full_window_holds_the_frames_behind_it(self, monkeypatch):
        monkeypatch.setattr(server_module, "WINDOW", 2)

        async def _run():
            server = Echo()
            connection, transport = connect(server)
            connection.data_received(b"".join(
                encode_frame({"op": "wait", "n": n, "id": n})
                for n in range(3)) + encode_frame({**echo(9), "id": 9}))
            early = transport.replies()
            server.release.set()
            await settle()
            return early, transport.replies()

        # Two waits fill the window: neither the third wait nor the echo
        # is answered until a slot frees.
        early, replies = asyncio.run(_run())
        assert early == []
        assert [reply["id"] for reply in replies] == [0, 1, 9, 2]

    def test_a_reply_no_call_waits_for_is_dropped(self):
        # A calling connection drops a reply for an id it never sent, one
        # whose call was cancelled and one without an id, stays open and
        # resolves the call the right reply echoes.
        async def _run():
            connection, transport = Connection(), FakeTransport()
            connection.connection_made(transport)
            gone = asyncio.ensure_future(connection.call({"op": "echo"}))
            kept = asyncio.ensure_future(connection.call({"op": "echo"}))
            await asyncio.sleep(0)
            gone.cancel()
            await asyncio.sleep(0)
            connection.data_received(b"".join(map(encode_frame, [
                {"op": "echoed", "id": 99}, {"op": "echoed", "id": 1},
                {"op": "echoed"}, {"op": "echoed", "id": 2, "n": 2}])))
            return (transport.replies(), await kept, gone.cancelled(),
                    connection._pending, transport.closed)

        sent, reply, cancelled, pending, closed = asyncio.run(_run())
        assert sent == [{"op": "echo", "id": 1}, {"op": "echo", "id": 2}]
        assert reply == {"op": "echoed", "n": 2}
        assert cancelled and pending == {} and not closed

    def test_a_lost_connection_fails_the_calls_waiting_on_it(self):
        async def _run():
            connection, transport = Connection(), FakeTransport()
            connection.connection_made(transport)
            waiting = asyncio.ensure_future(connection.call({"op": "echo"}))
            await asyncio.sleep(0)
            connection.connection_lost(None)
            with pytest.raises(ProtocolError, match="connection lost"):
                await waiting
            with pytest.raises(ProtocolError, match="closed"):
                await connection.call({"op": "echo"})

        asyncio.run(_run())

    def test_a_calling_connection_reads_on_while_writing_is_paused(self):
        # Its peer's replies are what lets the peer read again.
        connection, transport = Connection(), FakeTransport()
        connection.connection_made(transport)
        connection.pause_writing()
        connection.data_received(encode_frame({"op": "echoed", "id": 1}))
        connection.resume_writing()
        assert transport.reading and not transport.closed
