"""Frame-level tests for the real backend's wire protocol."""

import asyncio
import struct

import pytest

from repro.backend.cloud_server import CloudService
from repro.backend.edge_server import EdgeService
from repro.backend.loadgen import RealClient, WorkloadItem
from repro.backend.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    call,
    decode_body,
    encode_frame,
    read_frame,
)
from repro.core.metrics import MetricsRecorder, OUTCOME_ERROR, OUTCOME_MISS


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

    def test_client_records_an_error_reply_as_an_error_outcome(
            self, edge_payload):
        # object_class "x" reaches the edge as an ill-typed field; the
        # client must record the refusal, not die on KeyError('label').
        recorder = MetricsRecorder()
        item = WorkloadItem(client="m0", edge="edge0", seq=0, capture_id=1,
                            object_class="x", viewpoint=0.0, input_bytes=0)

        async def _run():
            service = EdgeService(edge_payload())
            await service.start()
            client = RealClient("m0", [("edge0", ("127.0.0.1",
                                                   service.port))],
                                [item], recorder, timeout_s=5.0)
            try:
                await client.run()
            finally:
                await service.stop()

        asyncio.run(_run())
        (record,) = recorder.records
        assert record.outcome == OUTCOME_ERROR
        assert "bad recognize frame" in record.detail["error"]
