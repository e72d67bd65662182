"""Round-trip and malformed-input tests for the wire protocol."""

from __future__ import annotations

import socket
import struct
import time

import pytest

from repro.core.predict import Prediction
from repro.server.protocol import (
    ConnectionClosed,
    FrameTooLarge,
    ProtocolError,
    decode_payload,
    decode_prediction,
    encode_payload,
    encode_prediction,
    read_frame,
    write_frame,
)


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFrames:
    def test_round_trip(self, pair):
        a, b = pair
        write_frame(a, {"op": "ping", "n": 42, "text": "héllo"})
        assert read_frame(b) == {"op": "ping", "n": 42, "text": "héllo"}

    def test_many_frames_in_order(self, pair):
        a, b = pair
        for i in range(10):
            write_frame(a, {"i": i})
        assert [read_frame(b)["i"] for _ in range(10)] == list(range(10))

    def test_clean_eof_returns_none(self, pair):
        a, b = pair
        a.close()
        assert read_frame(b) is None

    def test_eof_mid_header_raises(self, pair):
        a, b = pair
        a.sendall(b"\x00\x00")  # half a header
        a.close()
        with pytest.raises(ConnectionClosed):
            read_frame(b)

    def test_eof_mid_body_raises(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", 100) + b'{"op":')  # truncated body
        a.close()
        with pytest.raises(ConnectionClosed):
            read_frame(b)

    def test_oversized_frame_rejected_on_read(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", 1 << 30))
        with pytest.raises(FrameTooLarge):
            read_frame(b, max_frame=1024)

    def test_oversized_frame_rejected_on_write(self, pair):
        a, _b = pair
        with pytest.raises(FrameTooLarge):
            write_frame(a, {"blob": "x" * 2048}, max_frame=1024)

    def test_non_json_body_rejected(self, pair):
        a, b = pair
        body = b"not json at all"
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError):
            read_frame(b)

    def test_non_object_body_rejected(self, pair):
        a, b = pair
        body = b"[1,2,3]"
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError):
            read_frame(b)

    def test_empty_object_round_trip(self, pair):
        a, b = pair
        write_frame(a, {})
        assert read_frame(b) == {}


class TestPayloadEncoding:
    @pytest.mark.parametrize(
        "payload", [None, 0, 7, -3, "dest", 1.5, True, (1, 2), ("a", 3), ()]
    )
    def test_round_trip(self, payload):
        assert decode_payload(encode_payload(payload)) == payload

    def test_tuple_convention_matches_registry(self):
        # the wire uses the exact on-disk convention, so interning agrees
        from repro.core.events import Event, EventRegistry

        reg = EventRegistry()
        tid = reg.intern(Event("MPI_Reduce", (0, "SUM")))
        restored = EventRegistry.from_obj(reg.to_obj())
        wire = decode_payload(encode_payload((0, "SUM")))
        assert restored.lookup(Event("MPI_Reduce", wire)) == tid


class TestPredictionEncoding:
    def test_none_round_trip(self):
        assert encode_prediction(None) is None
        assert decode_prediction(None) is None

    def test_full_round_trip(self):
        pred = Prediction(
            terminal=3,
            probability=0.625,
            eta=0.0123456,
            distribution={3: 0.625, 1: 0.25, None: 0.125},
        )
        assert decode_prediction(encode_prediction(pred)) == pred

    def test_end_of_execution_round_trip(self):
        pred = Prediction(terminal=None, probability=1.0, distribution={None: 1.0})
        assert decode_prediction(encode_prediction(pred)) == pred

    def test_floats_survive_json_exactly(self):
        import json

        pred = Prediction(terminal=1, probability=1 / 3, eta=1e-7 + 0.1,
                          distribution={1: 1 / 3, 2: 2 / 3})
        wire = json.loads(json.dumps(encode_prediction(pred)))
        assert decode_prediction(wire) == pred


# ----------------------------------------------------------------------
# protocol v2: binary framing
# ----------------------------------------------------------------------

from repro.server.protocol import (  # noqa: E402
    BIN_MAGIC,
    BIN_REQ,
    F_HAS_PRED,
    FrameParser,
    OP_OBSERVE_PREDICT,
    OP_REPLY_ERROR,
    decode_bin_error,
    decode_bin_prediction,
    encode_bin_error,
    encode_bin_frame,
    encode_bin_prediction,
    encode_json_frame,
    parse_frame,
    read_frame_any,
)


class TestBinaryFrames:
    def test_magic_byte_distinguishes_framings(self, pair):
        a, b = pair
        a.sendall(encode_json_frame({"op": "ping"}))
        a.sendall(encode_bin_frame(OP_OBSERVE_PREDICT, 5, BIN_REQ.pack(1, 2, 3)))
        assert read_frame_any(b) == ("json", {"op": "ping"})
        assert read_frame_any(b) == (
            "bin", OP_OBSERVE_PREDICT, 5, BIN_REQ.pack(1, 2, 3)
        )

    def test_json_first_byte_is_zero_under_16mib(self):
        frame = encode_json_frame({"op": "x"})
        assert frame[0] == 0x00 != BIN_MAGIC

    def test_empty_body_round_trip(self, pair):
        a, b = pair
        a.sendall(encode_bin_frame(OP_REPLY_ERROR))
        assert read_frame_any(b) == ("bin", OP_REPLY_ERROR, 0, b"")

    def test_clean_eof_returns_none(self, pair):
        a, b = pair
        a.close()
        assert read_frame_any(b) is None

    def test_eof_mid_binary_header_raises(self, pair):
        a, b = pair
        a.sendall(bytes([BIN_MAGIC, OP_OBSERVE_PREDICT]))
        a.close()
        with pytest.raises(ConnectionClosed):
            read_frame_any(b)

    def test_oversized_binary_frame_rejected(self, pair):
        a, b = pair
        a.sendall(struct.pack(">BBHI", BIN_MAGIC, OP_OBSERVE_PREDICT, 0, 1 << 30))
        with pytest.raises(FrameTooLarge):
            read_frame_any(b, max_frame=1024)

    def test_oversized_binary_frame_rejected_on_encode(self):
        with pytest.raises(FrameTooLarge):
            encode_bin_frame(OP_OBSERVE_PREDICT, 0, b"x" * 2048, max_frame=1024)

    def test_error_frame_round_trip(self, pair):
        a, b = pair
        a.sendall(encode_bin_error("shutting_down", "drain in progress"))
        kind, opcode, _flags, body = read_frame_any(b)
        assert (kind, opcode) == ("bin", OP_REPLY_ERROR)
        assert decode_bin_error(body) == ("shutting_down", "drain in progress")


class TestBinaryPrediction:
    @pytest.mark.parametrize("pred", [
        None,
        Prediction(terminal=3, probability=0.625, eta=0.0123456,
                   distribution={3: 0.625, 1: 0.25, None: 0.125}),
        Prediction(terminal=None, probability=1.0, distribution={None: 1.0}),
        Prediction(terminal=1, probability=1 / 3, eta=1e-7 + 0.1,
                   distribution={1: 1 / 3, 2: 2 / 3}),
    ])
    def test_round_trip_bit_exact(self, pred):
        flags, body = encode_bin_prediction(pred)
        assert decode_bin_prediction(flags, body) == pred

    def test_none_has_no_pred_flag(self):
        flags, body = encode_bin_prediction(None)
        assert not flags & F_HAS_PRED and body == b""

    def test_offset_skips_srv_prefix(self):
        from repro.server.protocol import SRV_PAIR

        pred = Prediction(terminal=7, probability=0.5, distribution={7: 0.5})
        flags, body = encode_bin_prediction(pred)
        prefixed = SRV_PAIR.pack(12, 34) + body
        assert decode_bin_prediction(flags, prefixed, SRV_PAIR.size) == pred


class TestFrameParser:
    def test_incremental_single_bytes(self):
        parser = FrameParser()
        body = BIN_REQ.pack(9, 8, 7)
        for frame, expected in (
            (encode_json_frame({"op": "ping"}), ("json", {"op": "ping"})),
            (encode_bin_frame(OP_OBSERVE_PREDICT, 1, body),
             ("bin", OP_OBSERVE_PREDICT, 1, body)),
        ):
            for i in range(len(frame)):
                assert parser.next_frame() is None
                # never asks past the frame: a reader cannot over-read
                end, partial = parse_frame(frame[:i])
                assert partial is None and i < end <= len(frame)
                parser.feed(frame[i:i + 1])
            assert parse_frame(frame + frame) == (len(frame), expected)
            assert parser.next_frame() == expected
            assert parser.next_frame() is None
            assert len(parser) == 0

    def test_mixed_framings_in_one_buffer(self):
        parser = FrameParser()
        parser.feed(
            encode_json_frame({"a": 1})
            + encode_bin_frame(OP_OBSERVE_PREDICT, 1, BIN_REQ.pack(9, 8, 7))
            + encode_json_frame({"b": 2})
        )
        assert parser.next_frame() == ("json", {"a": 1})
        assert parser.next_frame() == (
            "bin", OP_OBSERVE_PREDICT, 1, BIN_REQ.pack(9, 8, 7)
        )
        assert parser.next_frame() == ("json", {"b": 2})
        assert parser.next_frame() is None

    def test_poisoned_parser_stays_poisoned(self):
        parser = FrameParser(max_frame=1024)
        parser.feed(struct.pack(">I", 1 << 30))
        with pytest.raises(FrameTooLarge):
            parser.next_frame()
        # later feeds cannot resurrect it: the stream has no resync point
        parser.feed(encode_json_frame({"op": "ping"}))
        with pytest.raises(FrameTooLarge):
            parser.next_frame()

    def test_bad_json_body_poisons(self):
        parser = FrameParser()
        parser.feed(struct.pack(">I", 3) + b"{{{")
        with pytest.raises(ProtocolError):
            parser.next_frame()
        with pytest.raises(ProtocolError):
            parser.next_frame()


# ----------------------------------------------------------------------
# payload convention (bugfix: encode/decode must be exact inverses)
# ----------------------------------------------------------------------


class TestPayloadConvention:
    @pytest.mark.parametrize("payload", [
        (),                               # empty tuple
        ("__tuple__",),                   # the sentinel itself as data
        ("__tuple__", "__tuple__"),
        (1, (2, (3,))),                   # nested tuples
        ((), ()),                         # nested empties
        (0, "SUM"),
        ("a", (1.5, None), True),
    ])
    def test_tuples_round_trip_exactly(self, payload):
        assert decode_payload(encode_payload(payload)) == payload

    def test_bare_list_rejected(self):
        with pytest.raises(ValueError, match="ambiguous payload"):
            decode_payload([1, 2, 3])

    def test_bare_empty_list_rejected(self):
        with pytest.raises(ValueError, match="ambiguous payload"):
            decode_payload([])

    def test_untagged_nested_list_rejected(self):
        with pytest.raises(ValueError, match="ambiguous payload"):
            decode_payload(["__tuple__", [1, 2]])

    def test_scalars_pass_through(self):
        for value in (None, 0, 7, -3, "dest", 1.5, True):
            assert decode_payload(value) == value
            assert encode_payload(value) == value


# ----------------------------------------------------------------------
# daemon behaviour on unrecoverable framing (bugfix: FrameTooLarge
# mid-stream must answer once and close, never keep reading garbage)
# ----------------------------------------------------------------------


class TestDaemonFrameTooLarge:
    @pytest.fixture
    def live(self, tmp_path):
        from repro.server import OracleServer, TraceStore

        sockp = str(tmp_path / "oracle.sock")
        with OracleServer(sockp, store=TraceStore(capacity=2)) as srv:
            conn = socket.socket(socket.AF_UNIX)
            conn.connect(sockp)
            conn.settimeout(5.0)
            yield srv, conn
            conn.close()

    def test_oversized_announcement_gets_error_then_close(self, live):
        srv, conn = live
        # a healthy request first: the violation is mid-stream
        write_frame(conn, {"op": "ping"})
        assert read_frame(conn)["ok"] is True
        conn.sendall(struct.pack(">I", 1 << 30))  # 1 GiB announcement
        reply = read_frame(conn)
        assert reply["ok"] is False and reply["code"] == "protocol"
        # ... and the daemon closes: EOF, not an endless garbage loop
        assert conn.recv(1) == b""
        assert srv.counters["connections_dropped"] == 1

    def test_oversized_binary_announcement_also_closes(self, live):
        srv, conn = live
        write_frame(conn, {"op": "ping"})
        assert read_frame(conn)["ok"] is True
        conn.sendall(struct.pack(">BBHI", BIN_MAGIC, OP_OBSERVE_PREDICT, 0,
                                 1 << 30))
        reply = read_frame(conn)
        assert reply["ok"] is False and reply["code"] == "protocol"
        assert conn.recv(1) == b""

    def test_garbage_after_violation_is_never_parsed(self, live):
        srv, conn = live
        # oversized announcement followed immediately by bytes that
        # *look* like a valid frame: the daemon must not execute it
        # one send so the daemon cannot close the socket in between
        conn.sendall(
            struct.pack(">I", 1 << 30)
            + encode_json_frame({"op": "open_session", "trace": "/nonexistent"})
        )
        # the error frame is best-effort here: closing with our second
        # frame still unread may reset the connection before it arrives
        try:
            reply = read_frame(conn)
        except (ConnectionResetError, ProtocolError):
            reply = None
        else:
            if reply is not None:
                assert reply["ok"] is False and reply["code"] == "protocol"
                try:
                    assert conn.recv(1) == b""
                except ConnectionResetError:
                    pass  # closed with our garbage unread: also dead
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and srv.counters["connections_dropped"] == 0:
            time.sleep(0.01)
        assert srv.counters["connections_dropped"] == 1
        assert srv.counters["sessions_opened"] == 0
