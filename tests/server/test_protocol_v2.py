"""Protocol v2: framing choice, framing equivalence, pipelining, routing.

The acceptance bar for the binary framing is *byte-identical*
predictions: the same event stream, pushed over length-prefixed JSON,
over binary frames, and over the pipelined binary path, must produce
exactly the predictions the in-process oracle produces.
"""

from __future__ import annotations

import socket
import time

import pytest

from repro.core.oracle import Pythia
from repro.experiments.harness import mpi_record_run
from repro.server import OracleServer, PythiaClient, TraceStore, admin_request
from repro.server.client import OracleServiceError
from repro.server.daemon import OracleServer as _Server
from repro.server.protocol import (
    BIN_REQ,
    OP_OBSERVE,
    OP_OBSERVE_PREDICT,
    OP_PREDICT,
    OP_REPLY_ERROR,
    decode_bin_error,
    encode_bin_frame,
    encode_json_frame,
    read_frame_any,
    read_frame,
    write_frame,
)
from repro.server.supervisor import OracleSupervisor


@pytest.fixture(scope="session")
def npb_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("npb-v2") / "bt.pythia")
    mpi_record_run("bt", "small", path, ranks=2, seed=0, timestamps=True)
    return path


def event_stream(trace_path: str, thread: int = 0, limit: int = 300):
    trace = Pythia(trace_path, mode="predict").reference
    registry = trace.registry
    return [
        (registry.event(t).name, registry.event(t).payload)
        for t in trace.threads[thread].grammar.unfold()
    ][:limit]


@pytest.fixture
def server(tmp_path):
    sock = str(tmp_path / "oracle.sock")
    with OracleServer(sock, store=TraceStore(capacity=4)) as srv:
        yield srv


def predictions(client_or_oracle, events, *, with_time=True):
    """The full (matched, prediction) stream one consumer produces."""
    out = []
    for name, payload in events:
        out.append(
            client_or_oracle.event_and_predict(name, payload, with_time=with_time)
        )
    return out


class TestHelloNegotiation:
    def test_auto_client_negotiates_binary(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            client.event("warmup")
            assert client._proto_state == "binary"

    def test_json_client_never_negotiates(self, npb_trace, server):
        with PythiaClient(
            npb_trace, socket=server.socket_path, protocol="json"
        ) as client:
            client.event("warmup")
            assert client._proto_state == "json"

    @staticmethod
    def _as_old_daemon(monkeypatch):
        """Make the daemon answer open_session as one without the binary
        framing does: with no ``snum`` in the reply."""
        handler = _Server._HANDLERS["open_session"]

        def open_session_without_snum(self, request, conn_id):
            reply = handler(self, request, conn_id)
            reply.pop("snum")
            return reply

        monkeypatch.setitem(
            _Server._HANDLERS, "open_session", open_session_without_snum
        )

    def test_auto_client_pins_json_against_old_daemon(
        self, npb_trace, server, monkeypatch
    ):
        self._as_old_daemon(monkeypatch)
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            matched = client.event("warmup")
            assert client._proto_state == "json"
            assert matched is False  # served fine, over JSON

    def test_binary_demand_fails_loud_against_old_daemon(
        self, npb_trace, server, monkeypatch
    ):
        self._as_old_daemon(monkeypatch)
        client = PythiaClient(
            npb_trace, socket=server.socket_path, protocol="binary"
        )
        with pytest.raises(OracleServiceError) as err:
            client.event("warmup")
        assert err.value.code == "protocol"
        # the client hung up, so the session it opened did not outlive it
        deadline = time.monotonic() + 5.0
        while admin_request(server.socket_path, {"op": "stats"})["sessions_active"]:
            assert time.monotonic() < deadline, "refused session never reaped"
            time.sleep(0.01)
        client.finish()

    def test_invalid_protocol_argument_rejected(self, npb_trace):
        with pytest.raises(ValueError):
            PythiaClient(npb_trace, socket="/tmp/nope.sock", protocol="carrier")


class TestFramingEquivalence:
    """Acceptance: prediction streams byte-identical across framings."""

    def test_json_binary_and_pipelined_match_in_process(
        self, npb_trace, server
    ):
        events = event_stream(npb_trace)
        local = predictions(Pythia(npb_trace, mode="predict"), events)

        json_client = PythiaClient(
            npb_trace, socket=server.socket_path, protocol="json"
        )
        over_json = predictions(json_client, events)

        bin_client = PythiaClient(
            npb_trace, socket=server.socket_path, protocol="binary"
        )
        over_binary = predictions(bin_client, events)

        pipe_client = PythiaClient(npb_trace, socket=server.socket_path)
        with pipe_client.pipeline(window=32) as pipe:
            for name, payload in events:
                pipe.submit(name, payload, with_time=True)
            pipelined = pipe.drain()

        for i, (lm, lp) in enumerate(local):
            for om, op_ in (over_json[i], over_binary[i], pipelined[i]):
                assert om == lm, i
                if lp is None:
                    assert op_ is None, i
                    continue
                # field-by-field, floats bit-for-bit
                assert op_.terminal == lp.terminal, i
                assert op_.probability == lp.probability, i
                assert op_.eta == lp.eta, i
                assert op_.distribution == lp.distribution, i
        for client in (json_client, bin_client, pipe_client):
            client.finish()

    def test_stats_agree_across_framings(self, npb_trace, server):
        events = event_stream(npb_trace, limit=120)
        local = Pythia(npb_trace, mode="predict")
        predictions(local, events)
        remote = PythiaClient(npb_trace, socket=server.socket_path)
        predictions(remote, events)
        assert remote.stats() == local.stats()
        remote.finish()

    def test_unknown_event_equivalent(self, npb_trace, server):
        events = event_stream(npb_trace, limit=40)
        local = Pythia(npb_trace, mode="predict")
        remote = PythiaClient(npb_trace, socket=server.socket_path)
        for i, (name, payload) in enumerate(events):
            if i % 7 == 3:  # splice in events absent from the registry
                lr = local.event_and_predict(f"not_recorded_{i}", None)
                rr = remote.event_and_predict(f"not_recorded_{i}", None)
                assert lr == rr
            lr = local.event_and_predict(name, payload)
            rr = remote.event_and_predict(name, payload)
            assert lr[0] == rr[0]
        assert remote.stats() == local.stats()
        remote.finish()


class TestBinaryRefusals:
    """A bad binary request gets an ``OP_REPLY_ERROR`` frame with its
    code, counts as a failed request, and leaves the connection usable."""

    # (opcode, body from the session number, expected code)
    CASES = {
        "opcode_zero": (0x00, lambda snum: BIN_REQ.pack(snum, 0, 1), "unknown_op"),
        "unknown_opcode": (0x7F, lambda snum: BIN_REQ.pack(snum, 0, 1), "unknown_op"),
        "short_body": (OP_OBSERVE, lambda snum: b"\x00\x01", "bad_request"),
        "unknown_session": (
            OP_OBSERVE_PREDICT, lambda snum: BIN_REQ.pack(snum + 1000, 0, 1),
            "no_such_session",
        ),
        "terminal_outside_registry": (
            OP_OBSERVE, lambda snum: BIN_REQ.pack(snum, 0xFFFFFFFF, 1),
            "bad_request",
        ),
        "predict_distance_zero": (
            OP_PREDICT, lambda snum: BIN_REQ.pack(snum, 0, 0), "bad_request",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refusal_is_an_error_frame(self, npb_trace, server, case):
        opcode, body, code = self.CASES[case]
        conn = socket.socket(socket.AF_UNIX)
        conn.connect(server.socket_path)
        conn.settimeout(5.0)
        try:
            write_frame(conn, {"op": "open_session", "trace": npb_trace})
            snum = read_frame(conn)["snum"]
            failed = server.counters["requests_failed"]
            conn.sendall(encode_bin_frame(opcode, 0, body(snum)))
            kind, reply_op, _flags, reply_body = read_frame_any(conn)
            assert (kind, reply_op) == ("bin", OP_REPLY_ERROR)
            assert decode_bin_error(reply_body)[0] == code
            assert server.counters["requests_failed"] == failed + 1
            write_frame(conn, {"op": "ping"})
            assert read_frame(conn)["pong"] is True
        finally:
            conn.close()


class TestPipeline:
    def test_results_in_submit_order(self, npb_trace, server):
        events = event_stream(npb_trace, limit=64)
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            with client.pipeline(window=8) as pipe:
                indexes = [pipe.submit(n, p) for n, p in events]
                results = pipe.drain()
        assert indexes == list(range(len(events)))
        assert len(results) == len(events)

    def test_daemon_side_error_is_positional_not_fatal(
        self, npb_trace, server
    ):
        events = event_stream(npb_trace, limit=10)
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            with client.pipeline(window=4) as pipe:
                for i, (n, p) in enumerate(events):
                    # distance=0 is a bad_request the daemon refuses
                    # per-op; the stream keeps going
                    pipe.submit(n, p, distance=0 if i == 3 else 1)
                results = pipe.drain()
        assert isinstance(results[3], OracleServiceError)
        assert results[3].code == "bad_request"
        for i, r in enumerate(results):
            if i != 3:
                assert isinstance(r, tuple), (i, r)

    def test_window_flushes_do_not_reorder(self, npb_trace, server):
        events = event_stream(npb_trace, limit=100)
        local = predictions(Pythia(npb_trace, mode="predict"), events,
                            with_time=False)
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            with client.pipeline(window=3) as pipe:  # many tiny windows
                for n, p in events:
                    pipe.submit(n, p)
                results = pipe.drain()
        assert [m for m, _ in results] == [m for m, _ in local]

    def test_degraded_client_serves_pipeline_inline(self, npb_trace, tmp_path):
        client = PythiaClient(
            npb_trace, socket=str(tmp_path / "never-listening.sock"),
        )
        with client.pipeline(window=8) as pipe:
            for n, p in event_stream(npb_trace, limit=20):
                pipe.submit(n, p)
            results = pipe.drain()
        assert client.degraded
        assert len(results) == 20
        local = predictions(Pythia(npb_trace, mode="predict"),
                            event_stream(npb_trace, limit=20),
                            with_time=False)
        assert [m for m, _ in results] == [m for m, _ in local]
        client.finish()


class TestSupervisorPeekBothFramings:
    """The MSG_PEEK router must classify both framings without
    consuming bytes (unit-level: no workers spawned)."""

    @pytest.fixture
    def router(self):
        return OracleSupervisor.__new__(OracleSupervisor)

    @pytest.fixture
    def pair(self):
        a, b = socket.socketpair()
        yield a, b
        a.close()
        b.close()

    def test_json_frame_peeked(self, router, pair):
        a, b = pair
        request = {"op": "stats"}
        a.sendall(encode_json_frame(request))
        assert router._peek_first_frame(b) == request
        # nothing consumed: the worker re-reads from the pristine start
        b.settimeout(1.0)
        assert read_frame(b) == request

    def test_binary_opcode_zero_routes_blind(self, router, pair):
        # opcode 0x00 is no JSON wrapper: its body is never parsed for ctx
        a, b = pair
        body = b'{"op":"observe","ctx":{"sid":"c1","rid":9}}'
        a.sendall(encode_bin_frame(0x00, 0, body))
        assert router._peek_first_frame(b) is None

    def test_bare_binary_frame_routes_blind(self, router, pair):
        a, b = pair
        a.sendall(encode_bin_frame(OP_OBSERVE_PREDICT, 0, BIN_REQ.pack(1, 2, 1)))
        assert router._peek_first_frame(b) is None
        # the frame itself is untouched for the worker
        b.settimeout(1.0)
        assert b.recv(16, socket.MSG_PEEK)[0] == 0xA7


class TestMultiWorkerBinary:
    """End-to-end: a binary-negotiating client through the supervisor."""

    def test_pipelined_binary_through_supervisor(self, npb_trace, tmp_path):
        sockp = str(tmp_path / "sup.sock")
        sup = OracleSupervisor(sockp, workers=2)
        sup.start()
        try:
            events = event_stream(npb_trace, limit=150)
            local = predictions(Pythia(npb_trace, mode="predict"), events)
            client = PythiaClient(npb_trace, socket=sockp)
            with client.pipeline(window=16) as pipe:
                for n, p in events:
                    pipe.submit(n, p, with_time=True)
                results = pipe.drain()
            assert client._proto_state == "binary"
            for i, (lm, lp) in enumerate(local):
                rm, rp = results[i]
                assert rm == lm, i
                if lp is None:
                    assert rp is None, i
                else:
                    assert (rp.terminal, rp.probability, rp.eta) == (
                        lp.terminal, lp.probability, lp.eta
                    ), i
            client.finish()
        finally:
            sup.stop()
