"""OracleServer end-to-end: parity with the in-process facade,
concurrent sessions, and hostility to malformed clients."""

from __future__ import annotations

import gc
import os
import socket
import struct
import threading
import time
import weakref

import pytest

from repro.core.mmap_grammar import ensure_artifact
from repro.core.oracle import Pythia
from repro.experiments.harness import mpi_record_run
from repro.obs import metrics as obs_metrics
from repro.server import OracleServer, PythiaClient, TraceStore
from repro.server.protocol import read_frame, write_frame

@pytest.fixture(scope="module")
def npb_trace(tmp_path_factory):
    """A recorded NPB (BT) reference trace, timestamps on."""
    path = str(tmp_path_factory.mktemp("npb") / "bt.pythia")
    mpi_record_run("bt", "small", path, ranks=2, seed=0, timestamps=True)
    return path

@pytest.fixture
def server(tmp_path):
    sock = str(tmp_path / "oracle.sock")
    with OracleServer(sock, store=TraceStore(capacity=4)) as srv:
        yield srv

def npb_event_stream(trace_path: str, thread: int = 0):
    """The (name, payload) sequence rank ``thread`` produced when recorded."""
    trace = Pythia(trace_path, mode="predict").reference
    registry = trace.registry
    return [
        (registry.event(t).name, registry.event(t).payload)
        for t in trace.threads[thread].grammar.unfold()
    ]

class TestParityWithInProcessOracle:
    def test_predictions_byte_identical_on_npb(self, npb_trace, server):
        """Acceptance: remote predict == in-process predict, field by field."""
        events = npb_event_stream(npb_trace)[:300]
        local = Pythia(npb_trace, mode="predict")
        remote = PythiaClient(npb_trace, socket=server.socket_path)
        for i, (name, payload) in enumerate(events):
            assert local.event(name, payload) == remote.event(name, payload)
            for distance in (1, 8):
                lp = local.predict(distance, with_time=True)
                rp = remote.predict(distance, with_time=True)
                if lp is None:
                    assert rp is None
                    continue
                assert rp is not None, (i, distance)
                assert rp.terminal == lp.terminal
                assert rp.probability == lp.probability
                assert rp.eta == lp.eta
                assert rp.distribution == lp.distribution
        assert remote.stats() == local.stats()
        remote.finish()

    def test_duration_and_describe_match(self, npb_trace, server):
        events = npb_event_stream(npb_trace)[:64]
        local = Pythia(npb_trace, mode="predict")
        with PythiaClient(npb_trace, socket=server.socket_path) as remote:
            for name, payload in events:
                local.event(name, payload)
                remote.event(name, payload)
            assert remote.predict_duration(4) == local.predict_duration(4)
            assert remote.describe(remote.predict(1)) == local.describe(local.predict(1))

    def test_unknown_event_makes_remote_oracle_lost(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as remote:
            assert remote.event("never_recorded_event") is False
            assert remote.predict(1) is None
            assert remote.stats()["unknown"] == 1

    def test_unknown_thread_raises_keyerror(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as remote:
            with pytest.raises(KeyError):
                remote.event("x", thread=500)

    def test_missing_trace_raises_file_not_found(self, tmp_path, server):
        with PythiaClient(str(tmp_path / "no.pythia"), socket=server.socket_path) as remote:
            with pytest.raises(FileNotFoundError):
                remote.event("x")

    def test_session_under_a_missing_artifact_dir(
        self, npb_trace, server, tmp_path, monkeypatch
    ):
        """The daemon maps compiled artifacts: a ``PYTHIA_ARTIFACT_DIR``
        that does not exist yet is created, not reported as a missing
        trace."""
        art_dir = tmp_path / "not" / "yet" / "made"
        monkeypatch.setenv("PYTHIA_ARTIFACT_DIR", str(art_dir))
        events = npb_event_stream(npb_trace)[:16]
        local = Pythia(npb_trace, mode="predict")
        with PythiaClient(npb_trace, socket=server.socket_path) as remote:
            for name, payload in events:
                assert remote.event(name, payload) == local.event(name, payload)
            assert remote.predict(1) == local.predict(1)
        assert len(list(art_dir.glob("*.pygx"))) == 1

    def test_unwritable_artifact_dir_is_a_named_error(
        self, npb_trace, server, tmp_path, monkeypatch
    ):
        """An artifact that cannot be written answers
        ``artifact_unwritable``, and the message names the variable that
        moves artifacts elsewhere."""
        from repro.server.client import OracleServiceError

        not_a_dir = tmp_path / "a-file"
        not_a_dir.write_text("")
        monkeypatch.setenv("PYTHIA_ARTIFACT_DIR", str(not_a_dir / "artifacts"))
        with PythiaClient(npb_trace, socket=server.socket_path) as remote:
            with pytest.raises(OracleServiceError) as exc_info:
                remote.event("x")
        assert exc_info.value.code == "artifact_unwritable"
        assert "PYTHIA_ARTIFACT_DIR" in str(exc_info.value)

    def test_observe_batch_equals_loop(self, npb_trace, server):
        events = npb_event_stream(npb_trace)[:100]
        one = PythiaClient(npb_trace, socket=server.socket_path)
        batched = PythiaClient(npb_trace, socket=server.socket_path)
        looped = [one.event(n, p) for n, p in events]
        assert batched.event_batch(events) == looped
        assert batched.predict(1) == one.predict(1)
        one.finish()
        batched.finish()


class TestFusedObservePredict:
    def test_fused_equals_observe_then_predict(self, npb_trace, server):
        """observe_predict == observe + predict, field by field, one frame."""
        events = npb_event_stream(npb_trace)[:200]
        local = Pythia(npb_trace, mode="predict")
        fused = PythiaClient(npb_trace, socket=server.socket_path)
        split = PythiaClient(npb_trace, socket=server.socket_path)
        for name, payload in events:
            fm, fp = fused.event_and_predict(name, payload, distance=4, with_time=True)
            lm, lp = local.event_and_predict(name, payload, distance=4, with_time=True)
            sm = split.event(name, payload)
            sp = split.predict(4, with_time=True)
            assert fm == lm == sm
            assert fp == lp == sp
        assert fused.stats() == split.stats() == local.stats()
        fused.finish()
        split.finish()

    def test_fused_batch_form(self, npb_trace, server):
        events = npb_event_stream(npb_trace)[:120]
        fused = PythiaClient(npb_trace, socket=server.socket_path)
        split = PythiaClient(npb_trace, socket=server.socket_path)
        matched, pred = fused.event_batch_and_predict(events, distance=2)
        assert matched == split.event_batch(events)
        assert pred == split.predict(2)
        assert fused.stats() == split.stats()
        fused.finish()
        split.finish()

    def test_require_match_skips_prediction(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as remote:
            matched, pred = remote.event_and_predict(
                "never_recorded_event", require_match=True
            )
            assert matched is False
            assert pred is None
            # without require_match a lost oracle still answers None
            matched, pred = remote.event_and_predict("never_recorded_event")
            assert matched is False
            assert pred is None

    def test_fused_counters(self, npb_trace, server):
        events = npb_event_stream(npb_trace)[:10]
        with PythiaClient(npb_trace, socket=server.socket_path) as remote:
            for name, payload in events:
                remote.event_and_predict(name, payload)
            counters = remote.server_stats()["counters"]
            assert counters["events_observed"] == len(events)
            assert counters["predictions_served"] == len(events)

    def test_fused_validation_errors(self, npb_trace, server):
        from repro.server.client import OracleServiceError

        with PythiaClient(npb_trace, socket=server.socket_path) as remote:
            sid = remote._session(0)
            for bad in (
                {"op": "observe_predict", "session": sid, "name": "x", "distance": 0},
                {"op": "observe_predict", "session": sid, "name": "x", "distance": "1"},
                {"op": "observe_predict", "session": sid, "events": []},
                {"op": "observe_predict", "session": sid, "events": [["a", 1, 2]]},
                {"op": "observe_predict", "session": sid, "name": 7},
            ):
                with pytest.raises(OracleServiceError) as exc_info:
                    remote._request(**bad)
                assert exc_info.value.code == "bad_request"


class TestConcurrentSessions:
    N_CLIENTS = 16
    STEPS = 120

    def test_sixteen_concurrent_observe_predict_loops(self, npb_trace, server):
        """Acceptance: 16 clients share one daemon with no errors, and
        the daemon's counters account for every session/prediction."""
        events = npb_event_stream(npb_trace)[: self.STEPS]
        errors: list[Exception] = []
        predictions = [0] * self.N_CLIENTS
        barrier = threading.Barrier(self.N_CLIENTS)

        def app(idx: int):
            try:
                client = PythiaClient(npb_trace, socket=server.socket_path)
                barrier.wait()
                for name, payload in events:
                    client.event(name, payload)
                    if client.predict(4) is not None:
                        predictions[idx] += 1
                client.finish()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=app, args=(i,)) for i in range(self.N_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert all(n > 0 for n in predictions)

        with PythiaClient(npb_trace, socket=server.socket_path) as probe:
            stats = probe.server_stats()
        counters = stats["counters"]
        assert counters["sessions_opened"] >= self.N_CLIENTS
        assert counters["sessions_closed"] >= self.N_CLIENTS
        assert counters["events_observed"] >= self.N_CLIENTS * self.STEPS
        assert counters["predictions_served"] >= self.N_CLIENTS * self.STEPS
        # one shared trace: every session after the first hits the store
        assert stats["store"]["misses"] == 1
        assert stats["store"]["hits"] >= self.N_CLIENTS - 1
        if obs_metrics.metrics_enabled():
            assert "observe" in stats["latency"]
            assert stats["latency"]["predict"]["count"] >= self.N_CLIENTS * self.STEPS
        else:  # PYTHIA_METRICS=0: no latency samples are kept
            assert stats["latency"] == {}

    def test_sessions_are_isolated(self, npb_trace, server):
        """Two sessions at different positions answer differently."""
        events = npb_event_stream(npb_trace)
        ahead = PythiaClient(npb_trace, socket=server.socket_path)
        behind = PythiaClient(npb_trace, socket=server.socket_path)
        for name, payload in events[:40]:
            ahead.event(name, payload)
        for name, payload in events[:10]:
            behind.event(name, payload)
        assert ahead.stats()["observed"] == 40
        assert behind.stats()["observed"] == 10
        ahead.finish()
        behind.finish()


class TestHostileClients:
    def _raw(self, server) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(5)
        sock.connect(server.socket_path)
        return sock

    def test_unknown_op_gets_error_response(self, server):
        sock = self._raw(server)
        write_frame(sock, {"op": "self_destruct"})
        response = read_frame(sock)
        assert response == {
            "ok": False,
            "code": "unknown_op",
            "error": "unknown request op 'self_destruct'",
        }
        sock.close()

    def test_missing_op_gets_error_response(self, server):
        sock = self._raw(server)
        write_frame(sock, {"hello": "world"})
        assert read_frame(sock)["code"] == "unknown_op"
        sock.close()

    def test_unhashable_op_gets_error_response(self, server):
        """An op no handler table can even hash is refused, not fatal:
        this connection and every other one keep being served."""
        sock = self._raw(server)
        write_frame(sock, {"op": ["open_session"]})
        assert read_frame(sock)["code"] == "unknown_op"
        write_frame(sock, {"op": "ping"})
        assert read_frame(sock)["pong"]
        other = self._raw(server)
        write_frame(other, {"op": "ping"})
        assert read_frame(other)["pong"]
        sock.close()
        other.close()

    def test_bad_session_gets_error_response(self, server):
        sock = self._raw(server)
        write_frame(sock, {"op": "predict", "session": "s999"})
        assert read_frame(sock)["code"] == "no_such_session"
        sock.close()

    def test_oversized_frame_drops_only_that_connection(self, npb_trace, server):
        sock = self._raw(server)
        sock.sendall(struct.pack(">I", 1 << 31))  # absurd announcement
        response = read_frame(sock)  # server answers before dropping us
        assert response["code"] == "protocol"
        assert read_frame(sock) is None  # ...and closes the connection
        sock.close()
        # the daemon survives and serves a well-behaved client
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            client.event(*npb_event_stream(npb_trace)[0])
            assert client.stats()["observed"] == 1

    def test_garbage_bytes_drop_only_that_connection(self, npb_trace, server):
        sock = self._raw(server)
        body = b"\xff\xfenot json"
        sock.sendall(struct.pack(">I", len(body)) + body)
        assert read_frame(sock)["code"] == "protocol"
        sock.close()
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            assert client.predict(1) is None  # lost (no events yet) but alive

    def test_abrupt_disconnect_reaps_sessions(self, npb_trace, server):
        sock = self._raw(server)
        write_frame(sock, {"op": "open_session", "trace": npb_trace})
        assert read_frame(sock)["ok"]
        sock.close()  # no close_session
        # the reaper runs when the connection thread unwinds
        deadline = 50
        while deadline:
            with PythiaClient(npb_trace, socket=server.socket_path) as probe:
                stats = probe.server_stats()
            if stats["sessions_active"] == 0:
                break
            deadline -= 1
            import time

            time.sleep(0.05)
        assert deadline, "orphaned session was never reaped"

    def test_malformed_fields_get_bad_request(self, npb_trace, server):
        sock = self._raw(server)
        checks = [
            ({"op": "open_session"}, "bad_request"),                      # no trace
            ({"op": "open_session", "trace": 5}, "bad_request"),          # wrong type
            ({"op": "open_session", "trace": npb_trace, "thread": "x"}, "bad_request"),
            ({"op": "open_session", "trace": npb_trace, "max_candidates": 0}, "bad_request"),
        ]
        for request, code in checks:
            write_frame(sock, request)
            response = read_frame(sock)
            assert response["ok"] is False and response["code"] == code, request
        # connection still usable after every rejected request
        write_frame(sock, {"op": "ping"})
        assert read_frame(sock)["pong"]
        sock.close()

    def test_observe_with_bad_distance_and_events(self, npb_trace, server):
        sock = self._raw(server)
        write_frame(sock, {"op": "open_session", "trace": npb_trace})
        sid = read_frame(sock)["session"]
        for request in (
            {"op": "predict", "session": sid, "distance": 0},
            {"op": "predict", "session": sid, "distance": "far"},
            {"op": "observe_batch", "session": sid, "events": "nope"},
            {"op": "observe_batch", "session": sid, "events": [["a", 1, 2, 3]]},
            {"op": "observe", "session": sid, "name": 7},
        ):
            write_frame(sock, request)
            assert read_frame(sock)["code"] == "bad_request"
        sock.close()


class TestTCP:
    def test_tcp_round_trip(self, npb_trace):
        with OracleServer(tcp_address=("127.0.0.1", 0)) as server:
            host, port = server.address
            with PythiaClient(npb_trace, socket=(host, port)) as client:
                name, payload = npb_event_stream(npb_trace)[0]
                client.event(name, payload)
                assert client.stats()["observed"] == 1


class TestMetricsDisabled:
    def test_stats_op_over_null_registry(self, npb_trace, tmp_path):
        """With PYTHIA_METRICS=0 the latency histograms are null
        instruments; ``stats`` must answer, with an empty latency view."""
        prev = obs_metrics.get_registry()
        obs_metrics.set_registry(obs_metrics.NullRegistry())
        try:
            with OracleServer(str(tmp_path / "null.sock")) as server:
                events = npb_event_stream(npb_trace)[:10]
                with PythiaClient(npb_trace, socket=server.socket_path) as remote:
                    for name, payload in events:
                        remote.event_and_predict(name, payload)
                    stats = remote.server_stats()
        finally:
            obs_metrics.set_registry(prev)
        assert stats["counters"]["events_observed"] == len(events)
        assert stats["latency"] == {}


class TestSlowOps:
    def test_profile_window_does_not_hold_up_opens(self, npb_trace, server):
        """A windowed ``profile_dump`` runs beside session opens, not
        ahead of them: an open sent mid-window is answered at once."""
        ensure_artifact(npb_trace)  # the open maps, it does not compile
        profile = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        profile.connect(server.socket_path)
        write_frame(profile, {"op": "profile_dump", "seconds": 2})
        time.sleep(0.3)  # the window is open
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.connect(server.socket_path)
        t0 = time.monotonic()
        write_frame(conn, {"op": "open_session", "trace": npb_trace})
        assert read_frame(conn)["ok"]
        assert time.monotonic() - t0 < 1.0
        assert read_frame(profile)["ok"]
        conn.close()
        profile.close()


class TestSessionLifetime:
    def test_closed_session_freed_by_reference_counting(self, npb_trace, server):
        """With the cyclic collector off, close_session frees the
        session's tracker and its flight recorder."""
        events = npb_event_stream(npb_trace)[:200]
        gc.collect()
        gc.disable()
        try:
            with PythiaClient(npb_trace, socket=server.socket_path) as client:
                for name, payload in events:
                    client.event_and_predict(name, payload)
                for i in range(64):  # a drift transition on the session
                    client.event(f"hostile_{i}")
                (session,) = server._sessions.values()
                tracker = session.tracker
                assert tracker.drift.state == "diverged"
                refs = [weakref.ref(tracker), weakref.ref(tracker.flight)]
                del session, tracker
            assert server._sessions == {}
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestServerLifecycle:
    def test_socket_file_removed_on_stop(self, tmp_path):
        sock_path = str(tmp_path / "s.sock")
        server = OracleServer(sock_path).start()
        assert os.path.exists(sock_path)
        server.stop()
        assert not os.path.exists(sock_path)

    def test_requires_exactly_one_address(self, tmp_path):
        with pytest.raises(ValueError):
            OracleServer()
        with pytest.raises(ValueError):
            OracleServer(str(tmp_path / "s"), tcp_address=("127.0.0.1", 0))
