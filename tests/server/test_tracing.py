"""End-to-end request tracing: ctx propagation, reply timing, sessions.

The tentpole contract: every client request is traced — a full
``ctx = {sid, rid}`` rides until the daemon binds the identity to the
connection, after which bare requests inherit the sid with implicit
consecutive rids — every reply to a traced request
carries ``srv = [queue_us, handler_us]``, and the client
decomposes its observed
round-trip latency into wire/queue/handler.  One ``observe_predict``
yields one correlated trace — a ``client.observe_predict`` span and a
``server.observe_predict`` span sharing session and request id — and
``pythia-trace analyze`` reproduces the decomposition offline from the
dumped journals.
"""

from __future__ import annotations

import os
import socket

import pytest

from repro.experiments.harness import mpi_record_run
from repro.obs import journal
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.analysis import TraceTable
from repro.server import OracleServer, PythiaClient, TraceStore, admin_request
from repro.server.protocol import read_frame, write_frame


@pytest.fixture(scope="module")
def npb_trace(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("npb-tracing") / "bt.pythia")
    mpi_record_run("bt", "small", path, ranks=2, seed=0, timestamps=True)
    return path


@pytest.fixture
def fresh_registry():
    prev = obs_metrics.get_registry()
    reg = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    yield reg
    obs_metrics.set_registry(prev)


@pytest.fixture
def server(tmp_path, fresh_registry):
    sock = str(tmp_path / "oracle.sock")
    with OracleServer(sock, store=TraceStore(capacity=4)) as srv:
        yield srv


def drive(client, n=32, thread=0):
    """Send ``n`` observe_predict requests; returns the count sent."""
    registry = client.registry
    names = list(registry)
    for i in range(n):
        ev = registry.event(i % len(names))
        client.event_and_predict(ev.name, ev.payload, thread=thread)
    return n


class TestContextPropagation:
    def test_client_stamps_sid_and_monotonic_rid(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            assert client.session_id.startswith("c")
            drive(client, 8)
            ctx = client.trace_context()
            assert ctx["enabled"] is True
            assert ctx["sid"] == client.session_id
            first_rid = ctx["rid"]
            drive(client, 8)
            assert client.trace_context()["rid"] > first_rid

    def test_reply_carries_server_timing(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            drive(client, 4)
            timing = client.last_timing
            assert timing is not None
            assert timing["sid"] == client.session_id
            assert timing["rid"] == client.trace_context()["rid"]
            for key in ("total_us", "wire_us", "queue_us", "handler_us"):
                assert timing[key] is not None and timing[key] >= 0.0, key

    def test_decomposition_sums_to_total(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            drive(client, 4)
            t = client.last_timing
            # wire is the residual, so the identity holds to rounding
            assert t["wire_us"] + t["queue_us"] + t["handler_us"] == pytest.approx(
                t["total_us"], abs=0.5
            )

    def test_error_replies_also_timed(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            drive(client, 1)
            with pytest.raises(KeyError):
                client.predict(thread=77)  # no_such_thread
            # the failing call (open_session for thread 77) was timed too
            assert client.last_timing["op"] == "open_session"
            assert client.last_timing["handler_us"] is not None

    def test_context_off_restores_legacy_wire_format(self, npb_trace, server):
        with PythiaClient(
            npb_trace, socket=server.socket_path, context=False
        ) as client:
            drive(client, 4)
            assert client.last_timing is None
            assert client.timing_report() == {}
            assert client.trace_context()["enabled"] is False
        # and the daemon tracked nothing for it
        table = admin_request(server.socket_path, {"op": "sessions"})
        assert table["tracked"] == 0

    def test_legacy_request_without_ctx_gets_no_srv(self, server):
        response = admin_request(server.socket_path, {"op": "ping"})
        assert response["ok"]
        assert "srv" not in response

    def test_malformed_sid_ignored(self, server):
        for ctx in (
            {"sid": "", "rid": 1},        # empty sid
            {"sid": "x" * 200, "rid": 1},  # oversized sid
            {"sid": 7, "rid": 1},          # non-string sid
            "not a dict",
        ):
            response = admin_request(server.socket_path, {"op": "ping", "ctx": ctx})
            assert response["ok"], ctx
            assert "srv" not in response, ctx
        assert admin_request(server.socket_path, {"op": "sessions"})["tracked"] == 0

    def test_bound_connection_traces_bare_requests_implicitly(self, server):
        """A full ``ctx`` binds the identity to the connection; later
        requests on it carry no stamp at all and are attributed to the
        same session with consecutive rids (the stream delivers in
        order, so the daemon's count mirrors the client's)."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10.0)
        sock.connect(server.socket_path)
        try:
            write_frame(sock, {"op": "ping", "ctx": {"sid": "bound", "rid": 1}})
            assert "srv" in read_frame(sock)
            for _ in range(3):
                write_frame(sock, {"op": "ping"})  # byte-identical to untraced
                response = read_frame(sock)
                assert response["ok"]
                assert len(response["srv"]) == 2
        finally:
            sock.close()
        table = admin_request(server.socket_path, {"op": "sessions"})
        (row,) = table["sessions"]
        assert row["sid"] == "bound"
        assert row["requests"] == 4
        assert row["last_rid"] == 4  # 1 explicit + 3 implicit
        assert row["rid_regressions"] == 0

    def test_rebinding_resets_the_implicit_rid_base(self, server):
        """A later full ``ctx`` re-binds: implicit rids continue from
        its rid, exactly as a reconnecting client's counter would."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10.0)
        sock.connect(server.socket_path)
        try:
            write_frame(sock, {"op": "ping", "ctx": {"sid": "re", "rid": 10}})
            read_frame(sock)
            write_frame(sock, {"op": "ping"})  # implicit rid 11
            read_frame(sock)
            write_frame(sock, {"op": "ping", "ctx": {"sid": "re", "rid": 40}})
            read_frame(sock)
            write_frame(sock, {"op": "ping"})  # implicit rid 41
            read_frame(sock)
        finally:
            sock.close()
        table = admin_request(server.socket_path, {"op": "sessions"})
        (row,) = table["sessions"]
        assert row["last_rid"] == 41
        assert row["rid_regressions"] == 0

    def test_malformed_rid_with_valid_sid_still_traced(self, server):
        """The sid gates tracing; a broken rid is dropped, it does not
        lose the reply timing or count as a regression — the session
        table just stops advancing ``last_rid``."""
        for ctx in (
            {"sid": "ok", "rid": -1},    # negative rid
            {"sid": "ok", "rid": True},  # bool is not a rid
            {"sid": "ok"},               # absent rid
        ):
            response = admin_request(server.socket_path, {"op": "ping", "ctx": ctx})
            assert response["ok"], ctx
            assert len(response["srv"]) == 2, ctx
        table = admin_request(server.socket_path, {"op": "sessions"})
        (row,) = table["sessions"]
        assert row["sid"] == "ok"
        assert row["requests"] == 3
        assert row["last_rid"] == 0
        assert row["rid_regressions"] == 0

    def test_timing_report_has_all_components(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            drive(client, 16)
            report = client.timing_report()
        op = report["observe_predict"]
        for component in ("total", "wire", "queue", "handler"):
            assert op[component]["count"] >= 16, component
            assert op[component]["p99_us"] >= op[component]["p50_us"] >= 0

    def test_explicit_session_id(self, npb_trace, server):
        with PythiaClient(
            npb_trace, socket=server.socket_path, session_id="my-worker-1"
        ) as client:
            drive(client, 2)
        table = admin_request(server.socket_path, {"op": "sessions"})
        assert [row["sid"] for row in table["sessions"]] == ["my-worker-1"]

    def test_invalid_session_id_rejected(self, npb_trace, server):
        with pytest.raises(ValueError):
            PythiaClient(npb_trace, socket=server.socket_path, session_id="")
        with pytest.raises(ValueError):
            PythiaClient(
                npb_trace, socket=server.socket_path, session_id="x" * 129
            )


class TestSessionsOp:
    def test_table_row_per_client(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as a:
            with PythiaClient(npb_trace, socket=server.socket_path) as b:
                drive(a, 8)
                drive(b, 4)
                table = admin_request(server.socket_path, {"op": "sessions"})
                rows = {row["sid"]: row for row in table["sessions"]}
                assert set(rows) == {a.session_id, b.session_id}
                assert rows[a.session_id]["requests"] > rows[b.session_id]["requests"]
                for row in rows.values():
                    assert row["rid_regressions"] == 0
                    assert row["handler_us"]["p99"] >= row["handler_us"]["p50"]

    def test_live_rows_join_tracker_state(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            drive(client, 32)
            table = client.sessions()
            (row,) = [
                r for r in table["sessions"] if r["sid"] == client.session_id
            ]
            assert row["live_sessions"], "live daemon sessions not joined"
            assert 0.0 <= row["hit_rate"] <= 1.0
            assert row["observed"] >= 32
        # after close the row survives (telemetry) but the join is gone
        table = admin_request(server.socket_path, {"op": "sessions"})
        (row,) = table["sessions"]
        assert row["live_sessions"] == []
        assert "hit_rate" not in row

    def test_sessions_allowed_while_draining(self, npb_trace, server):
        """``sessions`` is in the drain allowlist: monitors keep sight
        of the table while the daemon winds down."""
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            drive(client, 2)
            # connect before the drain: a draining daemon refuses new
            # connections but keeps answering allowlisted ops on live ones
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(10.0)
            sock.connect(server.socket_path)
            try:
                server.drain(deadline=1.0)
                assert server.draining
                write_frame(sock, {"op": "sessions"})
                response = read_frame(sock)
            finally:
                sock.close()
            assert response["ok"]
            assert response["tracked"] == 1

    def test_session_metrics_labeled_and_bounded(self, npb_trace, tmp_path,
                                                 fresh_registry):
        sock = str(tmp_path / "small.sock")
        with OracleServer(
            sock, store=TraceStore(capacity=4), session_stats_capacity=2
        ) as server:
            sids = [f"worker-{i}" for i in range(4)]
            for sid in sids:
                with PythiaClient(npb_trace, socket=sock, session_id=sid) as c:
                    drive(c, 2)
            text = admin_request(server.socket_path, {"op": "metrics"})["text"]
            # only the 2 most recent sids keep series: eviction pruned the rest
            assert 'session="worker-3"' in text
            assert 'session="worker-2"' in text
            assert 'session="worker-0"' not in text
            assert 'session="worker-1"' not in text
            assert "pythia_session_requests_total" in text
            assert "pythia_session_last_rid" in text
            table = admin_request(server.socket_path, {"op": "sessions"})
            assert table["tracked"] == 2
            assert table["evicted"] == 2


class TestCorrelatedTrace:
    def test_observe_predict_yields_one_correlated_trace(
        self, npb_trace, server, tmp_path
    ):
        """Acceptance: client and daemon spans share sid/rid, and the
        client-observed latency decomposes into wire+queue+handler."""
        with obs_spans.span_recording() as rec:
            with PythiaClient(npb_trace, socket=server.socket_path) as client:
                drive(client, 1)
                sid = client.session_id
                rid = client.last_timing["rid"]
                timing = dict(client.last_timing)
        spans = [
            s for s in rec.spans()
            if s.attrs.get("sid") == sid and s.attrs.get("rid") == rid
        ]
        names = sorted(s.name for s in spans)
        assert names == ["client.observe_predict", "server.observe_predict"]
        by_name = {s.name: s for s in spans}
        client_span = by_name["client.observe_predict"]
        server_span = by_name["server.observe_predict"]
        # the daemon's reply timing is what the client span carries
        assert client_span.attrs["queue_us"] == server_span.attrs["queue_us"]
        assert client_span.attrs["handler_us"] == server_span.attrs["handler_us"]
        assert timing["wire_us"] + timing["queue_us"] + timing["handler_us"] == (
            pytest.approx(timing["total_us"], abs=0.5)
        )
        # the server span covers the handler interval, inside the client span
        assert server_span.duration <= client_span.duration

    def test_analyze_reproduces_decomposition_offline(
        self, npb_trace, server, tmp_path
    ):
        """Acceptance: the offline report over the dumped journal agrees
        with the client's live timing report."""
        dump = tmp_path / "merged-spans.json"
        with obs_spans.span_recording() as rec:
            with PythiaClient(npb_trace, socket=server.socket_path) as client:
                drive(client, 24)
                live = client.timing_report()
            rec.dump(dump)
        table = TraceTable.load(dump)
        offline = table.report()
        assert client.session_id in offline["sessions"]
        live_op = live["observe_predict"]
        offline_op = offline["ops"]["observe_predict"]
        for component in ("total", "wire", "queue", "handler"):
            assert offline_op[component]["count"] == live_op[component]["count"]
            # digests quantize into buckets; raw samples do not — allow
            # one bucket (latency buckets step ~2.5x) of slack
            assert offline_op[component]["max_us"] == pytest.approx(
                live_op[component]["max_us"], rel=1.6
            )
        # every decomposed request joined its server-side span
        decomposed = table.decompose()
        assert len(decomposed) == len(table.requests())
        assert all(
            row.get("server_handler_us") is not None
            for row in decomposed
            if row["name"] == "client.observe_predict"
        )
        # CI's integration job uploads the merged trace as an artifact
        target = os.environ.get("PYTHIA_CHROME_TRACE")
        if target:
            journal.dump(target, table.decompose().to_chrome_trace())

    def test_flight_journal_tagged_with_client_sid(self, npb_trace, server):
        """The daemon names per-session flight recorders after the
        client sid, so merged journals correlate with the spans."""
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            drive(client, 16)
            with server._lock:
                (session,) = server._sessions.values()
            assert session.ctx_sid == client.session_id
            flight = session.tracker.flight
            assert flight is not None
            assert flight.session.startswith(client.session_id + ".")


class TestQueueMetric:
    def test_queue_histogram_exposed(self, npb_trace, server):
        with PythiaClient(npb_trace, socket=server.socket_path) as client:
            drive(client, 4)
        text = admin_request(server.socket_path, {"op": "metrics"})["text"]
        assert "pythia_server_queue_seconds_count" in text
        assert "pythia_server_queue_seconds_sum" in text
