"""Chaos suite: the oracle service under transport faults.

Every fault here is deterministic — scripted by frame count through
:class:`~repro.runtime.faults.FaultyTransport`, or an explicit daemon
kill/restart — so the suite never flakes on timing.  The scenarios are
the acceptance criteria of the fault-tolerance layer:

- a request that times out mid-reply must never poison the next request
  (the stale-frame desync the old client suffered from);
- a daemon killed and restarted mid-session: the client reconnects
  within its backoff schedule, replays its event ring, and the
  post-resync prediction stream is byte-identical to an uninterrupted
  run;
- SIGTERM drain finishes in-flight batches and answers late requests
  with the retryable ``shutting_down`` code;
- with the daemon permanently unreachable the host application
  completes in degraded mode with zero unhandled exceptions.
"""

from __future__ import annotations

import os
import signal
import socket as socket_mod
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.core.oracle import Pythia
from repro.obs import metrics as obs_metrics
from repro.runtime.faults import FaultyTransport
from repro.server import (
    OracleServer,
    PythiaClient,
    RetryPolicy,
    TraceStore,
    admin_request,
)
from repro.server.protocol import read_frame, write_frame

#: fights hard but fast: suited to in-test daemons that restart quickly
FAST_RETRY = RetryPolicy(
    max_retries=10, backoff_base=0.005, backoff_cap=0.05, jitter=0.0, deadline=10.0
)

#: gives up almost immediately: suited to permanently-down daemons
IMPATIENT_RETRY = RetryPolicy(
    max_retries=2, backoff_base=0.001, backoff_cap=0.002, jitter=0.0, deadline=1.0
)


def record_loop_trace(path: str, *, repeats: int = 6) -> list[tuple[str, object]]:
    """A loop-structured reference trace (what HPC phases look like);
    returns the exact event stream it was recorded from."""
    body = [("a", None), ("b", 1), ("c", None), ("b", 2)]
    seq = ([("prologue", None)] + body * 10 + [("epilogue", None)]) * repeats
    oracle = Pythia(path, mode="record", record_timestamps=False)
    for name, payload in seq:
        oracle.event(name, payload)
    oracle.finish()
    return seq


@pytest.fixture
def trace_path(tmp_path):
    path = str(tmp_path / "ref.pythia")
    record_loop_trace(path)
    return path


def spawn_serve(sock_path: str, *args: str) -> subprocess.Popen:
    """Run ``pythia-trace serve`` on ``sock_path``; return once it accepts.

    The socket file alone proves nothing: kill -9 leaves the old
    daemon's file behind, so a fresh daemon is only up once a connect
    succeeds.
    """
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from repro.cli import main; "
         f"sys.exit(main({['serve', '--socket', sock_path, *args]!r}))"],
        env={**os.environ, "PYTHONPATH": src_dir},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    deadline = time.monotonic() + 15
    try:
        while True:
            assert proc.poll() is None, proc.stdout.read().decode()
            probe = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
            try:
                probe.connect(sock_path)
                return proc
            except OSError:
                assert time.monotonic() < deadline, "daemon did not come up"
                time.sleep(0.02)
            finally:
                probe.close()
    except AssertionError:
        proc.kill()  # the caller never gets it to clean up
        proc.wait(timeout=10)
        raise


def pred_key(pred):
    """Byte-comparable view of a Prediction (None-safe)."""
    if pred is None:
        return None
    return (
        pred.terminal,
        pred.probability,
        pred.eta,
        tuple(sorted(pred.distribution.items(), key=lambda kv: (kv[0] is None, kv[0]))),
    )


def raw_connect(path: str, timeout: float = 5.0) -> socket_mod.socket:
    sock = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(path)
    return sock


class TestConnectionDesync:
    """Satellite bugfix: a timed-out request must kill the connection."""

    def test_stale_frame_poisons_a_naive_client(self, tmp_path, trace_path):
        """Prove the old behavior was wrong: reuse the socket after a
        timeout and the *next* request decodes the previous reply."""
        sock_path = str(tmp_path / "oracle.sock")
        proxy_path = str(tmp_path / "proxy.sock")
        with OracleServer(sock_path, store=TraceStore()) as _srv, \
                FaultyTransport(sock_path, proxy_path) as proxy:
            naive = raw_connect(proxy_path, timeout=0.2)
            write_frame(naive, {"op": "open_session", "trace": trace_path})
            sid = read_frame(naive)["session"]
            # replies so far: 1 (open_session); hold reply #2 past the timeout
            proxy.delay_reply(2, 0.6)
            write_frame(naive, {"op": "predict", "session": sid, "distance": 1})
            with pytest.raises(TimeoutError):
                read_frame(naive)
            # the naive client shrugs and reuses the socket: its ping is
            # answered by the stale predict reply — a wrong answer
            naive.settimeout(5.0)
            write_frame(naive, {"op": "ping"})
            stale = read_frame(naive)
            assert "prediction" in stale and "pong" not in stale
            naive.close()

    def test_client_closes_and_reconnects_on_timeout(self, tmp_path, trace_path):
        sock_path = str(tmp_path / "oracle.sock")
        proxy_path = str(tmp_path / "proxy.sock")
        events = record_loop_trace(str(tmp_path / "again.pythia"))  # same stream
        local = Pythia(trace_path, mode="predict")
        with OracleServer(sock_path, store=TraceStore()) as _srv, \
                FaultyTransport(sock_path, proxy_path) as proxy:
            client = PythiaClient(
                trace_path, socket=proxy_path, timeout=0.2, retry=FAST_RETRY
            )
            for name, payload in events[:20]:
                local.event(name, payload)
                client.event(name, payload)
            # hold the next reply beyond the client timeout, then deliver:
            # the stale frame lands on a socket the client already closed
            proxy.delay_reply(proxy.replies_forwarded + 1, 0.5)
            for i, (name, payload) in enumerate(events[20:60]):
                lm, lp = local.event_and_predict(name, payload, distance=4)
                cm, cp = client.event_and_predict(name, payload, distance=4)
                assert (lm, pred_key(lp)) == (cm, pred_key(cp)), i
            assert client.counters["reconnects"] >= 1
            assert not client.degraded
            client.finish()

    def test_mid_frame_cut_never_reuses_the_socket(self, tmp_path, trace_path):
        sock_path = str(tmp_path / "oracle.sock")
        proxy_path = str(tmp_path / "proxy.sock")
        events = record_loop_trace(str(tmp_path / "again.pythia"))
        local = Pythia(trace_path, mode="predict")
        with OracleServer(sock_path, store=TraceStore()) as _srv, \
                FaultyTransport(sock_path, proxy_path) as proxy:
            client = PythiaClient(
                trace_path, socket=proxy_path, timeout=1.0, retry=FAST_RETRY
            )
            # cut replies 4 and 9 in half: the client sees a broken frame
            proxy.cut_mid_reply(4)
            proxy.cut_mid_reply(9)
            for i, (name, payload) in enumerate(events[:40]):
                lm, lp = local.event_and_predict(name, payload, distance=2)
                cm, cp = client.event_and_predict(name, payload, distance=2)
                assert (lm, pred_key(lp)) == (cm, pred_key(cp)), i
            assert proxy.cuts == 2
            assert client.counters["reconnects"] >= 2
            client.finish()

    def test_dropped_connection_after_request(self, tmp_path, trace_path):
        """The 'applied but unacknowledged' fault: the daemon observed
        the event, the client never saw the reply.  The fresh session
        replays the ring, so nothing is observed twice."""
        sock_path = str(tmp_path / "oracle.sock")
        proxy_path = str(tmp_path / "proxy.sock")
        events = record_loop_trace(str(tmp_path / "again.pythia"))
        local = Pythia(trace_path, mode="predict")
        with OracleServer(sock_path, store=TraceStore()) as _srv, \
                FaultyTransport(sock_path, proxy_path) as proxy:
            client = PythiaClient(
                trace_path, socket=proxy_path, timeout=1.0, retry=FAST_RETRY
            )
            proxy.cut_after_requests(7)
            for i, (name, payload) in enumerate(events[:40]):
                lm, lp = local.event_and_predict(name, payload, distance=4)
                cm, cp = client.event_and_predict(name, payload, distance=4)
                assert (lm, pred_key(lp)) == (cm, pred_key(cp)), i
            assert client.counters["reconnects"] >= 1
            client.finish()


class TestDaemonCrashRestart:
    def test_restart_mid_session_post_resync_byte_identical(self, tmp_path, trace_path):
        """Acceptance: kill the daemon mid-run, restart it, and the
        client's post-resync prediction stream matches an uninterrupted
        in-process run field by field."""
        sock_path = str(tmp_path / "oracle.sock")
        events = record_loop_trace(str(tmp_path / "again.pythia"))
        local = Pythia(trace_path, mode="predict")
        srv = OracleServer(sock_path, store=TraceStore()).start()
        client = PythiaClient(
            trace_path, socket=sock_path, timeout=1.0, retry=FAST_RETRY
        )
        cut = len(events) // 2
        for name, payload in events[:cut]:
            lm, lp = local.event_and_predict(name, payload, distance=4)
            cm, cp = client.event_and_predict(name, payload, distance=4)
            assert (lm, pred_key(lp)) == (cm, pred_key(cp))
        srv.stop()  # abrupt: connections die mid-session
        srv2 = OracleServer(sock_path, store=TraceStore()).start()
        try:
            for i, (name, payload) in enumerate(events[cut:]):
                lm, lp = local.event_and_predict(name, payload, distance=4)
                cm, cp = client.event_and_predict(name, payload, distance=4)
                assert (lm, pred_key(lp)) == (cm, pred_key(cp)), i
            assert client.counters["reconnects"] >= 1
            assert client.counters["fallbacks"] == 0
            assert not client.degraded
            # the daemon-side journal shows a fresh, resynced session
            assert client.stats()["observed"] > 0
            client.finish()
        finally:
            srv2.stop()

    def test_sigkill_subprocess_daemon_and_restart(self, tmp_path, trace_path):
        """The real thing: kill -9 a `pythia-trace serve` process."""
        sock_path = str(tmp_path / "oracle.sock")
        events = record_loop_trace(str(tmp_path / "again.pythia"))

        local = Pythia(trace_path, mode="predict")
        proc = spawn_serve(sock_path)
        try:
            client = PythiaClient(
                trace_path, socket=sock_path, timeout=2.0, retry=FAST_RETRY
            )
            cut = len(events) // 2
            for name, payload in events[:cut]:
                local.event(name, payload)
                client.event(name, payload)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            proc = spawn_serve(sock_path)
            for i, (name, payload) in enumerate(events[cut:]):
                lm, lp = local.event_and_predict(name, payload, distance=4)
                cm, cp = client.event_and_predict(name, payload, distance=4)
                assert (lm, pred_key(lp)) == (cm, pred_key(cp)), i
            assert client.counters["reconnects"] >= 1
            assert not client.degraded
            client.finish()
        finally:
            proc.kill()
            proc.wait(timeout=10)


class TestResyncDepth:
    """What a bounded ring can and cannot recover on a real NPB trace.

    BT's grammar is one long loop: after a mid-run reattach a bounded
    ring cannot disambiguate *which iteration* the run is in, so a
    low-weight alternative candidate survives and post-resync
    probabilities sit a fraction of a percent off the uninterrupted
    run.  ``resync_window=None`` replays the full history and is exact.
    """

    @pytest.fixture(scope="class")
    def npb(self, tmp_path_factory):
        from repro.experiments.harness import mpi_record_run

        path = str(tmp_path_factory.mktemp("npb") / "bt.pythia")
        mpi_record_run("bt", "small", path, ranks=2, seed=0, timestamps=True)
        trace = Pythia(path, mode="predict").reference
        stream = [
            (trace.registry.event(t).name, trace.registry.event(t).payload)
            for t in trace.threads[0].grammar.unfold()
        ]
        return path, stream

    def run_through_restart(self, tmp_path, npb, window):
        trace_path, stream = npb
        sock_path = str(tmp_path / "oracle.sock")
        cut = 800
        local = Pythia(trace_path, mode="predict")
        srv = OracleServer(sock_path, store=TraceStore()).start()
        client = PythiaClient(
            trace_path, socket=sock_path, retry=FAST_RETRY,
            resync_window=window,
        )
        try:
            for name, payload in stream[:cut]:
                local.event(name, payload)
                client.event(name, payload)
            srv.stop()
            srv = OracleServer(sock_path, store=TraceStore()).start()
            pairs = []
            for name, payload in stream[cut:]:
                pairs.append((
                    local.event_and_predict(name, payload, distance=4,
                                            with_time=True),
                    client.event_and_predict(name, payload, distance=4,
                                             with_time=True),
                ))
            assert client.counters["reconnects"] >= 1
            assert not client.degraded
            client.finish()
            return pairs
        finally:
            srv.stop()

    def test_unbounded_ring_is_byte_identical(self, tmp_path, npb):
        pairs = self.run_through_restart(tmp_path, npb, window=None)
        assert all(l == c for l, c in pairs)

    def test_bounded_ring_converges_on_the_top_prediction(self, tmp_path, npb):
        pairs = self.run_through_restart(tmp_path, npb, window=256)
        argmax_diff = preds = 0
        for (lm, lp), (cm, cp) in pairs:
            assert lm == cm  # the matched stream re-attaches immediately
            if lp is None or cp is None:
                assert lp == cp
                continue
            preds += 1
            if lp.terminal != cp.terminal:
                # loop boundary: the surviving alternative outweighs the
                # true path briefly — but the true terminal is never gone
                argmax_diff += 1
                assert lp.terminal in cp.distribution
            else:
                assert abs(lp.probability - cp.probability) < 0.05
        assert preds > 900
        assert argmax_diff <= preds * 0.02  # argmax agrees >= 98% of the time


class TestGracefulDrain:
    def test_drain_finishes_inflight_batch(self, tmp_path, trace_path):
        """A big observe_predict batch caught by the drain completes."""
        sock_path = str(tmp_path / "oracle.sock")
        events = record_loop_trace(str(tmp_path / "again.pythia"))
        batch = [[name, payload] for name, payload in events] * 200  # ~49k events
        srv = OracleServer(sock_path, store=TraceStore()).start()
        try:
            conn = raw_connect(sock_path, timeout=30)
            write_frame(conn, {"op": "open_session", "trace": trace_path})
            sid = read_frame(conn)["session"]
            write_frame(
                conn,
                {"op": "observe_predict", "session": sid, "events": batch,
                 "distance": 1},
            )
            deadline = time.monotonic() + 5
            while srv._inflight == 0 and time.monotonic() < deadline:
                time.sleep(0.0005)
            assert srv._inflight >= 1, "batch never became in-flight"
            srv.drain(deadline=30)
            response = read_frame(conn)
            assert response["ok"] and len(response["matched"]) == len(batch)
            conn.close()
        finally:
            srv.stop()

    def test_late_request_gets_retryable_shutting_down(self, tmp_path, trace_path):
        sock_path = str(tmp_path / "oracle.sock")
        srv = OracleServer(sock_path, store=TraceStore()).start()
        try:
            conn = raw_connect(sock_path)
            write_frame(conn, {"op": "open_session", "trace": trace_path})
            sid = read_frame(conn)["session"]
            srv.drain(deadline=1.0)
            assert srv.draining
            write_frame(conn, {"op": "predict", "session": sid, "distance": 1})
            response = read_frame(conn)
            assert response == {
                "ok": False, "code": "shutting_down",
                "error": "daemon is draining; reconnect and retry",
            }
            assert srv.counters["requests_rejected_draining"] == 1
            # clean shutdown ops are still answered during the drain
            write_frame(conn, {"op": "close_session", "session": sid})
            assert read_frame(conn)["ok"]
            write_frame(conn, {"op": "ping"})
            assert read_frame(conn)["pong"]
            conn.close()
        finally:
            srv.stop()

    def test_draining_daemon_refuses_new_connections(self, tmp_path, trace_path):
        sock_path = str(tmp_path / "oracle.sock")
        srv = OracleServer(sock_path, store=TraceStore()).start()
        try:
            srv.drain(deadline=0.5)
            with pytest.raises(OSError):
                raw_connect(sock_path, timeout=0.5)
        finally:
            srv.stop()

    def test_sigterm_subprocess_drains_cleanly(self, tmp_path, trace_path):
        sock_path = str(tmp_path / "oracle.sock")
        proc = spawn_serve(sock_path, "--drain-deadline", "2")
        try:
            conn = raw_connect(sock_path)
            write_frame(conn, {"op": "open_session", "trace": trace_path})
            assert read_frame(conn)["ok"]
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0  # drained, summarized, exited
            out = proc.stdout.read().decode()
            assert "predictions" in out  # the serve summary still printed
            conn.close()
        finally:
            proc.kill()
            proc.wait(timeout=10)


class TestDegradedMode:
    def test_daemon_never_up_local_fallback_byte_identical(self, tmp_path, trace_path):
        """Acceptance: daemon permanently unreachable → the host app
        completes with zero unhandled exceptions, predictions served by
        the in-process fallback, fallback counter >= 1."""
        events = record_loop_trace(str(tmp_path / "again.pythia"))[:200]
        local = Pythia(trace_path, mode="predict")
        fallbacks_before = obs_metrics.get_registry().counter(
            "pythia_client_fallbacks_total"
        ).value
        client = PythiaClient(
            trace_path, socket=str(tmp_path / "never.sock"),
            retry=IMPATIENT_RETRY, fallback="local",
        )
        for i, (name, payload) in enumerate(events):
            lm, lp = local.event_and_predict(name, payload, distance=4)
            cm, cp = client.event_and_predict(name, payload, distance=4)
            assert (lm, pred_key(lp)) == (cm, pred_key(cp)), i
        assert client.degraded
        assert client.counters["fallbacks"] >= 1
        assert client.counters["retries"] >= 1
        after = obs_metrics.get_registry().counter(
            "pythia_client_fallbacks_total"
        ).value
        assert after >= fallbacks_before + 1
        assert client.stats()["observed"] == len(events)
        client.finish()

    def test_daemon_dies_midway_fallback_resyncs_from_ring(self, tmp_path, trace_path):
        events = record_loop_trace(str(tmp_path / "again.pythia"))[:220]
        sock_path = str(tmp_path / "oracle.sock")
        local = Pythia(trace_path, mode="predict")
        srv = OracleServer(sock_path, store=TraceStore()).start()
        client = PythiaClient(
            trace_path, socket=sock_path, retry=IMPATIENT_RETRY, fallback="local"
        )
        cut = 100
        for name, payload in events[:cut]:
            lm, lp = local.event_and_predict(name, payload, distance=4)
            cm, cp = client.event_and_predict(name, payload, distance=4)
            assert (lm, pred_key(lp)) == (cm, pred_key(cp))
        srv.stop()  # permanent outage: nothing ever comes back
        for i, (name, payload) in enumerate(events[cut:]):
            lm, lp = local.event_and_predict(name, payload, distance=4)
            cm, cp = client.event_and_predict(name, payload, distance=4)
            assert (lm, pred_key(lp)) == (cm, pred_key(cp)), i
        assert client.degraded and client.counters["fallbacks"] == 1
        client.finish()

    def test_fallback_lost_never_crashes(self, tmp_path):
        """No daemon, no readable trace: predictions are honestly lost."""
        client = PythiaClient(
            str(tmp_path / "no-such-trace.pythia"),
            socket=str(tmp_path / "never.sock"),
            retry=IMPATIENT_RETRY, fallback="lost",
        )
        assert client.event("anything", 1) is False
        assert client.predict(4) is None
        assert client.event_and_predict("more")[1] is None
        assert client.predict_duration(2) is None
        assert client.stats()["lost"] is True
        assert client.degraded
        client.finish()

    def test_fallback_local_degrades_to_lost_without_trace(self, tmp_path):
        """fallback='local' but the trace is unreadable locally: the
        client downgrades to lost predictions instead of crashing."""
        client = PythiaClient(
            str(tmp_path / "no-such-trace.pythia"),
            socket=str(tmp_path / "never.sock"),
            retry=IMPATIENT_RETRY, fallback="local",
        )
        assert client.event("anything") is False
        assert client.predict(1) is None
        assert client.degraded
        client.finish()

    def test_fallback_raise_propagates(self, tmp_path, trace_path):
        client = PythiaClient(
            trace_path, socket=str(tmp_path / "never.sock"),
            retry=IMPATIENT_RETRY, fallback="raise",
        )
        with pytest.raises(OSError):
            client.event("a")
        assert not client.degraded  # raise mode never enters degraded
        client.finish()

    def test_flight_journal_records_the_transitions(self, tmp_path, trace_path):
        sock_path = str(tmp_path / "oracle.sock")
        events = record_loop_trace(str(tmp_path / "again.pythia"))
        srv = OracleServer(sock_path, store=TraceStore()).start()
        client = PythiaClient(
            trace_path, socket=sock_path, retry=IMPATIENT_RETRY, fallback="local"
        )
        for name, payload in events[:30]:
            client.event(name, payload)
        srv.stop()
        for name, payload in events[30:60]:
            client.event(name, payload)
        notes = [e for e in client.flight_journal() if e.get("kind") == "note"]
        messages = [n.get("message") for n in notes]
        assert "fallback" in messages
        dump = client.flight_dump()
        assert dump["session"] == "degraded" and dump["entries"]
        client.finish()


class TestRetryPolicy:
    def test_backoff_is_capped_exponential_with_jitter(self):
        import random

        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.8, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.backoff(n, rng) for n in range(1, 7)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 0.8, 0.8]
        jittered = RetryPolicy(backoff_base=0.1, backoff_cap=0.8, jitter=0.5)
        samples = {jittered.backoff(1, random.Random(s)) for s in range(8)}
        assert len(samples) > 1  # jitter actually varies
        assert all(0.1 <= d <= 0.15 for d in samples)

    def test_zero_retries_falls_back_on_first_failure(self, tmp_path, trace_path):
        client = PythiaClient(
            trace_path, socket=str(tmp_path / "never.sock"),
            retry=RetryPolicy(max_retries=0, deadline=1.0), fallback="local",
        )
        client.event("prologue")  # first event: tracker still syncing
        assert client.event("a", None) is True
        assert client.degraded and client.counters["retries"] == 1
        client.finish()


class TestConcurrentClientsUnderFaults:
    def test_many_threads_share_one_reconnecting_client(self, tmp_path, trace_path):
        """The client lock serializes requests; a daemon restart in the
        middle must not wedge or corrupt any thread."""
        sock_path = str(tmp_path / "oracle.sock")
        events = record_loop_trace(str(tmp_path / "again.pythia"))[:120]
        srv = OracleServer(sock_path, store=TraceStore()).start()
        client = PythiaClient(
            trace_path, socket=sock_path, timeout=1.0, retry=FAST_RETRY
        )
        errors: list[Exception] = []
        done = threading.Barrier(5)

        def run(tid: int) -> None:
            try:
                done.wait()
                for name, payload in events:
                    client.event(name, payload, thread=0)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(t,)) for t in range(5)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        srv.stop()
        srv2 = OracleServer(sock_path, store=TraceStore()).start()
        try:
            for t in threads:
                t.join(30)
            assert errors == []
            assert not client.degraded
            client.finish()
        finally:
            srv2.stop()


class TestTracingUnderFaults:
    """Satellite: tracing identity survives reconnect + resync.

    The session id is client-lifetime — it must not change when the
    connection is cut or the daemon is replaced — and every transmitted
    attempt carries a fresh request id, so the daemon's per-session
    ``rid_regressions`` counter (rid failed to advance = duplicate or
    replay) stays at zero through any amount of chaos.
    """

    def test_sid_stable_and_rids_unique_across_cuts(self, tmp_path, trace_path):
        sock_path = str(tmp_path / "oracle.sock")
        proxy_path = str(tmp_path / "proxy.sock")
        events = record_loop_trace(str(tmp_path / "again.pythia"))
        with OracleServer(sock_path, store=TraceStore()) as srv, \
                FaultyTransport(sock_path, proxy_path) as proxy:
            client = PythiaClient(
                trace_path, socket=proxy_path, timeout=1.0, retry=FAST_RETRY
            )
            sid = client.session_id
            proxy.cut_after_requests(7)
            proxy.cut_mid_reply(30)
            for name, payload in events[:60]:
                client.event_and_predict(name, payload, distance=4)
            assert client.counters["reconnects"] >= 2
            assert client.session_id == sid, "sid changed across reconnects"
            entry = srv.session_stats.get(sid)
            assert entry is not None
            assert entry.rid_regressions == 0
            assert entry.last_rid == client.trace_context()["rid"]
            # resync replays (observe_batch) are traced requests too:
            # the daemon saw more than the client's logical op count
            assert entry.requests >= 60
            client.finish()

    def test_sid_stable_across_daemon_kill9_restart(self, tmp_path, trace_path):
        """kill -9 the daemon: the replacement daemon's (fresh) session
        table re-learns the same sid, with rids continuing upward."""
        sock_path = str(tmp_path / "oracle.sock")
        events = record_loop_trace(str(tmp_path / "again.pythia"))

        proc = spawn_serve(sock_path)
        try:
            client = PythiaClient(
                trace_path, socket=sock_path, timeout=2.0, retry=FAST_RETRY
            )
            sid = client.session_id
            cut = len(events) // 2
            for name, payload in events[:cut]:
                client.event(name, payload)
            rid_before_crash = client.trace_context()["rid"]
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            proc = spawn_serve(sock_path)
            for name, payload in events[cut:]:
                client.event_and_predict(name, payload, distance=4)
            assert client.session_id == sid
            assert client.trace_context()["rid"] > rid_before_crash
            # daemon #2's table: same sid, rids advanced monotonically
            table = admin_request(sock_path, {"op": "sessions"})
            (row,) = [r for r in table["sessions"] if r["sid"] == sid]
            assert row["rid_regressions"] == 0
            assert row["last_rid"] == client.trace_context()["rid"]
            client.finish()
        finally:
            proc.kill()
            proc.wait(timeout=10)


class TestWorkerCrashUnderSupervisor:
    """Tentpole chaos: kill -9 a worker of a multi-worker tier.

    The supervisor's listener survives, so the client's reconnect hits
    the same address immediately; the consistent-hash ring routes the
    orphaned session to a live worker; the event-ring resync replays
    recent history there — and the post-resync prediction stream must
    be byte-identical to an uninterrupted local oracle, with zero rid
    regressions recorded anywhere.  Meanwhile the monitor respawns the
    dead slot under the same worker id.
    """

    def test_kill9_one_worker_of_four_sessions_resync(self, tmp_path, trace_path):
        from repro.server import OracleSupervisor

        events = record_loop_trace(str(tmp_path / "again.pythia"))
        sock_path = str(tmp_path / "sup.sock")
        sup = OracleSupervisor(sock_path, workers=4, drain_deadline=1.0)
        sup.start()
        # hold the monitor's respawn of the killed slot until the client
        # has rebound: a just-spawned process counts as alive, so a fast
        # respawn could win the race and take the reconnect back home
        respawn_gate = threading.Event()
        spawn = sup._spawn_worker

        def gated_spawn(wid: int) -> None:
            respawn_gate.wait(timeout=30)
            spawn(wid)

        sup._spawn_worker = gated_spawn
        try:
            local = Pythia(trace_path, mode="predict")
            client = PythiaClient(
                trace_path, socket=sock_path, retry=FAST_RETRY,
                fallback="raise", session_id="chaos-victim",
            )
            for name, payload in events[:40]:
                lm, lp = local.event_and_predict(name, payload, distance=4)
                cm, cp = client.event_and_predict(name, payload, distance=4)
                assert (lm, pred_key(lp)) == (cm, pred_key(cp))
            # find and SIGKILL the worker hosting the session
            info = admin_request(sock_path, {"op": "workers", "sid": "chaos-victim"})
            assert info["ok"]
            home = info["home"]
            assert client.worker == home
            victim_pid = info["workers"][str(home)]["pid"]
            os.kill(victim_pid, signal.SIGKILL)
            # the stream continues byte-identical across the crash
            for i, (name, payload) in enumerate(events[40:160]):
                lm, lp = local.event_and_predict(name, payload, distance=4)
                cm, cp = client.event_and_predict(name, payload, distance=4)
                assert (lm, pred_key(lp)) == (cm, pred_key(cp)), i
            assert client.counters["reconnects"] >= 1
            assert not client.degraded
            # the session rebound to a *different, live* worker
            assert client.worker is not None and client.worker != home
            respawn_gate.set()
            # the monitor respawned the slot: same wid, new pid, alive
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                table = admin_request(sock_path, {"op": "workers"})
                assert table["ok"]
                row = table["workers"][str(home)]
                if row["alive"] and row["pid"] != victim_pid:
                    break
                time.sleep(0.05)
            assert row["alive"] and row["pid"] != victim_pid
            assert row["restarts"] == 1
            # no rid ever regressed, on any worker's table
            table = admin_request(sock_path, {"op": "sessions"})
            assert table["ok"]
            (srow,) = [r for r in table["sessions"] if r["sid"] == "chaos-victim"]
            assert srow["rid_regressions"] == 0
            assert srow["worker"] == client.worker
            # all workers served from one shared compiled artifact
            stats = admin_request(sock_path, {"op": "stats"})
            assert stats["ok"]
            assert len(stats["store"]["artifacts"]) == 1
            client.finish()
        finally:
            respawn_gate.set()
            sup.stop()

    def test_new_session_lands_on_respawned_worker(self, tmp_path, trace_path):
        """Sticky REbinding: once the slot is respawned, its ring range
        is its own again — a fresh connection for a sid homed there goes
        to the replacement process."""
        from repro.server import OracleSupervisor

        events = record_loop_trace(str(tmp_path / "again.pythia"))
        sock_path = str(tmp_path / "sup.sock")
        sup = OracleSupervisor(sock_path, workers=2, drain_deadline=1.0)
        sup.start()
        try:
            # a sid the ring homes on worker 0
            sid = next(
                f"rebind-{i}" for i in range(10_000)
                if sup.ring.route(f"rebind-{i}") == 0
            )
            victim_pid = sup._workers[0].proc.pid
            os.kill(victim_pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                w = sup._workers[0]
                if w.alive and w.proc.pid != victim_pid:
                    break
                time.sleep(0.05)
            client = PythiaClient(
                trace_path, socket=sock_path, retry=FAST_RETRY, session_id=sid
            )
            for name, payload in events[:10]:
                client.event(name, payload)
            assert client.worker == 0  # served by the replacement
            client.close()
        finally:
            sup.stop()


class TestPipelinedDrain:
    """Satellite: pipelined requests racing SIGTERM drain.

    Three guarantees, in stream order on one connection: pipelined ops
    the daemon dispatched before the drain gate complete normally; every
    later one is answered with a retryable ``shutting_down`` error *in
    its submit position*; and after a reconnect to a replacement daemon
    the ring-replay resync keeps the prediction stream byte-identical —
    refused ops never entered the ring, so nothing is double-observed.
    """

    def test_late_pipelined_ops_rejected_in_order_then_resync(self, tmp_path, trace_path):
        from repro.server.client import OracleServiceError

        events = record_loop_trace(str(tmp_path / "again.pythia"))
        sock_path = str(tmp_path / "oracle.sock")
        local = Pythia(trace_path, mode="predict")
        srv = OracleServer(sock_path, store=TraceStore()).start()
        client = PythiaClient(trace_path, socket=sock_path, retry=FAST_RETRY)
        try:
            # phase 1: a pipelined window completes before any drain
            with client.pipeline(window=64) as pipe:
                for name, payload in events[:30]:
                    pipe.submit(name, payload)
                settled = pipe.drain()
            local_head = [
                pred_key(local.event_and_predict(n, p)[1])
                for n, p in events[:30]
            ]
            assert [pred_key(p) for _, p in settled] == local_head
            assert client._proto_state == "binary"

            # phase 2: the daemon drains; late pipelined ops are refused
            # retryably, one reply per submit, in submit order
            srv.drain(deadline=5.0)
            assert srv.draining
            with client.pipeline(window=64) as pipe:
                for name, payload in events[30:50]:
                    pipe.submit(name, payload)
                rejected = pipe.drain()
            assert len(rejected) == 20
            for r in rejected:
                assert isinstance(r, OracleServiceError)
                assert r.code == "shutting_down"
            assert srv.counters["requests_rejected_draining"] >= 20
        finally:
            srv.stop()

        # phase 3: a replacement daemon on the same path; the client
        # reconnects, replays its ring (exactly the 30 confirmed events)
        # and the retried tail stays byte-identical with the local oracle
        srv2 = OracleServer(sock_path, store=TraceStore()).start()
        try:
            remote_tail = [
                pred_key(client.event_and_predict(n, p)[1])
                for n, p in events[30:60]
            ]
            local_tail = [
                pred_key(local.event_and_predict(n, p)[1])
                for n, p in events[30:60]
            ]
            assert remote_tail == local_tail
            assert not client.degraded
        finally:
            client.close()
            srv2.stop()

    def test_burst_racing_drain_has_monotone_cutover(self, tmp_path, trace_path):
        """A pipelined burst genuinely racing the drain gate: replies
        stay in order and flip from success to shutting_down exactly
        once — never interleaved, never dropped."""
        from repro.server.client import OracleServiceError

        events = record_loop_trace(str(tmp_path / "again.pythia"))
        sock_path = str(tmp_path / "oracle.sock")
        srv = OracleServer(sock_path, store=TraceStore()).start()
        client = PythiaClient(trace_path, socket=sock_path, retry=FAST_RETRY)
        results = []

        def burst():
            with client.pipeline(window=16) as pipe:
                for name, payload in events[:200]:
                    pipe.submit(name, payload)
                results.extend(pipe.drain())

        try:
            t = threading.Thread(target=burst)
            t.start()
            time.sleep(0.01)  # let some windows through
            srv.drain(deadline=30.0)
            t.join(timeout=30)
            assert not t.is_alive()
            assert len(results) == 200
            flips = 0
            for prev, cur in zip(results, results[1:]):
                prev_err = isinstance(prev, OracleServiceError)
                cur_err = isinstance(cur, OracleServiceError)
                if prev_err != cur_err:
                    assert cur_err and not prev_err, "success after cutover"
                    flips += 1
            assert flips <= 1
            for r in results:
                if isinstance(r, OracleServiceError):
                    assert r.code == "shutting_down"
        finally:
            client.close()
            srv.stop()


class TestPipelineTransportFailure:
    """A transport failure mid-window keeps the confirmed prefix.

    The replies read before the cut stay in ``results``, the unanswered
    submissions are gone, and the ring holds exactly the confirmed
    events — so the reconnect that follows replays what the client saw
    confirmed and the stream stays byte-identical with in-process.
    """

    def test_cut_mid_window_keeps_confirmed_prefix(self, tmp_path, trace_path):
        from repro.server.client import OracleServiceError

        sock_path = str(tmp_path / "oracle.sock")
        proxy_path = str(tmp_path / "proxy.sock")
        events = record_loop_trace(str(tmp_path / "again.pythia"))
        local = Pythia(trace_path, mode="predict")
        with OracleServer(sock_path, store=TraceStore()) as _srv, \
                FaultyTransport(sock_path, proxy_path) as proxy:
            client = PythiaClient(
                trace_path, socket=proxy_path, timeout=1.0, retry=FAST_RETRY
            )
            with pytest.raises(OracleServiceError) as exc_info:
                with client.pipeline(window=32) as pipe:
                    # the session is open: cut the 6th reply of the window
                    proxy.cut_mid_reply(proxy.replies_forwarded + 6)
                    for name, payload in events[:16]:
                        pipe.submit(name, payload)
                    pipe.drain()
            assert exc_info.value.code == "unavailable"
            assert proxy.cuts == 1
            expected = [
                (m, pred_key(p))
                for m, p in (local.event_and_predict(n, q) for n, q in events[:5])
            ]
            assert [(m, pred_key(p)) for m, p in pipe.results] == expected
            assert list(client._rings[0]) == events[:5]
            for i, (name, payload) in enumerate(events[5:40]):
                lm, lp = local.event_and_predict(name, payload, distance=2)
                cm, cp = client.event_and_predict(name, payload, distance=2)
                assert (lm, pred_key(lp)) == (cm, pred_key(cp)), i
            # one fresh session, resynchronised from the confirmed prefix
            resyncs = [e for e in client._flight.entries()
                       if e.get("message") == "resync"]
            assert [e["replayed"] for e in resyncs] == [5]
            # the connection the pipeline lost was replaced once, by the
            # next call, outside any request retry
            assert client.counters["reconnects"] == 1
            assert not client.degraded
            client.finish()
