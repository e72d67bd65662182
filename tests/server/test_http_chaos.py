"""The HTTP observability endpoint under load, drain and crashes.

Acceptance for the always-on observability plane:

- ``/metrics`` on a live daemon matches the ``metrics`` op
  sample-for-sample, modulo the time-dependent families (process CPU,
  session ages) and the scrape counter the endpoint itself adds;
- concurrent scrapes ride through a drain: ``/ready`` flips to 503 the
  moment draining starts while ``/metrics`` keeps answering 200 — load
  balancers stop routing, dashboards keep watching;
- kill -9 a worker of a supervised tier: the restart becomes visible
  to Prometheus as ``pythia_worker_restarts_total`` on the merged page;
- slowloris and malformed clients occupy at most their own connection —
  the accept loop keeps serving everyone else, and the stalled socket
  is dropped at the request timeout.
"""

from __future__ import annotations

import http.client
import os
import signal
import socket as socket_mod
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.httpd import ObservabilityHTTPServer
from repro.obs.metrics import parse_prometheus_text
from repro.server import OracleServer, OracleSupervisor, PythiaClient, TraceStore
from tests.server.test_chaos import record_loop_trace

#: families whose values legitimately differ between two scrapes taken
#: milliseconds apart: clocks, CPU and fd churn, and the scrape counter
#: only the HTTP endpoint maintains
VOLATILE = (
    "pythia_process_",
    "pythia_http_requests_total",
    "pythia_session_age_seconds",
)


def volatile(name: str) -> bool:
    return name.startswith(VOLATILE)


def flat(text: str) -> dict[tuple, float]:
    return {
        (name, tuple(sorted(labels.items()))): value
        for name, labels, value in parse_prometheus_text(text).samples
    }


def fetch(url: str, timeout: float = 10.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode()


@pytest.fixture
def fresh_registry():
    """A private process registry so counters start from zero."""
    prev = obs_metrics.get_registry()
    reg = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    yield reg
    obs_metrics.set_registry(prev)


@pytest.fixture
def daemon(tmp_path, fresh_registry):
    sock = str(tmp_path / "oracle.sock")
    with OracleServer(sock, store=TraceStore(capacity=4)) as srv, \
            ObservabilityHTTPServer(srv) as httpd:
        yield srv, httpd


class TestDaemonParity:
    def test_metrics_page_matches_metrics_op(self, tmp_path, daemon):
        srv, httpd = daemon
        trace = str(tmp_path / "ref.pythia")
        events = record_loop_trace(trace)
        with PythiaClient(trace, socket=srv.socket_path) as client:
            for name, payload in events[:60]:
                client.event_and_predict(name, payload)
            op_page = srv.admin({"op": "metrics"})["text"]  # the `metrics` op
            _, http_page = fetch(httpd.url + "/metrics")
        op_samples, http_samples = flat(op_page), flat(http_page)
        stable_op = {k: v for k, v in op_samples.items() if not volatile(k[0])}
        stable_http = {k: v for k, v in http_samples.items() if not volatile(k[0])}
        assert stable_op == stable_http  # sample-for-sample, value-for-value
        # the volatile families differ only in value, never in identity
        assert {k for k in op_samples if volatile(k[0])} <= set(http_samples)
        assert any(k[0] == "pythia_server_requests_total" for k in stable_op)

    def test_sessions_and_stats_match_the_ops(self, tmp_path, daemon):
        srv, httpd = daemon
        trace = str(tmp_path / "ref.pythia")
        events = record_loop_trace(trace)
        import json

        with PythiaClient(trace, socket=srv.socket_path,
                          session_id="http-parity") as client:
            client.event(*events[0])
            sessions = json.loads(fetch(httpd.url + "/sessions.json")[1])
            stats = json.loads(fetch(httpd.url + "/stats.json")[1])
        assert any(r["sid"] == "http-parity" for r in sessions["sessions"])
        assert stats["sessions_active"] >= 1 and "store" in stats


class TestDrain:
    def test_scrapes_ride_through_a_drain(self, daemon):
        srv, httpd = daemon
        assert fetch(httpd.url + "/ready")[0] == 200
        codes: list[tuple[int, int]] = []  # (ready_code, metrics_code)
        stop = threading.Event()

        def scraper():
            while not stop.is_set():
                try:
                    ready = urllib.request.urlopen(
                        httpd.url + "/ready", timeout=5.0
                    ).status
                except urllib.error.HTTPError as err:
                    ready = err.code
                metrics = urllib.request.urlopen(
                    httpd.url + "/metrics", timeout=5.0
                ).status
                codes.append((ready, metrics))

        threads = [threading.Thread(target=scraper, daemon=True)
                   for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.1)
        srv.drain(1.0)
        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        assert codes, "scrapers never completed a round"
        # metrics NEVER failed; readiness flipped 200 -> 503 and stayed
        assert all(m == 200 for _r, m in codes)
        assert codes[0][0] == 200 or any(r == 200 for r, _m in codes)
        assert codes[-1][0] == 503
        assert fetch(httpd.url + "/healthz")[0] == 200  # still alive


class TestSupervisedTier:
    def test_worker_kill9_restart_visible_in_metrics(self, tmp_path,
                                                     fresh_registry):
        trace = str(tmp_path / "ref.pythia")
        record_loop_trace(trace)
        sock = str(tmp_path / "sup.sock")
        sup = OracleSupervisor(sock, workers=2, drain_deadline=1.0)
        sup.start()
        httpd = ObservabilityHTTPServer(sup, registry=sup._registry)
        httpd.start()
        try:
            page = fetch(httpd.url + "/metrics")[1]
            parsed = parse_prometheus_text(page)
            restarts = {
                labels["worker"]: value
                for labels, value in parsed.series("pythia_worker_restarts_total")
            }
            assert restarts == {"0": 0.0, "1": 0.0}
            victim_pid = sup._workers[0].proc.pid
            os.kill(victim_pid, signal.SIGKILL)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                parsed = parse_prometheus_text(fetch(httpd.url + "/metrics")[1])
                up = dict(
                    (labels["worker"], value)
                    for labels, value in parsed.series("pythia_worker_up")
                )
                restarts = dict(
                    (labels["worker"], value)
                    for labels, value in parsed.series(
                        "pythia_worker_restarts_total")
                )
                if restarts.get("0") == 1.0 and up.get("0") == 1.0:
                    break
                time.sleep(0.1)
            assert restarts["0"] == 1.0  # the crash is on the scrape page
            assert up == {"0": 1.0, "1": 1.0}  # and the slot is back
            # readiness reported the full complement again
            assert fetch(httpd.url + "/ready")[1].strip().endswith("(2/2 workers)")
        finally:
            httpd.stop()
            sup.stop()

    def test_ready_503_while_tier_drains(self, tmp_path, fresh_registry):
        trace = str(tmp_path / "ref.pythia")
        record_loop_trace(trace)
        sock = str(tmp_path / "sup.sock")
        sup = OracleSupervisor(sock, workers=2, drain_deadline=1.0)
        sup.start()
        httpd = ObservabilityHTTPServer(sup, registry=sup._registry)
        httpd.start()
        try:
            assert fetch(httpd.url + "/ready")[0] == 200
            drainer = threading.Thread(target=sup.drain, daemon=True)
            drainer.start()  # sets the draining flag, then waits workers out
            deadline = time.monotonic() + 10.0
            code = 200
            while code == 200 and time.monotonic() < deadline:
                try:
                    code = fetch(httpd.url + "/ready")[0]
                except urllib.error.HTTPError as err:
                    code = err.code
            assert code == 503
            drainer.join(timeout=15.0)
        finally:
            httpd.stop()
            sup.stop()


class TestHostileClients:
    def test_slowloris_does_not_wedge_the_endpoint(self, daemon):
        _srv, httpd = daemon
        host, port = httpd.address
        stalled = socket_mod.create_connection((host, port), timeout=5.0)
        try:
            # half a request line, then silence: the handler thread
            # blocks in readline under its socket timeout, nobody else
            stalled.sendall(b"GET /metr")
            for _ in range(5):
                status, body = fetch(httpd.url + "/metrics", timeout=5.0)
                assert status == 200 and "pythia_server" in body
        finally:
            stalled.close()

    def test_stalled_connection_dropped_at_timeout(self, tmp_path,
                                                   fresh_registry):
        sock = str(tmp_path / "oracle.sock")
        with OracleServer(sock, store=TraceStore()) as srv, \
                ObservabilityHTTPServer(srv, request_timeout=0.3) as httpd:
            host, port = httpd.address
            stalled = socket_mod.create_connection((host, port), timeout=5.0)
            try:
                stalled.sendall(b"GET /metrics HTTP/1.1\r\n")  # no final CRLF
                stalled.settimeout(5.0)
                # the server closes the connection at its 0.3 s timeout
                assert stalled.recv(1024) == b""
            finally:
                stalled.close()
            assert fetch(httpd.url + "/healthz")[0] == 200

    def test_malformed_requests_answered_or_dropped(self, daemon):
        _srv, httpd = daemon
        host, port = httpd.address
        for garbage in (b"\x00\x01\x02\xff\r\n\r\n",
                        b"BOGUS /metrics HTTP/1.1\r\n\r\n",
                        b"GET\r\n\r\n"):
            sock = socket_mod.create_connection((host, port), timeout=5.0)
            try:
                sock.sendall(garbage)
                sock.settimeout(5.0)
                try:
                    sock.recv(4096)  # error reply or clean close: both fine
                except OSError:
                    pass
            finally:
                sock.close()
        # after all that abuse the endpoint still answers correctly
        status, body = fetch(httpd.url + "/metrics")
        assert status == 200
        assert parse_prometheus_text(body).value(
            "pythia_server_sessions_active") is not None

    def test_many_concurrent_scrapes(self, daemon):
        _srv, httpd = daemon
        errors: list[Exception] = []

        def hammer():
            try:
                conn = http.client.HTTPConnection(*httpd.address, timeout=10.0)
                for _ in range(10):  # keep-alive: one conn, many requests
                    conn.request("GET", "/metrics")
                    resp = conn.getresponse()
                    body = resp.read()
                    assert resp.status == 200 and b"pythia_server" in body
                conn.close()
            except Exception as exc:  # surfaced to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not errors
