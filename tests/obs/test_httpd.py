"""HTTP observability endpoint against a stub provider.

Daemon/supervisor integration (parity with the ``metrics`` op, drain
behaviour, worker crashes) lives in ``tests/server/test_http_chaos.py``;
here the routes, counters and failure handling are exercised in
isolation through the provider interface.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.httpd import PROMETHEUS_CONTENT_TYPE, ObservabilityHTTPServer
from repro.obs.metrics import MetricsRegistry, parse_prometheus_text


class StubProvider:
    """Minimal provider: canned replies, scriptable readiness."""

    def __init__(self):
        self.ready = (True, "ready")
        self.profile_calls = []

    def admin(self, request):
        op = request["op"]
        if op == "metrics":
            return {"ok": True, "text": "# TYPE stub_total counter\nstub_total 7\n"}
        if op == "sessions":
            return {"ok": True, "tracked": 2, "sessions": [{"sid": "cAAA"}]}
        if op == "stats":
            return {"ok": True, "sessions": 2}
        if op == "profile_dump":
            fmt = request["format"]
            if fmt not in ("collapsed", "svg"):
                return {"ok": False, "code": "bad_request", "error": "bad format"}
            self.profile_calls.append((request["seconds"], fmt, request["hz"]))
            body = "<svg>x</svg>" if fmt == "svg" else "main;op:ping 3\n"
            return {"ok": True, "format": fmt, "profile": body,
                    "report": {"samples": 3}}
        assert op == "history"
        return {"ok": True, "history": {
            "window": request["window"], "keys": request["keys"],
            "rates": {"stub_total": 1.5},
        }}

    def readiness(self):
        return self.ready


@pytest.fixture
def served():
    provider = StubProvider()
    registry = MetricsRegistry()
    server = ObservabilityHTTPServer(provider, registry=registry)
    with server:
        yield provider, registry, server


def fetch(server, path, timeout=5.0):
    with urllib.request.urlopen(server.url + path, timeout=timeout) as resp:
        return resp.status, dict(resp.headers), resp.read().decode()


class TestRoutes:
    def test_index_lists_routes(self, served):
        _, _, server = served
        status, _, body = fetch(server, "/")
        assert status == 200
        for route in ("/metrics", "/healthz", "/ready", "/profile"):
            assert route in body

    def test_metrics_content_type_and_body(self, served):
        _, _, server = served
        status, headers, body = fetch(server, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert parse_prometheus_text(body).value("stub_total") == 7

    def test_healthz(self, served):
        _, _, server = served
        assert fetch(server, "/healthz")[0] == 200

    def test_ready_flips_to_503(self, served):
        provider, _, server = served
        assert fetch(server, "/ready")[0] == 200
        provider.ready = (False, "draining")
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(server, "/ready")
        assert err.value.code == 503
        assert "draining" in err.value.read().decode()

    def test_json_routes(self, served):
        _, _, server = served
        _, headers, body = fetch(server, "/sessions.json")
        assert headers["Content-Type"].startswith("application/json")
        assert json.loads(body)["tracked"] == 2
        assert json.loads(fetch(server, "/stats.json")[2]) == {"sessions": 2}

    def test_profile_params_clamped_and_forwarded(self, served):
        provider, _, server = served
        _, headers, body = fetch(server, "/profile?seconds=0&hz=50")
        assert "op:ping" in body
        assert headers["Content-Type"].startswith("text/plain")
        _, headers, body = fetch(server, "/profile?format=svg")
        assert headers["Content-Type"] == "image/svg+xml"
        assert body == "<svg>x</svg>"
        fetch(server, "/profile?seconds=9999")
        seconds = [call[0] for call in provider.profile_calls]
        assert max(seconds) == 60.0  # MAX_PROFILE_SECONDS ceiling

    def test_profile_bad_format_is_400(self, served):
        _, _, server = served
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(server, "/profile?format=flame")
        assert err.value.code == 400

    def test_history_query_parsing(self, served):
        _, _, server = served
        body = json.loads(fetch(server, "/history.json?window=60&keys=a,b")[2])
        assert body["window"] == 60.0
        assert body["keys"] == ["a", "b"]
        body = json.loads(fetch(server, "/history.json")[2])
        assert body["window"] is None
        assert body["keys"] is None

    def test_unknown_route_404_with_index(self, served):
        _, _, server = served
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(server, "/nope")
        assert err.value.code == 404
        assert "/metrics" in err.value.read().decode()


class TestCountersAndErrors:
    def test_scrape_counter_labels_path_and_code(self, served):
        _, registry, server = served
        fetch(server, "/metrics")
        fetch(server, "/metrics")
        fetch(server, "/healthz")
        with pytest.raises(urllib.error.HTTPError):
            fetch(server, "/bogus")

        def counts():
            return {
                (labels["path"], labels["code"]): inst.value
                for inst in registry.collect()
                if inst.name == "pythia_http_requests_total"
                for labels in [dict(inst.labels)]
            }

        # the client sees a reply a beat before the handler thread
        # increments the counter; poll briefly instead of racing it
        deadline = time.monotonic() + 2.0
        while ("other", "404") not in counts() and time.monotonic() < deadline:
            time.sleep(0.01)
        final = counts()
        assert final[("/metrics", "200")] == 2
        assert final[("/healthz", "200")] == 1
        assert final[("other", "404")] == 1

    def test_provider_exception_is_500_not_crash(self, served):
        provider, _, server = served
        provider.admin = lambda *_a: 1 / 0
        with pytest.raises(urllib.error.HTTPError) as err:
            fetch(server, "/history.json")
        assert err.value.code == 500
        # endpoint still alive afterwards
        assert fetch(server, "/healthz")[0] == 200


class TestRefusals:
    @pytest.mark.parametrize("code,status", [
        ("bad_request", 400), ("internal", 500),
        ("profiler_off", 503), ("history_off", 503),
    ])
    def test_refused_op_status_and_json_body(self, served, code, status):
        provider, _, server = served
        provider.admin = lambda _request: {"ok": False, "code": code, "error": "no"}
        for route in ("/metrics", "/sessions.json", "/stats.json", "/profile",
                      "/history.json"):
            with pytest.raises(urllib.error.HTTPError) as err:
                fetch(server, route)
            assert err.value.code == status
            assert err.value.headers["Content-Type"].startswith("application/json")
            body = json.loads(err.value.read().decode())
            assert body == {"code": code, "error": "no"}


class TestLifecycle:
    def test_ephemeral_port_and_url(self, served):
        _, _, server = served
        host, port = server.address
        assert host == "127.0.0.1"
        assert port > 0
        assert server.url == f"http://127.0.0.1:{port}"

    def test_stop_releases_port(self):
        server = ObservabilityHTTPServer(StubProvider(), registry=MetricsRegistry())
        server.start()
        _, port = server.address
        server.stop()
        probe = socket.socket()
        try:
            probe.bind(("127.0.0.1", port))  # free again
        finally:
            probe.close()
