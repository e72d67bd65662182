"""Admin ops refuse alike on both roles, and over HTTP with defined statuses.

A daemon and a supervisor check ``profile_dump``'s and ``history``'s
arguments with one function each, so a request one refuses the other
refuses with the same code; a supervisor whose workers all refuse a
valid op with one code refuses with it too.  The HTTP endpoint maps a
refusal to 400 (``bad_request``), 500 (``internal``) or 503 (the
service cannot answer a valid op: the profiler or the history ring is
off), with the ``{"code", "error"}`` as JSON.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import profiler as obs_profiler
from repro.obs.httpd import ObservabilityHTTPServer
from repro.server import OracleServer, OracleSupervisor, TraceStore, admin_request

BAD_REQUESTS = [
    {"op": "profile_dump", "hz": -1},
    {"op": "profile_dump", "seconds": 61},
    {"op": "profile_dump", "format": "flame"},
    {"op": "history", "window": -5},
    {"op": "history", "keys": "x"},
]


@pytest.fixture(scope="module")
def both_roles(tmp_path_factory):
    """A daemon with its history ring on, and a 1-worker supervisor."""
    root = tmp_path_factory.mktemp("roles")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("PYTHIA_HISTORY", raising=False)
        store = TraceStore(capacity=2)
        with OracleServer(str(root / "daemon.sock"), store=store) as srv, \
                OracleSupervisor(str(root / "sup.sock"), workers=1) as sup:
            assert srv.history is not None
            yield srv, sup


@pytest.mark.parametrize(
    "request_", BAD_REQUESTS, ids=[json.dumps(r, sort_keys=True) for r in BAD_REQUESTS]
)
def test_daemon_and_supervisor_refuse_alike(both_roles, request_):
    srv, sup = both_roles
    daemon_reply = admin_request(srv.socket_path, request_)
    supervisor_reply = admin_request(sup.socket_path, request_)
    assert daemon_reply["ok"] is False and supervisor_reply["ok"] is False
    assert supervisor_reply["code"] == daemon_reply["code"] == "bad_request"


def http_refusal(url: str) -> tuple[int, dict]:
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(url, timeout=10.0)
    return err.value.code, json.loads(err.value.read().decode())


@pytest.fixture
def served_daemon(tmp_path, monkeypatch):
    def start(**env):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        srv = OracleServer(str(tmp_path / "oracle.sock"), store=TraceStore(capacity=2))
        httpd = ObservabilityHTTPServer(srv)
        started.append((srv.start(), httpd.start()))
        return srv, httpd

    started: list = []
    yield start
    for srv, httpd in started:
        httpd.stop()
        srv.stop()


def test_profiler_off_is_503(served_daemon):
    assert obs_profiler.get_profiler() is None
    _srv, httpd = served_daemon(PYTHIA_PROFILE_HZ="0")
    status, body = http_refusal(httpd.url + "/profile")
    assert status == 503 and body["code"] == "profiler_off"
    status, body = http_refusal(httpd.url + "/profile?format=flame")
    assert status == 400 and body["code"] == "bad_request"


def test_history_off_is_503(served_daemon):
    srv, httpd = served_daemon(PYTHIA_HISTORY="0")
    assert srv.history is None
    status, body = http_refusal(httpd.url + "/history.json")
    assert status == 503 and body["code"] == "history_off"


def test_bad_history_window_is_400(served_daemon):
    _srv, httpd = served_daemon()
    status, body = http_refusal(httpd.url + "/history.json?window=-5")
    assert status == 400 and body["code"] == "bad_request"


def test_supervisor_passes_a_unanimous_refusal_through(tmp_path, monkeypatch):
    """With every worker's profiler and history ring off, a 1-worker
    supervisor refuses as a daemon does, over frames and over HTTP."""
    monkeypatch.setenv("PYTHIA_PROFILE_HZ", "0")
    monkeypatch.setenv("PYTHIA_HISTORY", "0")
    with OracleSupervisor(str(tmp_path / "sup.sock"), workers=1) as sup:
        profile = admin_request(sup.socket_path, {"op": "profile_dump", "seconds": 0})
        assert profile["ok"] is False and profile["code"] == "profiler_off"
        history = admin_request(sup.socket_path, {"op": "history"})
        assert history["ok"] is False and history["code"] == "history_off"
        httpd = ObservabilityHTTPServer(sup).start()
        try:
            status, body = http_refusal(httpd.url + "/history.json")
            assert status == 503 and body["code"] == "history_off"
            status, body = http_refusal(httpd.url + "/profile")
            assert status == 503 and body["code"] == "profiler_off"
        finally:
            httpd.stop()
