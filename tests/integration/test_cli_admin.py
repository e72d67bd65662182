"""The CLI's admin verbs against a live daemon and a live supervisor.

``pythia-trace metrics|sessions|top|profile`` send each request on an
admin connection of its own (:func:`repro.server.admin_request`).  Each
verb runs in process against a single daemon and against a 1-worker
supervisor, whose answers are the tier's merged view, and against a
socket nobody listens on, where it exits 1 with ``error:`` on stderr.
The verbs also hold under ``PYTHIA_METRICS=0``, where a daemon's
metrics page is empty.
"""

from __future__ import annotations

import json

import pytest

from repro import Pythia
from repro.cli import main
from repro.obs import metrics as obs_metrics
from repro.server import OracleServer, OracleSupervisor, PythiaClient, TraceStore

STEP = [("post_recv", 1), ("compute", None), ("allreduce", "SUM")]
SID = "cli-admin"


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli-admin") / "loop.pythia")
    oracle = Pythia(path, mode="record")
    for _ in range(20):
        for name, payload in STEP:
            oracle.event(name, payload)
    oracle.finish()
    return path


@pytest.fixture(scope="module", params=["daemon", "supervisor"])
def served(request, trace_path, tmp_path_factory):
    """``(role, socket)`` of a live daemon or 1-worker supervisor that
    serves one open client session."""
    sock = str(tmp_path_factory.mktemp(request.param) / "oracle.sock")
    if request.param == "daemon":
        server = OracleServer(sock, store=TraceStore(capacity=2))
    else:
        server = OracleSupervisor(sock, workers=1, drain_deadline=1.0)
    with server:
        client = PythiaClient(trace_path, socket=sock, session_id=SID, fallback="raise")
        for name, payload in STEP * 3:
            client.event(name, payload)
        yield request.param, sock
        client.finish()


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_metrics(served, capsys):
    role, sock = served
    code, out, err = run(capsys, "metrics", "--socket", sock)
    assert code == 0 and err == ""
    if role == "supervisor":
        # the merged page labels samples by worker; the supervisor's own
        # pythia_worker_* gauges are there even under the null registry
        assert 'pythia_worker_up{worker="0"}' in out
    elif obs_metrics.metrics_enabled():
        assert "pythia_server_requests_total" in out


def test_sessions_json(served, capsys):
    role, sock = served
    code, out, err = run(capsys, "sessions", "--json", "--socket", sock)
    assert code == 0 and err == ""
    table = json.loads(out)
    assert "ok" not in table
    (row,) = [r for r in table["sessions"] if r["sid"] == SID]
    assert row["requests"] >= len(STEP) * 3
    if role == "supervisor":
        assert row["worker"] == 0 and table["workers"] == [0]


def test_top_once(served, capsys):
    _role, sock = served
    code, out, err = run(capsys, "top", "--once", "--socket", sock)
    assert code == 0 and err == ""
    assert f"pythia ops — {sock}" in out and "unreachable" not in out


def test_profile_window(served, tmp_path, capsys):
    role, sock = served
    path = tmp_path / "stacks.txt"
    code, out, err = run(
        capsys, "profile", "--seconds", "0.2", "-o", str(path), "--socket", sock
    )
    assert code == 0 and err == ""
    assert out.startswith(f"wrote {path} (collapsed, ")
    if role == "supervisor":
        lines = path.read_text().splitlines()
        assert all(line.startswith("worker 0;") for line in lines)


@pytest.mark.parametrize(
    "verb",
    [["metrics"], ["sessions", "--json"], ["top", "--once"],
     ["profile", "--seconds", "0.2"]],
    ids=lambda verb: verb[0],
)
def test_unreachable_daemon_exits_1(verb, tmp_path, capsys):
    code, out, err = run(capsys, *verb, "--socket", str(tmp_path / "nobody.sock"))
    assert code == 1
    assert err.startswith("error:")
    assert "No such file or directory" in err  # the cause, not just the failure
