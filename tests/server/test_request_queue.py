"""The client's request queue: what a pipeline and ``finish()`` put on the
wire, how pipelined replies are timed, and what an abandoned window
leaves behind."""

from __future__ import annotations

import pytest

from repro.core.oracle import Pythia
from repro.obs import metrics as obs_metrics
from repro.server.client import PythiaClient
from repro.server.daemon import OracleServer
from repro.server.store import TraceStore
from tests.server.test_chaos import pred_key, record_loop_trace

N = 20


@pytest.fixture
def trace(tmp_path):
    path = str(tmp_path / "ref.pythia")
    return path, record_loop_trace(path)


@pytest.fixture
def server(tmp_path):
    with OracleServer(str(tmp_path / "oracle.sock"), store=TraceStore()) as srv:
        yield srv


@pytest.fixture
def fresh_registry():
    """A private process registry, so timing counts start from zero."""
    prev = obs_metrics.get_registry()
    reg = obs_metrics.set_registry(obs_metrics.MetricsRegistry())
    yield reg
    obs_metrics.set_registry(prev)


def test_pipeline_sends_one_open_session_and_its_submissions(trace, server):
    path, events = trace
    before = server.counters["requests_total"]
    with PythiaClient(path, socket=server.socket_path) as client:
        with client.pipeline(window=8) as pipe:
            for name, payload in events[:N]:
                pipe.submit(name, payload)
            pipe.drain()
        assert server.counters["requests_total"] - before == N + 1


def test_pipelined_replies_are_timed(trace, server, fresh_registry):
    path, events = trace
    with PythiaClient(path, socket=server.socket_path) as client:
        with client.pipeline(window=8) as pipe:
            for name, payload in events[:N]:
                pipe.submit(name, payload)
        report = client.timing_report()
        assert report["observe_predict"]["total"]["count"] == N
        assert report["observe_predict"]["handler"]["count"] == N
        assert client.last_timing["op"] == "observe_predict"


def test_abandoned_window_is_never_sent(trace, server):
    """An exception inside the block drops the unsent submissions: the
    daemon never sees them, and the next call answers as if they were
    never made."""
    path, events = trace
    local = Pythia(path, mode="predict")
    with PythiaClient(path, socket=server.socket_path) as client:
        with pytest.raises(RuntimeError, match="host failure"):
            with client.pipeline(window=8) as pipe:
                for name, payload in events[:5]:
                    pipe.submit(name, payload)
                raise RuntimeError("host failure")
        assert pipe.results == []
        for name, payload in events[:10]:
            lm, lp = local.event_and_predict(name, payload)
            cm, cp = client.event_and_predict(name, payload)
            assert (lm, pred_key(lp)) == (cm, pred_key(cp))
        assert client.stats()["observed"] == 10
        assert client.counters["reconnects"] == 0


class _CountingSocket:
    """A socket proxy that counts ``sendall`` calls."""

    def __init__(self, sock) -> None:
        self.sock = sock
        self.sends = 0

    def sendall(self, data) -> None:
        self.sends += 1
        self.sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_finish_closes_every_session_in_one_flush(tmp_path, server):
    path = str(tmp_path / "threads.pythia")
    oracle = Pythia(path, mode="record", record_timestamps=False)
    for thread in range(3):
        for name, payload in [("a", None), ("b", thread)] * 8:
            oracle.event(name, payload, thread=thread)
    oracle.finish()
    client = PythiaClient(path, socket=server.socket_path)
    for thread in range(3):
        client.event("a", thread=thread)
    closed = server.counters["sessions_closed"]
    client._sock = counting = _CountingSocket(client._sock)
    client.finish()
    assert counting.sends == 1
    assert server.counters["sessions_closed"] - closed == 3
