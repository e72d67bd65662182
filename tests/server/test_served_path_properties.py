"""Generated scripts through every served path of the oracle.

The scripts of ``tests/core/test_path_equivalence_properties.py`` (a
recorded stream, replayed with observes, fused observe+predicts,
predicts at distances 1..20, out-of-order and never-recorded events)
run against one in-process oracle and through a daemon:

- a JSON client and a binary client: every answer bit-equal to the
  in-process one, and ``stats()`` equal at the end;
- the script's event steps as fused ``pipeline()`` submissions, against
  in-process ``event_and_predict`` with the same arguments;
- a binary client with ``resync_window=None`` behind a
  :class:`~repro.runtime.faults.FaultyTransport` that drops the
  connection at a drawn step, so the client reconnects once and replays
  its whole history mid-script — answers still bit-equal.

Terminal ``t`` of a stream is the event ``ev{t}`` with payload
``(t,)``, as ``write_trace_file`` records it.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.oracle import Pythia
from repro.runtime.faults import FaultyTransport
from repro.server.client import PythiaClient, RetryPolicy
from repro.server.daemon import OracleServer
from repro.server.store import TraceStore
from tests.core.test_mmap_grammar import write_trace_file
from tests.core.test_path_equivalence_properties import _answer, scripts

#: reconnects at once; a client that would degrade raises instead
FAST_RETRY = RetryPolicy(
    max_retries=5, backoff_base=0.001, backoff_cap=0.01, jitter=0.0, deadline=10.0
)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """One daemon, and a fault proxy in front of it, for every example."""
    base = tmp_path_factory.mktemp("served")
    sock = str(base / "oracle.sock")
    with OracleServer(sock, store=TraceStore(capacity=4)) as server, \
            FaultyTransport(sock, str(base / "proxy.sock")) as proxy:
        yield server, proxy


def _event(terminal: int) -> tuple[str, tuple]:
    return f"ev{terminal}", (terminal,)


def _call(oracle, op):
    """One script step against the facade (in-process or client)."""
    kind = op[0]
    if kind in ("observe", "out_of_order"):
        return oracle.event(*_event(op[1]))
    if kind == "never_recorded":
        return oracle.event("never_recorded")
    if kind == "predict":
        return oracle.predict(op[1], with_time=op[2])
    _kind, terminal, distance, with_time, require_match = op
    return oracle.event_and_predict(
        *_event(terminal), distance=distance, with_time=with_time,
        require_match=require_match,
    )


def _fused_args(op) -> tuple[str, object, dict] | None:
    """An event step as fused-call arguments; None for a predict step."""
    kind = op[0]
    if kind == "predict":
        return None
    if kind == "never_recorded":
        return "never_recorded", None, {}
    name, payload = _event(op[1])
    if kind != "fused":
        return name, payload, {}
    return name, payload, {"distance": op[2], "with_time": op[3], "require_match": op[4]}


def _replay(oracle, script) -> list:
    return [_answer(_call(oracle, op)) for op in script]


@given(case=scripts(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_served_paths_answer_like_in_process(daemon, case, data):
    server, proxy = daemon
    stream, script = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        write_trace_file(path, stream, timestamps=True)

        local = Pythia(path, mode="predict")
        expected = _replay(local, script)
        for protocol in ("json", "binary"):
            client = PythiaClient(
                path, socket=server.socket_path, protocol=protocol,
                retry=FAST_RETRY, fallback="raise",
            )
            try:
                assert _replay(client, script) == expected, protocol
                assert client._proto_state == protocol
                assert client.stats() == local.stats(), protocol
            finally:
                client.finish()

        # the event steps, fused and pipelined
        steps = [args for args in map(_fused_args, script) if args is not None]
        fused = Pythia(path, mode="predict")
        expected = [
            _answer(fused.event_and_predict(name, payload, **kw))
            for name, payload, kw in steps
        ]
        client = PythiaClient(
            path, socket=server.socket_path, retry=FAST_RETRY, fallback="raise"
        )
        try:
            with client.pipeline(window=data.draw(st.integers(1, 8), label="window")) as pipe:
                for name, payload, kw in steps:
                    pipe.submit(name, payload, **kw)
                results = pipe.drain()
            assert [_answer(r) for r in results] == expected
        finally:
            client.finish()

        # one connection drop mid-script: reconnect, full-history replay
        cut = data.draw(st.integers(1, len(script) - 1), label="cut")
        client = PythiaClient(
            path, socket=proxy.listen_path, protocol="binary",
            resync_window=None, retry=FAST_RETRY, fallback="raise",
        )
        try:
            answers = _replay(client, script[:cut])
            proxy.kill_all()
            answers += _replay(client, script[cut:])
            assert answers == _replay(Pythia(path, mode="predict"), script)
            assert client.counters["reconnects"] == 1
            assert not client.degraded
        finally:
            client.finish()
