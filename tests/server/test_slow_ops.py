"""Slow ops in the daemon's event loop: each runs on a thread of its own.

An ``open_session`` may compile a trace and a ``profile_dump`` may
sample for a minute, so neither runs on the loop thread; each gets a
thread, so an open on one connection never queues behind an open on
another, and opens of one trace that overlap lean on the trace store's
stampede handling (one load, every other open waits for it).
"""

from __future__ import annotations

import sys
import time

from repro.core.mmap_grammar import ensure_artifact
from repro.server import OracleServer, TraceStore
from repro.server.protocol import read_frame, write_frame
from tests.server.test_chaos import raw_connect, record_loop_trace


def test_opens_on_different_connections_overlap(tmp_path):
    slow, fast = str(tmp_path / "slow.pythia"), str(tmp_path / "fast.pythia")
    record_loop_trace(slow)
    record_loop_trace(fast, repeats=3)
    ensure_artifact(fast)  # the fast open maps, it does not compile
    with OracleServer(str(tmp_path / "oracle.sock"), store=TraceStore()) as srv:
        get = srv.store.get

        def slow_get(path):
            if path == slow:
                time.sleep(1.0)
            return get(path)

        srv.store.get = slow_get
        a, b = raw_connect(srv.socket_path), raw_connect(srv.socket_path)
        try:
            write_frame(a, {"op": "open_session", "trace": slow})
            time.sleep(0.1)  # a's open is in flight
            t0 = time.monotonic()
            write_frame(b, {"op": "open_session", "trace": fast})
            assert read_frame(b)["ok"]
            assert time.monotonic() - t0 < 0.5  # not queued behind a's open
            assert read_frame(a)["ok"]
        finally:
            a.close()
            b.close()


def test_concurrent_opens_of_one_trace_load_it_once(tmp_path):
    trace = str(tmp_path / "ref.pythia")
    events = record_loop_trace(trace)
    prev = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with OracleServer(str(tmp_path / "oracle.sock"), store=TraceStore()) as srv:
            socks = [raw_connect(srv.socket_path) for _ in range(8)]
            try:
                for sock in socks:
                    write_frame(sock, {"op": "open_session", "trace": trace})
                replies = [read_frame(sock) for sock in socks]
                assert all(r["ok"] for r in replies)
                assert len({r["session"] for r in replies}) == len(socks)
                name, payload = events[0]
                for sock, reply in zip(socks, replies):
                    write_frame(sock, {"op": "observe", "session": reply["session"],
                                       "name": name, "payload": payload})
                    assert read_frame(sock)["ok"]
            finally:
                for sock in socks:
                    sock.close()
            snap = srv.store.snapshot()
            assert (snap["misses"], snap["hits"]) == (1, len(socks) - 1)
            assert snap["artifact_compiles"] == 1
            deadline = time.monotonic() + 5.0
            while srv._loop._slow and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not srv._loop._slow  # every open's thread finished
    finally:
        sys.setswitchinterval(prev)
