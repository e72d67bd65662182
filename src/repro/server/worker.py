"""Worker process of the multi-worker oracle daemon.

Run as ``python -m repro.server.worker`` by
:class:`~repro.server.supervisor.OracleSupervisor` — never by hand.
Each worker is a full :class:`~repro.server.daemon.OracleServer` in its
own process (its own GIL, its own metrics registry, its own
session/tracker state) that receives work over two inherited socket
pairs instead of a listener:

- the **connection channel**: client connections the supervisor
  accepted and routed here arrive as file descriptors over
  ``SCM_RIGHTS`` (:func:`socket.recv_fds`); each is adopted into the
  server's event loop;
- the **RPC channel**: supervisor-originated control requests
  (``metrics`` / ``sessions`` / ``stats`` / ``ping`` / ``drain``) in
  the regular frame protocol, answered inline — this is how the
  supervisor aggregates per-worker telemetry into one exposition.

Grammar sharing: the worker's :class:`~repro.server.store.TraceStore`
runs with ``use_mmap=True``, so all workers of a host map one compiled
artifact per trace (compiled exactly once under the artifact lock)
instead of each parsing the JSON trace.

Shutdown: SIGTERM (or either channel reaching EOF — the supervisor
died) drains the server within the configured deadline, then exits.
The supervisor restarts workers that exit unexpectedly; clients ride
through either via their reconnect/resync layer.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading

from repro.obs.log import get_logger
from repro.obs.metrics import render_prometheus
from repro.obs.profiler import profiler_from_env
from repro.server.daemon import OracleServer, RequestError
from repro.server.protocol import ProtocolError, read_frame, write_frame
from repro.server.store import TraceStore

_log = get_logger("worker")

#: ops the supervisor may issue over the RPC channel
RPC_OPS = frozenset({"metrics", "sessions", "stats", "ping", "drain",
                     "profile", "history"})


def _handle_rpc(server: OracleServer, request: dict, stop: threading.Event) -> dict:
    op = request.get("op")
    try:
        if op == "metrics":
            return {"ok": True, "metrics": render_prometheus()}
        if op == "sessions":
            return {"ok": True, **server._op_sessions(request, 0)}
        if op == "stats":
            return {"ok": True, **server._op_stats({}, 0)}
        if op == "profile":
            # collapsed text only: the supervisor merges per-worker
            # stacks itself before rendering a tier-wide flamegraph
            return {"ok": True, **server._op_profile_dump(
                {"seconds": request.get("seconds", 0), "format": "collapsed",
                 "hz": request.get("hz", 0)}, 0)}
        if op == "history":
            return {"ok": True, **server._op_history(request, 0)}
        if op == "ping":
            return {"ok": True, "pong": True, "worker": server.worker_id,
                    "pid": os.getpid()}
        if op == "drain":
            stop.set()
            return {"ok": True, "draining": True}
        return {"ok": False, "code": "bad_request", "error": f"unknown rpc op {op!r}"}
    except RequestError as exc:
        return {"ok": False, "code": exc.code, "error": str(exc)}
    except Exception as exc:  # never let one RPC kill the channel
        return {"ok": False, "code": "internal", "error": str(exc)}


def _rpc_loop(server: OracleServer, chan: socket.socket, stop: threading.Event) -> None:
    while not stop.is_set():
        try:
            request = read_frame(chan)
        except (ProtocolError, OSError):
            break
        if request is None:
            break  # supervisor closed its end: time to go
        try:
            write_frame(chan, _handle_rpc(server, request, stop))
        except OSError:
            break
    stop.set()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pythia oracle worker (internal)")
    parser.add_argument("--worker-id", type=int, required=True)
    parser.add_argument("--conn-fd", type=int, required=True,
                        help="socketpair fd receiving routed connection fds")
    parser.add_argument("--rpc-fd", type=int, required=True,
                        help="socketpair fd for supervisor control requests")
    parser.add_argument("--cache-size", type=int, default=8)
    parser.add_argument("--drain-deadline", type=float, default=5.0)
    parser.add_argument("--no-mmap", action="store_true",
                        help="parse JSON traces instead of mapping artifacts")
    args = parser.parse_args(argv)

    store = TraceStore(capacity=args.cache_size, use_mmap=not args.no_mmap)
    server = OracleServer(store=store, worker_id=args.worker_id)
    server.start()
    # long-lived daemon process: continuous profiling on by default
    # (19 Hz; PYTHIA_PROFILE_HZ=0 opts out, any other value overrides)
    profiler_from_env(default_hz=19.0)

    conn_chan = socket.socket(fileno=args.conn_fd)
    rpc_chan = socket.socket(fileno=args.rpc_fd)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_sig: stop.set())
    # Ctrl-C in a foreground `serve --workers N` hits the whole process
    # group; shutdown is the supervisor's job (drain RPC, then SIGTERM),
    # so a worker must not die mid-recv_fds with a KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    rpc_thread = threading.Thread(
        target=_rpc_loop, args=(server, rpc_chan, stop),
        name="pythia-worker-rpc", daemon=True,
    )
    rpc_thread.start()
    _log.info("worker_started", worker=args.worker_id, pid=os.getpid(),
              mmap=not args.no_mmap)

    conn_chan.settimeout(0.25)  # poll the stop flag between deliveries
    try:
        while not stop.is_set():
            try:
                msg, fds, _flags, _addr = socket.recv_fds(conn_chan, 1, 1)
            except TimeoutError:
                continue
            except OSError:
                break
            if not msg and not fds:
                break  # supervisor closed the channel
            for fd in fds:
                try:
                    server.adopt(socket.socket(fileno=fd))
                except (OSError, RuntimeError):
                    try:
                        os.close(fd)
                    except OSError:
                        pass
    finally:
        _log.info("worker_draining", worker=args.worker_id)
        server.drain(args.drain_deadline)
        server.stop()
        for chan in (conn_chan, rpc_chan):
            try:
                chan.close()
            except OSError:
                pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
