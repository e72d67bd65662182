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
- the **control connection**: adopted into the event loop at start
  like any client connection.  The supervisor sends its control
  requests (``ping`` / ``metrics`` / ``stats`` / ``sessions`` /
  ``profile_dump`` / ``history``) on it, and :meth:`OracleServer.dispatch
  <repro.server.daemon.OracleServer.dispatch>` answers them with the
  daemon's own handlers and reply shapes — this is how the supervisor
  aggregates per-worker telemetry into one exposition.  Those requests
  count in the worker's request counters and ``{op, proto}``
  histograms, as admin requests do on a single daemon.

Grammar sharing: like every :class:`~repro.server.store.TraceStore`,
the worker's maps one compiled artifact per trace, so all workers of a
host share one compile (made once, under the artifact lock) and one
page-cache copy instead of each parsing the JSON trace.

Shutdown: SIGTERM (the supervisor's drain) or EOF on the connection
channel (the supervisor died) drains the server within the configured
deadline, then exits 0.  The supervisor restarts workers that exit
unexpectedly; clients ride through either via their reconnect/resync
layer.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import sys
import threading

from repro.obs.log import get_logger
from repro.obs.profiler import profiler_from_env
from repro.server.daemon import OracleServer
from repro.server.store import TraceStore

_log = get_logger("worker")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pythia oracle worker (internal)")
    parser.add_argument("--worker-id", type=int, required=True)
    parser.add_argument("--conn-fd", type=int, required=True,
                        help="socketpair fd receiving routed connection fds")
    parser.add_argument("--rpc-fd", type=int, required=True,
                        help="socketpair fd of the supervisor's control connection")
    parser.add_argument("--cache-size", type=int, default=8)
    parser.add_argument("--drain-deadline", type=float, default=5.0)
    args = parser.parse_args(argv)

    server = OracleServer(
        store=TraceStore(capacity=args.cache_size), worker_id=args.worker_id
    )
    server.start()
    # long-lived daemon process: continuous profiling on by default
    # (19 Hz; PYTHIA_PROFILE_HZ=0 opts out, any other value overrides)
    profiler_from_env(default_hz=19.0)

    conn_chan = socket.socket(fileno=args.conn_fd)
    server.adopt(socket.socket(fileno=args.rpc_fd))
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_sig: stop.set())
    # Ctrl-C in a foreground `serve --workers N` hits the whole process
    # group; shutdown is the supervisor's job (it SIGTERMs us), so a
    # worker must not die mid-recv_fds with a KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _log.info("worker_started", worker=args.worker_id, pid=os.getpid())

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
        conn_chan.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
