#!/usr/bin/env python
"""Operations: tracing one request end to end, then watching the fleet.

Every request a :class:`PythiaClient` sends carries a tracing context —
a client-lifetime session id plus a monotonically increasing request id
— and every reply carries the daemon's server-side timing (time spent
queued between socket and handler, time inside the handler).  The
client subtracts both from the round trip it observed: what remains is
the wire.  That decomposition is visible live (``client.last_timing``,
``client.timing_report()``), per session on the daemon (the
``sessions`` op / ``pythia-trace sessions``), on a console
(``pythia-trace top``) and offline (``pythia-trace analyze`` over
dumped span journals).

This script:

1. records a reference trace and starts a daemon on a Unix socket;
2. drives two client "applications" with distinct session ids through
   the same reference run;
3. prints one request's wire/queue/handler decomposition and the
   client-side per-op timing report;
4. fetches the daemon's per-session telemetry table (what
   ``pythia-trace sessions`` shows) and renders one ops-console frame
   (what ``pythia-trace top`` polls);
5. dumps the recorded spans and reproduces the decomposition offline
   with :class:`repro.obs.analysis.TraceTable` — the ``pythia-trace
   analyze`` path.

Run: ``python examples/ops_console.py``
"""

from __future__ import annotations

import os
import tempfile

from repro import Pythia
from repro.obs import spans as obs_spans
from repro.obs.analysis import TraceTable
from repro.obs.top import OpsConsole
from repro.server import OracleServer, PythiaClient, TraceStore, admin_request

STEP = [
    ("post_recv", 1),
    ("post_send", 1),
    ("wait_halo", None),
    ("compute", None),
    ("allreduce", "SUM"),
]
ITERATIONS = 25


def record_reference(trace_path: str) -> None:
    oracle = Pythia(trace_path, mode="record", meta={"app": "demo-solver"})
    clock = 0.0
    for _ in range(ITERATIONS):
        for name, payload in STEP:
            clock += 0.002
            oracle.event(name, payload, timestamp=clock)
    oracle.finish()


def run_application(session_id: str, trace_path: str, socket_path: str):
    """One traced application session; returns its client (unfinished)."""
    client = PythiaClient(trace_path, socket=socket_path, session_id=session_id)
    for _ in range(ITERATIONS):
        for name, payload in STEP:
            client.event_and_predict(name, payload)
    return client


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="pythia-ops-") as tmp:
        trace_path = os.path.join(tmp, "solver.pythia")
        socket_path = os.path.join(tmp, "oracle.sock")
        record_reference(trace_path)

        with obs_spans.span_recording() as recorder:
            with OracleServer(socket_path, store=TraceStore()) as _server:
                solver = run_application("solver-rank0", trace_path, socket_path)
                viz = run_application("viz-sidecar", trace_path, socket_path)

                print("=== one request, decomposed (client.last_timing) ===")
                t = solver.last_timing
                print(f"op={t['op']} sid={t['sid']} rid={t['rid']}")
                print(f"  total   {t['total_us']:8.1f} µs")
                print(f"  wire    {t['wire_us']:8.1f} µs  (send + receive + scheduling)")
                print(f"  queue   {t['queue_us']:8.1f} µs  (daemon: socket -> handler)")
                print(f"  handler {t['handler_us']:8.1f} µs  (daemon: the oracle work)")

                print("\n=== per-op timing report (client side) ===")
                for op, components in solver.timing_report().items():
                    for component, stats in components.items():
                        print(f"{op:16s} {component:8s} x{stats['count']:<4d} "
                              f"p50 {stats['p50_us']:7.1f} µs  "
                              f"p99 {stats['p99_us']:7.1f} µs")

                print("\n=== daemon per-session telemetry (pythia-trace sessions) ===")
                table = solver.sessions()
                for row in table["sessions"]:
                    print(f"{row['sid']:14s} requests={row['requests']:<4d} "
                          f"last_rid={row['last_rid']:<4d} "
                          f"duplicates={row['rid_regressions']} "
                          f"hit_rate={row.get('hit_rate', 0.0):.3f}")

                print("\n=== one ops-console frame (pythia-trace top) ===")
                # what the CLI does: one admin request per connection
                metrics_text = admin_request(socket_path, {"op": "metrics"})["text"]
                sessions_table = admin_request(socket_path, {"op": "sessions"})
                console = OpsConsole(lambda: {}, clear=False, title="pythia ops demo")
                print(console.frame(
                    {"metrics": metrics_text, "sessions": sessions_table}
                ))

                solver.finish()
                viz.finish()

            dump_path = os.path.join(tmp, "spans.json")
            recorder.dump(dump_path)

        print("=== offline: pythia-trace analyze over the span journal ===")
        report = TraceTable.load(dump_path).report()
        print(f"{report['requests']} traced requests from sessions "
              f"{', '.join(report['sessions'])}")
        for component, stats in report["ops"]["observe_predict"].items():
            print(f"observe_predict {component:8s} x{stats['count']:<4d} "
                  f"p50 {stats['p50_us']:7.1f} µs  max {stats['max_us']:7.1f} µs")


if __name__ == "__main__":
    main()
