#!/usr/bin/env python
"""Fault tolerance: an application rides out a daemon crash and restart.

The oracle daemon sits on the critical path of every interposed
runtime, so :class:`PythiaClient` must treat the daemon as a service
that *will* go away: it reconnects with capped exponential backoff,
replays a ring of recently observed events so the fresh daemon-side
tracker re-attaches mid-stream (§II-B2), and — when the daemon never
comes back — degrades to an in-process oracle instead of crashing the
host application.

This script:

1. records a reference trace of a small iterative solver;
2. starts an :class:`OracleServer` and an application that follows the
   reference run through a client, checking every prediction against
   an uninterrupted in-process oracle;
3. **kills the daemon abruptly mid-run** (what ``kill -9`` looks like
   from the client), waits a moment, restarts it — the client
   reconnects, resyncs, and every post-resync prediction still matches
   the in-process oracle byte for byte;
4. stops the daemon for good — the client switches to its local
   fallback and the application finishes with zero exceptions;
5. prints the fault-layer counters and the client's flight journal.

Run: ``python examples/fault_tolerance.py``
"""

from __future__ import annotations

import os
import tempfile
import time

from repro import Pythia
from repro.server import OracleServer, PythiaClient, RetryPolicy, TraceStore

#: one iteration of the "solver": halo exchange, compute, reduce
STEP = [
    ("post_recv", 1),
    ("post_send", 1),
    ("wait_halo", None),
    ("compute", None),
    ("allreduce", "SUM"),
]
ITERATIONS = 40


def record_reference(trace_path: str) -> None:
    oracle = Pythia(trace_path, mode="record")
    for _ in range(ITERATIONS):
        for name, payload in STEP:
            oracle.event(name, payload)
    trace = oracle.finish()
    print(f"recorded {trace.event_count} events -> {trace_path}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="pythia-faults-") as tmp:
        trace_path = os.path.join(tmp, "solver.pythia")
        socket_path = os.path.join(tmp, "oracle.sock")
        record_reference(trace_path)

        events = [(n, p) for _ in range(ITERATIONS) for n, p in STEP]
        reference = Pythia(trace_path, mode="predict")  # the uninterrupted run

        server = OracleServer(socket_path, store=TraceStore(capacity=4)).start()
        client = PythiaClient(
            trace_path,
            socket=socket_path,
            # fight for ~a second, then fall back to the in-process oracle
            retry=RetryPolicy(max_retries=8, backoff_base=0.02, backoff_cap=0.2),
            fallback="local",
        )

        crash_at, give_up_at = len(events) // 3, 2 * len(events) // 3
        agreements = 0
        for i, (name, payload) in enumerate(events):
            if i == crash_at:
                print(f"[{i:3}] daemon killed abruptly mid-run ...")
                server.stop()  # connections die mid-session, like kill -9
                time.sleep(0.05)
                server = OracleServer(
                    socket_path, store=TraceStore(capacity=4)
                ).start()
                print(f"[{i:3}] ... and restarted on the same socket")
            if i == give_up_at:
                print(f"[{i:3}] daemon stopped for good")
                server.stop()
            expected = reference.event_and_predict(name, payload, distance=1)
            got = client.event_and_predict(name, payload, distance=1)
            agreements += got == expected

        print(f"\n{agreements}/{len(events)} events: client agreed with the "
              f"uninterrupted in-process oracle")
        print(f"fault layer: {client.fault_stats()}")
        print("flight journal (client side):")
        for entry in client.flight_journal():
            if entry.get("kind") == "note":
                detail = {k: v for k, v in entry.items()
                          if k not in ("seq", "t", "kind", "session", "message")}
                print(f"  {entry['message']}: {detail}")
        client.finish()


if __name__ == "__main__":
    main()
