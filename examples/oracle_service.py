#!/usr/bin/env python
"""Oracle service: two applications sharing one prediction daemon.

The in-process :class:`Pythia` facade reloads the reference trace in
every process.  The oracle *service* loads it once: a daemon
(``pythia-trace serve`` — here started in-process) keeps an LRU cache
of trace bundles, and any number of applications connect with
:class:`PythiaClient`, which mirrors the facade API.

This script:

1. records a reference trace of a small iterative solver;
2. starts an :class:`OracleServer` on a Unix socket;
3. runs TWO simulated applications concurrently, each following the
   reference run through its own client session and asking the shared
   daemon what comes next;
4. prints the daemon's ``stats`` counters — the trace was loaded once,
   served to both.

Run: ``python examples/oracle_service.py``
"""

from __future__ import annotations

import os
import tempfile
import threading

from repro import Pythia
from repro.server import OracleServer, PythiaClient, TraceStore

#: one iteration of the "solver": halo exchange, compute, reduce
STEP = [
    ("post_recv", 1),
    ("post_send", 1),
    ("wait_halo", None),
    ("compute", None),
    ("allreduce", "SUM"),
]
ITERATIONS = 30


def record_reference(trace_path: str) -> None:
    """Run 1 (could be on any machine): record the reference trace."""
    oracle = Pythia(trace_path, mode="record", meta={"app": "demo-solver"})
    clock = 0.0
    for _ in range(ITERATIONS):
        for name, payload in STEP:
            clock += 0.002
            oracle.event(name, payload, timestamp=clock)
    trace = oracle.finish()
    print(f"recorded {trace.event_count} events "
          f"({trace.rule_count} grammar rules) -> {trace_path}")


def application(app_id: int, trace_path: str, socket_path: str,
                results: dict) -> None:
    """Run 2..N: an application predicting through the shared daemon."""
    client = PythiaClient(trace_path, socket=socket_path)
    matched = predicted = 0
    sample = ""
    for step in range(ITERATIONS):
        for name, payload in STEP:
            matched += client.event(name, payload)
            pred = client.predict(1, with_time=True)
            if pred is not None:
                predicted += 1
                if step == 10 and not sample:
                    sample = client.describe(pred)
    results[app_id] = (matched, predicted, sample, client.stats())
    client.finish()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="pythia-service-") as tmp:
        trace_path = os.path.join(tmp, "solver.pythia")
        socket_path = os.path.join(tmp, "oracle.sock")

        record_reference(trace_path)

        # normally: `pythia-trace serve --socket ...` in its own process
        with OracleServer(socket_path, store=TraceStore(capacity=4)) as server:
            print(f"daemon listening on {socket_path}")

            results: dict = {}
            apps = [
                threading.Thread(target=application,
                                 args=(i, trace_path, socket_path, results))
                for i in (1, 2)
            ]
            for t in apps:
                t.start()
            for t in apps:
                t.join()

            for app_id, (matched, predicted, sample, stats) in sorted(results.items()):
                print(f"app {app_id}: {matched}/{stats['observed']} events matched, "
                      f"{predicted} predictions, e.g. {sample}")

            counters = server.counters
            store = server.store.snapshot()
            print(f"daemon: {counters['sessions_opened']} sessions, "
                  f"{counters['events_observed']} events observed, "
                  f"{counters['predictions_served']} predictions served")
            print(f"trace store: {store['misses']} load(s), {store['hits']} hit(s) "
                  f"— both apps shared one loaded grammar")


if __name__ == "__main__":
    main()
