#!/usr/bin/env python
"""Scaling out: a multi-worker oracle tier with sticky session routing.

One :class:`OracleServer` is GIL-bound — past one core's worth of
prediction work, adding sessions degrades aggregate throughput.  The
:class:`OracleSupervisor` runs N full oracle daemons as *processes*
behind one socket and routes each client session to a worker by
consistent hash of its session id, so reconnects always land where the
session's tracker and telemetry live.  Workers map one shared compiled
grammar artifact (``.pygx``) instead of each parsing the JSON trace.

This script:

1. records a reference trace of a small iterative solver;
2. starts an :class:`OracleSupervisor` with three workers
   (``pythia-trace serve --workers 3`` does the same from the shell);
3. runs six applications, each with its own session id, and shows the
   ring spreading them across workers — and a reconnect landing on the
   *same* worker (stickiness);
4. asks the supervisor for the merged ``sessions`` table (what
   ``pythia-trace sessions`` prints) to count sessions per worker, and
   for ``stats`` to show the single shared grammar artifact.

Run: ``python examples/multi_worker.py``
"""

from __future__ import annotations

import collections
import os
import tempfile

from repro import Pythia
from repro.server import OracleSupervisor, PythiaClient, admin_request

STEP = [
    ("post_recv", 1),
    ("post_send", 1),
    ("wait_halo", None),
    ("compute", None),
    ("allreduce", "SUM"),
]
ITERATIONS = 30
WORKERS = 3
APPS = 6


def record_reference(trace_path: str) -> None:
    oracle = Pythia(trace_path, mode="record", meta={"app": "demo-solver"})
    for _ in range(ITERATIONS):
        for name, payload in STEP:
            oracle.event(name, payload)
    oracle.finish()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="pythia-multiworker-") as tmp:
        trace_path = os.path.join(tmp, "solver.pythia")
        sock_path = os.path.join(tmp, "oracle.sock")
        record_reference(trace_path)

        with OracleSupervisor(sock_path, workers=WORKERS, drain_deadline=2.0):
            print(f"supervisor up: {WORKERS} workers behind {sock_path}\n")

            # -- six applications, each its own session id --------------
            homes = {}
            for i in range(APPS):
                sid = f"app-{i}"
                client = PythiaClient(trace_path, socket=sock_path, session_id=sid)
                for _ in range(5):
                    for name, payload in STEP:
                        client.event(name, payload)
                prediction = client.predict(1)
                homes[sid] = client.worker
                print(f"  {sid}: worker {client.worker}, "
                      f"next={client.describe(prediction)}")
                client.close()

            # -- stickiness: a reconnect lands on the same worker -------
            again = PythiaClient(trace_path, socket=sock_path, session_id="app-0")
            again.event(*STEP[0])
            print(f"\napp-0 reconnected: worker {again.worker} "
                  f"(was {homes['app-0']}) — sticky routing")
            assert again.worker == homes["app-0"]
            again.close()

            # -- per-worker session counts from the merged table --------
            table = admin_request(sock_path, {"op": "sessions"})
            per_worker = collections.Counter(
                row["worker"] for row in table["sessions"]
            )
            print("\nsessions per worker (the `pythia-trace sessions` view):")
            for wid in sorted(per_worker):
                rows = [r["sid"] for r in table["sessions"] if r["worker"] == wid]
                print(f"  worker {wid}: {per_worker[wid]} session(s)  {sorted(rows)}")

            # -- one grammar parse for the whole tier -------------------
            stats = admin_request(sock_path, {"op": "stats"})
            store = stats["store"]
            print(f"\nshared grammar: {store['artifact_compiles']} compile(s) "
                  f"for {len(stats['workers'])} active worker(s); "
                  f"artifact(s): {[os.path.basename(a) for a in store['artifacts']]}")
            workers = admin_request(sock_path, {"op": "workers"})["workers"]
            routed = {w: info["connections_routed"] for w, info in sorted(workers.items())}
            print(f"connections routed per worker: {routed}")

        print("\nsupervisor stopped (workers drained and exited)")


if __name__ == "__main__":
    main()
