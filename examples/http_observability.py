#!/usr/bin/env python
"""Monitoring integration: the HTTP observability plane, end to end.

The oracle service speaks a length-prefixed frame protocol — great for
clients, invisible to Prometheus.  ``pythia-trace serve --http PORT``
(or :class:`~repro.obs.httpd.ObservabilityHTTPServer` in-process, as
here) exposes the whole observability surface over plain HTTP GET:

- ``/metrics``: one Prometheus exposition for the whole tier, every
  worker's samples labeled ``worker="N"``, supervisor and process
  metrics merged in;
- ``/healthz`` and ``/ready``: liveness vs. readiness (503 while
  draining, so load balancers stop routing before shutdown);
- ``/profile?seconds=N&format=svg``: a flamegraph from the always-on
  sampling profiler, with samples attributed to named ops;
- ``/history.json``: req/s, events/s and CPU rates computed from the
  daemon's metrics history ring.

This script records a trace, boots a supervised worker tier with the
HTTP endpoint attached, drives prediction load through it, and then
monitors it exactly like external infrastructure would — over HTTP,
validating the scrape with the in-repo exposition parser.  CI runs it
with ``--out-dir`` to archive the scrape and flamegraph as artifacts.

Run: ``python examples/http_observability.py [--workers 2]
[--profile-seconds 1.0] [--out-dir DIR]``
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
import time
import urllib.request

from repro import Pythia
from repro.obs.httpd import ObservabilityHTTPServer
from repro.obs.metrics import parse_prometheus_text
from repro.server import OracleSupervisor, PythiaClient

STEP = [
    ("post_recv", 1),
    ("post_send", 1),
    ("wait_halo", None),
    ("compute", None),
    ("allreduce", "SUM"),
]


def record_reference(trace_path: str, iterations: int = 40) -> None:
    oracle = Pythia(trace_path, mode="record", meta={"app": "demo-solver"})
    for _ in range(iterations):
        for name, payload in STEP:
            oracle.event(name, payload)
    oracle.finish()


def fetch(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=30.0) as resp:
        return resp.status, resp.read().decode()


def drive_load(trace_path: str, sock_path: str, sid: str,
               stop: threading.Event) -> None:
    """One application session streaming events until told to stop.

    Batched frames (many loop iterations per round trip) keep each
    handler burst above the profiler's GIL switch interval, so samples
    get attributed to the ``observe_predict`` op rather than pure
    socket waits.
    """
    client = PythiaClient(trace_path, socket=sock_path, session_id=sid)
    batch = STEP * 80  # 400 events (~1.3 ms of handler) per frame
    try:
        while not stop.is_set():
            client.event_batch_and_predict(batch, distance=2)
    finally:
        client.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--sessions", type=int, default=3)
    parser.add_argument("--port", type=int, default=0,
                        help="HTTP port (0 = ephemeral)")
    parser.add_argument("--load-seconds", type=float, default=2.0,
                        help="how long to keep traffic flowing")
    parser.add_argument("--profile-seconds", type=float, default=1.0,
                        help="flamegraph sampling window")
    parser.add_argument("--profile-hz", type=float, default=97.0,
                        help="temporary sampling rate for the window "
                             "(the always-on profiler stays at 19 Hz)")
    parser.add_argument("--out-dir", default=None,
                        help="write metrics.prom / flamegraph.svg / "
                             "history.json here (CI artifacts)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="pythia-http-obs-") as tmp:
        out_dir = args.out_dir or tmp
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(tmp, "solver.pythia")
        sock_path = os.path.join(tmp, "oracle.sock")
        record_reference(trace_path)
        print(f"reference trace recorded: {trace_path}")

        # profile the workers out of the box; 19 Hz is the daemon default
        os.environ.setdefault("PYTHIA_PROFILE_HZ", "19")

        sup = OracleSupervisor(sock_path, workers=args.workers, drain_deadline=2.0)
        sup.start()
        httpd = ObservabilityHTTPServer(sup, port=args.port,
                                        registry=sup._registry).start()
        print(f"tier up: {args.workers} workers, scrape endpoint {httpd.url}")

        stop = threading.Event()
        loaders = [
            threading.Thread(
                target=drive_load,
                args=(trace_path, sock_path, f"app-{i}", stop),
                daemon=True,
            )
            for i in range(args.sessions)
        ]
        for t in loaders:
            t.start()

        try:
            # -- liveness / readiness, like a load balancer would ----------
            assert fetch(httpd.url + "/healthz")[0] == 200
            status, reason = fetch(httpd.url + "/ready")
            print(f"/ready: {status} {reason.strip()!r}")

            # -- a flamegraph window while the load runs -------------------
            svg = fetch(
                httpd.url
                + f"/profile?seconds={args.profile_seconds}&format=svg"
                + f"&hz={args.profile_hz}"
            )[1]
            svg_path = os.path.join(out_dir, "flamegraph.svg")
            with open(svg_path, "w", encoding="utf-8") as fh:
                fh.write(svg)
            print(f"flamegraph written: {svg_path} ({len(svg)} bytes)")

            time.sleep(max(0.0, args.load_seconds - args.profile_seconds))

            # -- the Prometheus scrape, validated like a strict scraper ----
            page = fetch(httpd.url + "/metrics")[1]
            parsed = parse_prometheus_text(page)
            workers_seen = sorted(
                {
                    labels["worker"]
                    for labels, _v in parsed.series("pythia_server_requests_total")
                }
            )
            total = sum(
                v for _l, v in parsed.series("pythia_server_requests_total")
            )
            print(
                f"/metrics: {len(parsed.samples)} samples, "
                f"workers {workers_seen}, {int(total)} requests served"
            )
            for family in (
                "pythia_server_requests_total",
                "pythia_process_cpu_seconds_total",
                "pythia_worker_up",
                "pythia_http_requests_total",
            ):
                assert parsed.families[family]["type"], f"missing family {family}"
            # exactly one HELP/TYPE header per family — strict scrapers care
            for family in parsed.families:
                assert page.count(f"# TYPE {family} ") == 1, family
            with open(os.path.join(out_dir, "metrics.prom"), "w",
                      encoding="utf-8") as fh:
                fh.write(page)
            print(f"scrape validated and written: {out_dir}/metrics.prom")

            # -- rates from the history ring -------------------------------
            # a rate needs two ring entries (the ring ticks at 1 Hz), so a
            # fresh tier may need a moment before req/s exists
            deadline = time.monotonic() + 15.0
            while True:
                history = json.loads(fetch(httpd.url + "/history.json")[1])
                tier_rates = history.get("rates") or {}
                if (
                    tier_rates.get("pythia_server_requests_total") is not None
                    or time.monotonic() >= deadline
                ):
                    break
                time.sleep(0.3)
            rates = {
                key.replace("pythia_server_", ""): round(value, 1)
                for key, value in (history.get("rates") or {}).items()
                if value is not None
            }
            print(f"history rates (per second): {rates}")
            with open(os.path.join(out_dir, "history.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(history, fh, indent=2, sort_keys=True)
        finally:
            stop.set()
            for t in loaders:
                t.join(timeout=10.0)
            httpd.stop()
            sup.stop()
        print("tier drained; endpoint down")
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
