"""``pythia-trace`` — record, inspect and replay application traces.

Subcommands
-----------
``record APP``
    Run an application skeleton under PYTHIA-RECORD, write a trace file.
``dump TRACE``
    Print a trace's grammars in the paper's notation, with statistics.
``predict APP TRACE``
    Re-run an application against a reference trace and report per-
    distance prediction accuracy.
``serve``
    Run the oracle daemon: many applications share one long-lived
    prediction service over a Unix socket (or TCP).
``metrics``
    Scrape a running daemon's metrics in Prometheus text format.
``sessions``
    Print a running daemon's per-client-session telemetry table.
``top``
    Live ops console: poll a daemon and render throughput, latency
    (queue/handler split) and per-session rows every interval.
``analyze``
    Offline report over span dumps and flight journals: merge them,
    decompose traced requests into wire/queue/handler, print per-op
    percentiles (optionally write a merged Chrome trace).
``spans``
    Record + replay an application with span recording on and write a
    Chrome-trace JSON (chrome://tracing / Perfetto).
``explain TRACE``
    Replay a prefix of a trace and print the provenance of the oracle's
    next prediction: which candidate progress sequences back it, with
    what weights.  ``--socket`` asks a running daemon instead.
``flight TRACE``
    Same replay, then dump the session's flight-recorder journal (and
    drift report) as JSONL or a Chrome trace.
``apps``
    List the available application skeletons.

A global ``--log-level`` (or ``PYTHIA_LOG``) turns on structured
logging, e.g. ``pythia-trace --log-level debug record ...`` or
``--log-level json:info`` for JSON lines.
"""

from __future__ import annotations

import argparse
import sys

from repro.apps.base import APPS, get_app
from repro.core.trace_file import load_trace
from repro.experiments.harness import mpi_predict_run, mpi_record_run

__all__ = ["main"]


def _cmd_apps(_args) -> int:
    for name in sorted(APPS):
        spec = APPS[name]
        kind = "MPI+OpenMP" if spec.hybrid else "MPI"
        print(f"{name:12s} {kind:10s} ranks={spec.default_ranks:<3d} {spec.description}")
    return 0


def _cmd_record(args) -> int:
    spec = get_app(args.app)
    result = mpi_record_run(
        args.app, args.ws, args.trace,
        ranks=args.ranks or spec.default_ranks, seed=args.seed,
        timestamps=args.timestamps,
    )
    print(f"recorded {result.events:,} events from {args.app}.{args.ws} "
          f"({result.rules_per_rank:.0f} rules/rank avg, simulated {result.time:.2f}s)")
    print(f"trace written to {args.trace}")
    return 0


def _cmd_dump(args) -> int:
    trace = load_trace(args.trace)
    print(f"trace: {args.trace}")
    print(f"meta: {trace.meta}")
    print(f"events: {trace.event_count:,} over {len(trace.threads)} thread(s)")
    names = {i: str(ev) for i, ev in enumerate(trace.registry)}
    from repro.core.analysis import analyze

    for tid in sorted(trace.threads):
        tt = trace.thread(tid)
        print(f"\n--- thread {tid}: {analyze(tt.grammar).summary()} ---")
        if args.full or tt.grammar.rule_count <= args.max_rules:
            print(tt.grammar.dump(lambda t: names.get(t, f"?{t}")))
        else:
            print(f"(grammar has {tt.grammar.rule_count} rules; use --full to print)")
        if args.head and tid == min(trace.threads):
            stream = tt.grammar.unfold()[: args.head]
            print("first events:", " ".join(names.get(t, "?") for t in stream))
    return 0


def _cmd_predict(args) -> int:
    distances = tuple(int(d) for d in args.distances.split(","))
    result = mpi_predict_run(
        args.app, args.ws, args.trace,
        ranks=args.ranks, seed=args.seed,
        distances=distances, sample_stride=args.stride,
    )
    print(f"replayed {args.app}.{args.ws} against {args.trace} "
          f"(simulated {result.time:.2f}s)")
    for d in distances:
        score = result.scores[d]
        print(f"distance {d:4d}: accuracy {100 * score.accuracy:5.1f} % "
              f"({score.correct}/{score.correct + score.incorrect} scored, "
              f"{score.missing} without prediction)")
    return 0


def _address(args):
    """The daemon address: ``--tcp HOST:PORT`` as a tuple, else ``--socket``."""
    if args.tcp:
        host, _, port = args.tcp.rpartition(":")
        return (host or "127.0.0.1", int(port))
    return args.socket


def _daemon_requests(args, requests: list[dict]) -> list[dict]:
    """Each request on its own admin connection; returns the replies.

    Raises ``OSError`` when the daemon is unreachable and
    ``RuntimeError`` for error replies — callers decide presentation.
    """
    from repro.server import ProtocolError, admin_request

    replies: list[dict] = []
    for request in requests:
        try:
            response = admin_request(_address(args), request, timeout=args.timeout)
        except ProtocolError as exc:
            raise RuntimeError(str(exc)) from exc
        if not response.get("ok"):
            raise RuntimeError(response.get("error", "error reply"))
        replies.append(response)
    return replies


def _cmd_metrics(args) -> int:
    try:
        (response,) = _daemon_requests(args, [{"op": "metrics"}])
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(response["text"])
    return 0


def _cmd_sessions(args) -> int:
    import json

    try:
        (response,) = _daemon_requests(args, [{"op": "sessions"}])
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        response.pop("ok", None)
        print(json.dumps(response, indent=1, sort_keys=True))
        return 0
    rows = response.get("sessions") or []
    print(f"{response.get('tracked', len(rows))} session(s) tracked "
          f"(capacity {response.get('capacity', '?')}, "
          f"evicted {response.get('evicted', 0)})")
    if not rows:
        return 0
    print(f"{'session':16s} {'reqs':>7s} {'err':>5s} {'rid':>8s} {'dup':>4s} "
          f"{'hit%':>6s} {'drift':>8s} {'handler p50':>12s} {'p99':>9s} {'age':>7s}")
    for row in rows:
        hit = row.get("hit_rate")
        handler = row.get("handler_us") or {}
        hit_text = f"{100 * hit:5.1f}%" if hit is not None else f"{'-':>6s}"
        print(f"{str(row.get('sid', '?'))[:16]:16s} "
              f"{row.get('requests', 0):>7d} {row.get('errors', 0):>5d} "
              f"{row.get('last_rid', 0):>8d} {row.get('rid_regressions', 0):>4d} "
              f"{hit_text} {row.get('drift_state') or '-':>8s} "
              f"{handler.get('p50', 0):>10.1f}µs {handler.get('p99', 0):>7.1f}µs "
              f"{row.get('age_s', 0):>6.1f}s")
    return 0


def _cmd_top(args) -> int:
    from repro.obs.top import OpsConsole

    def poll() -> dict:
        metrics, sessions = _daemon_requests(
            args, [{"op": "metrics"}, {"op": "sessions"}]
        )
        snapshot = {"metrics": metrics["text"], "sessions": sessions}
        try:
            (hist,) = _daemon_requests(args, [{"op": "history", "window": 120}])
        except (OSError, RuntimeError):
            pass  # older daemon, or history disabled: console degrades
        else:
            snapshot["history"] = hist.get("history")
        return snapshot

    where = args.tcp or args.socket
    console = OpsConsole(
        poll, interval=args.interval, title=f"pythia ops — {where}",
        clear=None if not args.once else False,
    )
    status = console.run(iterations=1 if args.once else args.iterations)
    if status:
        print(f"error: the last poll of {where} failed: {console.last_error}",
              file=sys.stderr)
    return status


def _cmd_analyze(args) -> int:
    import json

    from repro.obs import journal
    from repro.obs.analysis import TraceTable

    try:
        table = TraceTable.load(*args.files)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.merge:
        journal.dump(args.merge, table.to_chrome_trace())
        print(f"merged {len(table)} events from {len(args.files)} file(s) "
              f"-> {args.merge}")
    report = table.report()
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0
    print(f"{len(table)} events loaded from {len(args.files)} file(s); "
          f"{report['requests']} traced requests over "
          f"{len(report['sessions'])} session(s)")
    for sid in report["sessions"]:
        print(f"  session {sid}")
    for op, components in report["ops"].items():
        print(f"\n{op}:")
        print(f"  {'component':10s} {'count':>7s} {'mean':>10s} "
              f"{'p50':>10s} {'p99':>10s} {'max':>10s}")
        for component in ("total", "wire", "queue", "handler"):
            stats = components.get(component)
            if stats is None:
                continue
            print(f"  {component:10s} {stats['count']:>7d} "
                  f"{stats['mean_us']:>8.1f}µs {stats['p50_us']:>8.1f}µs "
                  f"{stats['p99_us']:>8.1f}µs {stats['max_us']:>8.1f}µs")
    if not report["ops"]:
        print("no traced client request spans found "
              "(enable spans and dump them: PYTHIA_SPANS=1 + PYTHIA_SPANS_DUMP)")
    return 0


def _cmd_spans(args) -> int:
    from repro.experiments.harness import temp_trace_path
    from repro.obs.spans import span_recording

    trace = args.trace or temp_trace_path(args.app)
    with span_recording() as recorder:
        mpi_record_run(
            args.app, args.ws, trace,
            ranks=args.ranks, seed=args.seed, timestamps=True,
        )
        mpi_predict_run(args.app, args.ws, trace, ranks=args.ranks, seed=args.seed + 1)
    recorder.dump(args.output)
    totals = recorder.totals()
    print(f"{len(recorder)} spans from {args.app}.{args.ws} -> {args.output}")
    for name in sorted(totals, key=lambda n: -totals[n]["total_s"]):
        agg = totals[name]
        print(f"  {name:28s} x{agg['count']:<5d} total {1e3 * agg['total_s']:8.2f} ms "
              f"(max {1e3 * agg['max_s']:.2f} ms)")
    if args.trace is None:
        import os

        os.unlink(trace)
    return 0


def _primed_session(args):
    """Open an oracle for ``args.trace`` and replay the first ``--prime``
    reference events into it.

    Returns ``(oracle, name_of, close)`` — with ``--socket``/``--tcp``
    the oracle is a :class:`~repro.server.client.PythiaClient` session on
    the shared daemon; otherwise an in-process tracker via the
    :class:`~repro.core.oracle.Pythia` facade.  Both answer ``explain``
    and carry a flight recorder, so the verbs built on this helper work
    identically against either.
    """
    trace = load_trace(args.trace)
    registry = trace.registry
    tt = trace.thread(args.thread)
    stream = tt.grammar.unfold()
    prime = stream[: args.prime] if args.prime else stream
    pairs = [
        (registry.event(t).name, registry.event(t).payload) for t in prime
    ]
    address = _address(args)
    if address:
        from repro.server.client import PythiaClient

        client = PythiaClient(args.trace, socket=address)
        client.event_batch(pairs, thread=args.thread)
        return client, registry.name, client.finish
    from repro.core.oracle import Pythia

    oracle = Pythia(args.trace, mode="predict")
    oracle.enable_drift()
    for name, payload in pairs:
        oracle.event(name, payload, thread=args.thread)
    return oracle, registry.name, lambda: None


def _cmd_explain(args) -> int:
    oracle, name_of, close = _primed_session(args)
    try:
        expl = oracle.explain(
            args.distance, thread=args.thread, top_k=args.top_k,
            with_time=args.with_time,
        )
    finally:
        close()
    if expl is None:
        print("no explanation: the oracle is lost (no candidate positions)")
        return 1
    print(f"after {args.prime} reference events:")
    print(expl.describe(name_of))
    return 0


def _cmd_flight(args) -> int:
    from repro.obs import journal

    oracle, _name_of, close = _primed_session(args)
    try:
        if hasattr(oracle, "flight_dump"):  # daemon client
            dump = oracle.flight_dump(thread=args.thread, format=args.format)
            drift = dump.get("drift") or {}
            obj = dump.get("trace" if args.format == "chrome" else "entries")
        else:  # in-process facade
            flight = oracle._predictor(args.thread).flight
            drift = oracle.drift_report()
            obj = None
            if flight is not None:
                chrome = args.format == "chrome"
                obj = flight.to_chrome_trace() if chrome else flight.entries()
    finally:
        close()
    if obj is None:
        obj = {} if args.format == "chrome" else []
    if args.output == "-":
        sys.stdout.write(journal.render(obj))
    else:
        journal.dump(args.output, obj)
        what = (f"{len(obj)} journal entries" if args.format == "jsonl"
                else "chrome trace")
        print(f"{what} -> {args.output}")
    if drift:
        print(f"drift state: {drift.get('state', 'ok')} "
              f"(transitions: {len(drift.get('transitions', []))})")
    return 0


def _start_httpd(args, provider, registry=None):
    """Serve the observability endpoint next to a daemon/supervisor."""
    if args.http is None:
        return None
    from repro.obs.httpd import ObservabilityHTTPServer

    httpd = ObservabilityHTTPServer(
        provider, args.http_host, args.http, registry=registry
    ).start()
    print(f"observability endpoint on {httpd.url} "
          f"(/metrics /healthz /ready /profile /history.json)")
    return httpd


def _cmd_serve(args) -> int:
    from repro.obs.profiler import profiler_from_env
    from repro.server import OracleServer, TraceStore
    from repro.server.daemon import serve_forever

    tcp_address = _address(args) if args.tcp else None
    if args.workers and args.workers > 0:
        from repro.server import OracleSupervisor

        supervisor = OracleSupervisor(
            None if tcp_address else args.socket,
            tcp_address=tcp_address,
            workers=args.workers,
            cache_size=args.cache_size,
            drain_deadline=args.drain_deadline,
        )
        supervisor.start()
        addr = supervisor.address
        where = addr if isinstance(addr, str) else f"{addr[0]}:{addr[1]}"
        print(f"pythia oracle supervisor listening on {where} "
              f"({args.workers} workers); SIGTERM drains, Ctrl-C stops")
        # scrape counts go to the supervisor's own registry so they show
        # up (unlabeled) in the merged /metrics page
        httpd = _start_httpd(args, supervisor, registry=supervisor._registry)
        try:
            serve_forever(supervisor, drain_deadline=args.drain_deadline)
        finally:
            if httpd is not None:
                httpd.stop()
        return 0
    server = OracleServer(
        None if tcp_address else args.socket,
        tcp_address=tcp_address,
        store=TraceStore(capacity=args.cache_size),
    )
    server.start()
    # long-lived daemon: continuous profiling on by default (19 Hz;
    # PYTHIA_PROFILE_HZ=0 opts out, any other value overrides)
    profiler_from_env(default_hz=19.0)
    addr = server.address
    where = addr if isinstance(addr, str) else f"{addr[0]}:{addr[1]}"
    print(f"pythia oracle service listening on {where} "
          f"(trace cache: {args.cache_size} entries); "
          f"SIGTERM drains, Ctrl-C stops")
    httpd = _start_httpd(args, server)
    try:
        serve_forever(server, drain_deadline=args.drain_deadline)
    finally:
        if httpd is not None:
            httpd.stop()
        stats = server.counters
        print(f"served {stats['predictions_served']:,} predictions over "
              f"{stats['sessions_opened']:,} sessions "
              f"({stats['events_observed']:,} events observed)")
    return 0


def _cmd_profile(args) -> int:
    fmt = args.format
    if fmt is None:
        fmt = "svg" if args.output.endswith(".svg") else "collapsed"
    request: dict = {"op": "profile_dump", "seconds": args.seconds, "format": fmt}
    if args.hz:
        request["hz"] = args.hz
    # the window blocks the reply; the frame timeout must outlive it
    args.timeout = max(args.timeout, args.seconds + 10.0)
    try:
        (response,) = _daemon_requests(args, [request])
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = response["profile"]
    if args.output == "-":
        sys.stdout.write(text)
        return 0
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    report = response.get("report") or {}
    print(f"wrote {args.output} ({fmt}, {report.get('samples', '?')} samples)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pythia-trace", description=__doc__)
    parser.add_argument(
        "--log-level", default=None, metavar="[json:]LEVEL",
        help="enable structured logging (debug/info/warning/error; "
             "prefix 'json:' for JSON lines)",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    sub.add_parser("apps", help="list application skeletons")

    rec = sub.add_parser("record", help="record a reference trace")
    rec.add_argument("app")
    rec.add_argument("trace", help="output trace file")
    rec.add_argument("--ws", default="small", choices=("small", "medium", "large"))
    rec.add_argument("--ranks", type=int, default=None)
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--timestamps", action="store_true")

    dump = sub.add_parser("dump", help="inspect a trace file")
    dump.add_argument("trace")
    dump.add_argument("--full", action="store_true")
    dump.add_argument("--max-rules", type=int, default=30)
    dump.add_argument("--head", type=int, default=0, help="print the first N events")

    pred = sub.add_parser("predict", help="replay against a trace, score predictions")
    pred.add_argument("app")
    pred.add_argument("trace")
    pred.add_argument("--ws", default="small", choices=("small", "medium", "large"))
    pred.add_argument("--ranks", type=int, default=None)
    pred.add_argument("--seed", type=int, default=1)
    pred.add_argument("--distances", default="1,4,16,64")
    pred.add_argument("--stride", type=int, default=1)

    srv = sub.add_parser("serve", help="run the shared oracle daemon")
    srv.add_argument("--socket", default="/tmp/pythia-oracle.sock",
                     help="unix socket to listen on")
    srv.add_argument("--tcp", default=None, metavar="HOST:PORT",
                     help="listen on TCP instead of the unix socket")
    srv.add_argument("--cache-size", type=int, default=8,
                     help="trace store capacity (loaded trace bundles)")
    srv.add_argument("--drain-deadline", type=float, default=5.0,
                     help="seconds SIGTERM waits for in-flight requests "
                          "before closing connections")
    srv.add_argument("--workers", type=int, default=0, metavar="N",
                     help="run N worker processes behind a supervisor "
                          "(0 = single-process daemon)")
    srv.add_argument("--http", type=int, default=None, metavar="PORT",
                     help="also serve the HTTP observability endpoint "
                          "(/metrics /healthz /ready /sessions.json "
                          "/stats.json /profile /history.json) on this port")
    srv.add_argument("--http-host", default="127.0.0.1",
                     help="bind address for --http (default 127.0.0.1)")

    def _daemon_args(p) -> None:
        p.add_argument("--socket", default="/tmp/pythia-oracle.sock",
                       help="unix socket the daemon listens on")
        p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="connect over TCP instead of the unix socket")
        p.add_argument("--timeout", type=float, default=10.0)

    met = sub.add_parser("metrics", help="scrape a running daemon (Prometheus text)")
    _daemon_args(met)

    ses = sub.add_parser("sessions", help="per-client-session daemon telemetry")
    _daemon_args(ses)
    ses.add_argument("--json", action="store_true",
                     help="print the raw sessions table as JSON")

    top = sub.add_parser("top", help="live ops console (ANSI, polls the daemon)")
    _daemon_args(top)
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between frames (default 1)")
    top.add_argument("--iterations", type=int, default=None,
                     help="stop after N frames (default: until Ctrl-C)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (no screen clear)")

    prf = sub.add_parser(
        "profile", help="pull collapsed stacks / a flamegraph from a daemon"
    )
    _daemon_args(prf)
    prf.add_argument("--seconds", type=float, default=5.0,
                     help="profiling window (0 = the daemon's cumulative "
                          "view; default 5)")
    prf.add_argument("--format", default=None, choices=("collapsed", "svg"),
                     help="output format (default: svg when the output path "
                          "ends in .svg, else collapsed stacks)")
    prf.add_argument("--hz", type=float, default=0.0,
                     help="sampling rate for a temporary window when the "
                          "daemon's profiler is off (default 19)")
    prf.add_argument("-o", "--output", default="-",
                     help="output file ('-' = stdout, the default)")

    ana = sub.add_parser(
        "analyze", help="offline report over span/flight journals"
    )
    ana.add_argument("files", nargs="+",
                     help="Chrome-trace JSON and/or flight JSONL files")
    ana.add_argument("--json", action="store_true",
                     help="print the report as JSON")
    ana.add_argument("--merge", default=None, metavar="OUT.json",
                     help="also write the merged Chrome trace to this path")

    def _session_args(p) -> None:
        p.add_argument("trace", help="reference trace file")
        p.add_argument("--prime", type=int, default=64,
                       help="reference events to replay before asking (default 64)")
        p.add_argument("--thread", type=int, default=0)
        p.add_argument("--socket", default=None,
                       help="ask a running daemon over this unix socket")
        p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="ask a running daemon over TCP")

    exp = sub.add_parser("explain", help="provenance of the oracle's next prediction")
    _session_args(exp)
    exp.add_argument("--distance", type=int, default=1)
    exp.add_argument("--top-k", type=int, default=3, dest="top_k")
    exp.add_argument("--with-time", action="store_true", dest="with_time")

    flt = sub.add_parser("flight", help="dump a session's flight-recorder journal")
    _session_args(flt)
    flt.add_argument("-o", "--output", default="-",
                     help="output file ('-' = stdout, the default)")
    flt.add_argument("--format", default="jsonl", choices=("jsonl", "chrome"))

    spn = sub.add_parser("spans", help="record+replay with span recording on")
    spn.add_argument("app")
    spn.add_argument("-o", "--output", default="pythia-spans.json",
                     help="Chrome-trace JSON output path")
    spn.add_argument("--trace", default=None,
                     help="trace file to (re)use; default: a temp file")
    spn.add_argument("--ws", default="small", choices=("small", "medium", "large"))
    spn.add_argument("--ranks", type=int, default=None)
    spn.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.log_level:
        from repro.obs.log import configure, parse_spec

        level, fmt = parse_spec(args.log_level)
        configure(level=level, fmt=fmt)
    return {"apps": _cmd_apps, "record": _cmd_record,
            "dump": _cmd_dump, "predict": _cmd_predict,
            "serve": _cmd_serve, "metrics": _cmd_metrics,
            "sessions": _cmd_sessions, "top": _cmd_top,
            "profile": _cmd_profile, "analyze": _cmd_analyze,
            "spans": _cmd_spans, "explain": _cmd_explain,
            "flight": _cmd_flight}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
