"""The oracle daemon: many clients, one trace store, one process.

:class:`OracleServer` listens on a Unix socket (TCP optionally) and
speaks both framings of :mod:`repro.server.protocol` — length-prefixed
JSON and the binary v2 frames of the hot ops.  One selectors event loop
(:mod:`repro.server.eventloop`) serves every connection, and every
frame of either framing goes through :meth:`OracleServer.dispatch`:
one handler table, one accounting epilogue, the reply encoded in the
request's framing.  Each *session* owns one
:class:`~repro.core.predict.PythiaPredict` tracker over a bundle shared
through the :class:`~repro.server.store.TraceStore`, so concurrently
running applications predict from one long-lived process instead of
each reloading the grammar.

Request ops
-----------
``open_session``   ``{trace, thread=0, max_candidates=64, with_registry=false}``
``observe``        ``{session, name, payload=null}`` -> ``{matched}``
``observe_batch``  ``{session, events: [[name, payload], ...]}`` -> ``{matched: [...]}``
``observe_predict`` ``{session, name, payload=null | events, distance=1,
                   with_time=false, require_match=false}``
                   -> ``{matched, prediction}`` — fused observe + predict
``predict``        ``{session, distance=1, with_time=false}`` -> ``{prediction}``
``predict_duration`` ``{session, distance=1}`` -> ``{eta}``
``explain``        ``{session, distance=1, top_k=3, with_time=false,
                   names=false}`` -> ``{explanation}`` — prediction
                   provenance (:mod:`repro.core.explain`)
``flight_dump``    ``{session, format="jsonl"|"chrome"}`` -> the
                   session's flight-recorder journal + drift report
``close_session``  ``{session}``
``stats``          ``{session?}`` — daemon counters, or one tracker's
``sessions``       the per-client-session telemetry table
                   (:class:`~repro.obs.sessions.SessionStats`), joined
                   with each live tracker's hit rate and drift state
                   (``pythia-trace sessions`` prints it)
``metrics``        Prometheus text exposition of the process registry
                   (``pythia-trace metrics`` prints it)

``observe``, ``observe_predict`` and ``predict`` also have a binary
spelling: session ``sN`` travels as the number ``N`` and the event as
the registry terminal the client resolved it to, so the same handler
runs for both framings and predictions are byte-identical.  The
``open_session`` reply carries that number as ``snum``; its presence is
how a client learns that the daemon takes binary frames, so there is no
separate negotiation request.  Admin requests (``stats`` without a
session, ``sessions``, ``metrics``, ``history``, ``profile_dump``) come
on a connection of their own (:func:`repro.server.client.admin_request`),
which is what lets a supervisor answer them for its whole tier.

Request tracing
---------------
Any request may carry an optional ``ctx`` field —
``{"sid": <client session id>, "rid": <monotonic request id>}`` — as
stamped by :class:`~repro.server.client.PythiaClient`.  A valid ``ctx``
also *binds* the identity to the connection: later requests on the
same connection need no stamp at all (zero extra bytes on a path that
runs per event) — they inherit the bound sid, and because the stream
delivers in order, the daemon assigns them consecutive rids that
mirror the client's own counter.  A traced request gets a ``srv``
pair in its reply —
``[queue_us, handler_us]``, positional for the same
stays-terse-on-the-hot-path reason prediction distributions travel as
``[terminal, weight]`` pairs — where ``queue_us`` is the time between
the frame's arrival and its handler starting and ``handler_us`` the
handler's own time, so the client can decompose its observed
round-trip latency into wire / queue / handler (replies come back in
request order on a connection, so the client needs no rid echo to
correlate them).  The context also tags
the daemon's spans (``server.<op>`` with ``sid``/``rid`` attrs), the
per-session latency digests in the
:class:`~repro.obs.sessions.SessionStats` table, and the session's
flight-recorder journal (the client sid is folded into the recorder's
session name at ``open_session``).  Requests without ``ctx`` behave
exactly as before — old clients keep working, and old daemons ignore
``ctx`` — it is just an unknown request field.

Every session carries a flight recorder (``flight`` entries, default
256, 0 disables) and a drift monitor (``drift=false`` disables) so a
misbehaving client's history is inspectable post-hoc.

Error isolation: a bad request gets an ``{ok: false, code, error}``
response; a broken frame closes only that connection; nothing a client
sends can take the daemon down.

Graceful drain: SIGTERM (under :func:`serve_forever`) or
:meth:`OracleServer.drain` stops accepting connections, finishes
requests already being served within the drain deadline and answers
anything arriving later with the retryable ``shutting_down`` code —
``close_session``, ``ping``, ``stats`` and ``metrics`` stay answered so
clients shut down cleanly and monitors can watch the drain.
"""

from __future__ import annotations

import itertools
import os
import signal
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from repro.core.events import Event
from repro.core.predict import METRIC_FAMILIES as PREDICT_FAMILIES
from repro.core.predict import PythiaPredict
from repro.core.record import METRIC_FAMILIES as RECORD_FAMILIES
from repro.core.successor import METRIC_FAMILIES as SUCCESSOR_FAMILIES
from repro.core.trace_file import TraceFormatError
from repro.obs import history as obs_history
from repro.obs import metrics as obs_metrics
from repro.obs import profiler as obs_profiler
from repro.obs import spans as obs_spans
from repro.obs.accuracy import aggregate_stats
from repro.obs.drift import DriftMonitor
from repro.obs.flight import FlightRecorder
from repro.obs.log import get_logger
from repro.obs.metrics import LATENCY_BUCKETS_S, Histogram, render_prometheus
from repro.obs.process import register_process_metrics
from repro.obs.sessions import DEFAULT_SESSION_CAPACITY, SessionEntry, SessionStats
from repro.server.eventloop import ConnectionLoop
from repro.server.protocol import (
    BIN_OPS,
    BIN_REQ,
    F_MATCHED,
    F_REQUIRE_MATCH,
    F_UNKNOWN_EVENT,
    F_WITH_TIME,
    OP_REPLY_MATCHED,
    OP_REPLY_PREDICT,
    decode_payload,
    encode_bin_error,
    encode_bin_frame,
    encode_bin_prediction,
    encode_json_frame,
    encode_prediction,
    unix_address,
)
from repro.server.store import ArtifactWriteError, TraceBundle, TraceStore

__all__ = ["OracleServer", "RequestError", "serve_forever"]

_log = get_logger("server")

#: the largest tracker bound an ``open_session`` may ask for
MAX_CANDIDATES_LIMIT = 4096

#: counter families pre-registered at daemon start so `pythia-trace
#: metrics` exposes them (at zero) before any instrumented code ran;
#: each module declares the families it publishes
_METRIC_CATALOGUE: tuple[tuple[str, str], ...] = (
    *RECORD_FAMILIES,
    *PREDICT_FAMILIES,
    *SUCCESSOR_FAMILIES,
)


def bind_listener(
    socket_path: str | None, tcp_address: tuple[str, int] | None
) -> socket.socket | None:
    """A listening socket on ``socket_path`` (replacing a stale socket
    file) or ``tcp_address``; ``None`` when both are ``None``."""
    if socket_path is not None:
        try:
            os.unlink(socket_path)
        except FileNotFoundError:
            pass
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        with unix_address(socket_path) as address:
            listener.bind(address)
    elif tcp_address is not None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(tcp_address)
    else:
        return None
    listener.listen(256)
    return listener


def close_listener(listener: socket.socket | None) -> None:
    """Stop a listener for good: shut it down, then close it."""
    if listener is None:
        return
    # shutdown wakes a thread blocked in accept() — close alone leaves
    # it in the syscall holding the listener alive, so new connects
    # would still land in the backlog
    try:
        listener.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        listener.close()
    except OSError:
        pass


def serve_forever(server, *, drain_deadline: float) -> None:
    """Block on a started server until it is stopped (for the CLI).

    ``server`` is an :class:`OracleServer` or an
    :class:`~repro.server.supervisor.OracleSupervisor`.  SIGTERM
    triggers the graceful path: ``server.drain(drain_deadline)`` —
    finish in-flight requests within the deadline, answer late ones
    with ``shutting_down`` — and then ``server.stop()``.
    KeyboardInterrupt skips the drain phase: Ctrl-C means *now*.
    """
    stop_requested = threading.Event()
    old_handler = None
    in_main = threading.current_thread() is threading.main_thread()
    if in_main:
        old_handler = signal.signal(
            signal.SIGTERM, lambda *_sig: stop_requested.set()
        )
    try:
        while server._running.is_set() and not stop_requested.is_set():
            time.sleep(0.05)
    except KeyboardInterrupt:
        pass
    finally:
        if in_main and old_handler is not None:
            signal.signal(signal.SIGTERM, old_handler)
        if stop_requested.is_set():
            server.drain(drain_deadline)
        server.stop()


class RequestError(Exception):
    """A request the daemon refuses; becomes an error response."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


#: exact exception types with an error code of their own (see _error_of)
_ERROR_CODES = {
    FileNotFoundError: "trace_not_found",
    TraceFormatError: "trace_format",
    ArtifactWriteError: "artifact_unwritable",
    KeyError: "no_such_thread",
}


def _error_of(exc: Exception) -> tuple[str, str]:
    """A handler's exception as the ``(code, message)`` of its error reply."""
    if isinstance(exc, RequestError):
        return exc.code, str(exc)
    if isinstance(exc, (FileNotFoundError, TraceFormatError, ArtifactWriteError,
                        KeyError, ValueError, TypeError)):
        code = _ERROR_CODES.get(type(exc), "bad_request")
        if isinstance(exc, KeyError) and exc.args:
            return code, str(exc.args[0])  # KeyError reprs its message
        return code, str(exc)
    return "internal", f"{type(exc).__name__}: {exc}"


def profile_args(request: dict) -> tuple[str, float, float]:
    """``profile_dump``'s ``(format, seconds, hz)``, checked the same way
    by the daemon and the supervisor."""
    fmt = request.get("format", "collapsed")
    if fmt not in ("collapsed", "svg"):
        raise RequestError("bad_request", "'format' must be 'collapsed' or 'svg'")
    seconds = request.get("seconds", 0)
    if isinstance(seconds, bool) or not isinstance(seconds, (int, float)) \
            or not 0 <= seconds <= 60:
        raise RequestError("bad_request", "'seconds' must be a number in [0, 60]")
    hz = request.get("hz", 0)
    if isinstance(hz, bool) or not isinstance(hz, (int, float)) or hz < 0:
        raise RequestError("bad_request", "'hz' must be a number >= 0")
    return fmt, seconds, hz


def history_args(request: dict) -> tuple[float | None, list[str] | None]:
    """``history``'s ``(window, keys)``, checked the same way by the
    daemon and the supervisor."""
    window = request.get("window")
    if window is not None and (
        isinstance(window, bool) or not isinstance(window, (int, float))
        or window <= 0
    ):
        raise RequestError("bad_request", "'window' must be a number > 0")
    keys = request.get("keys")
    if keys is not None and not (
        isinstance(keys, list) and all(isinstance(k, str) for k in keys)
    ):
        raise RequestError("bad_request", "'keys' must be a list of strings")
    return window, keys


@dataclass(slots=True)
class _Session:
    """One client-visible tracking session."""

    session_id: str
    bundle: TraceBundle
    thread: int
    tracker: PythiaPredict
    owner: int  # connection id, for cleanup when the connection dies
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: the client-side session id from the opening request's ``ctx``,
    #: joining this daemon session to the SessionStats table row
    ctx_sid: str | None = None


def _latency_view(hist: Histogram) -> dict[str, float]:
    """One op's latency for the ``stats`` op: sample count + percentiles."""
    snap = hist.snapshot()
    return {
        "count": snap["count"],
        "p50_us": round(snap["p50"] * 1e6, 3),
        "p95_us": round(snap["p95"] * 1e6, 3),
        "p99_us": round(snap["p99"] * 1e6, 3),
    }


#: where a decoded binary request keeps the terminal the client already
#: resolved: not a string, so no JSON request can carry one
_TERMINAL = object()

#: the retryable refusal a draining daemon answers late requests with
_DRAIN_ERROR = ("shutting_down", "daemon is draining; reconnect and retry")


def _decode_binary(flags: int, body: bytes) -> dict:
    """A binary hot request's body -> the request its JSON spelling carries."""
    try:
        snum, terminal, distance = BIN_REQ.unpack(body)
    except struct.error as exc:
        raise RequestError(
            "bad_request", f"binary request body must be >IIH: {exc}"
        ) from exc
    return {
        "session": f"s{snum}",
        _TERMINAL: None if flags & F_UNKNOWN_EVENT else terminal,
        "distance": distance,
        "with_time": flags & F_WITH_TIME,
        "require_match": flags & F_REQUIRE_MATCH,
    }


class OracleServer:
    """A multi-client PYTHIA-PREDICT daemon.

    Parameters
    ----------
    socket_path:
        Unix socket to listen on (created on :meth:`start`, unlinked on
        :meth:`stop`).  Mutually exclusive with ``tcp_address``.
    tcp_address:
        Optional ``(host, port)`` to listen on TCP instead; port 0 picks
        a free port (read the bound one from :attr:`address`).
    store:
        Shared :class:`TraceStore`; a private one is created by default.
    worker_id:
        Identity of this process inside a multi-worker deployment
        (:mod:`repro.server.supervisor`); advertised in ``ping`` /
        ``open_session`` / ``stats`` replies so clients and tests can
        see which worker serves them.  Setting it also allows a
        *listener-less* server (both ``socket_path`` and
        ``tcp_address`` ``None``) that only serves connections handed
        to it via :meth:`adopt`.
    """

    def __init__(
        self,
        socket_path: str | os.PathLike | None = None,
        *,
        tcp_address: tuple[str, int] | None = None,
        store: TraceStore | None = None,
        session_stats_capacity: int = DEFAULT_SESSION_CAPACITY,
        worker_id: int | None = None,
    ) -> None:
        if socket_path is not None and tcp_address is not None:
            raise ValueError("socket_path and tcp_address are mutually exclusive")
        if socket_path is None and tcp_address is None and worker_id is None:
            raise ValueError("exactly one of socket_path / tcp_address required")
        self.socket_path = os.fspath(socket_path) if socket_path is not None else None
        self.tcp_address = tcp_address
        self.worker_id = worker_id
        self.store = store if store is not None else TraceStore()
        self._started = False
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._loop = None  # the ConnectionLoop, while started
        self._running = threading.Event()
        self._draining = threading.Event()
        self._inflight = 0
        self._lock = threading.Lock()
        self._sessions: dict[str, _Session] = {}
        self._session_ids = itertools.count(1)
        self._conn_ids = itertools.count(1)
        self.counters = {
            "connections_accepted": 0,
            "connections_dropped": 0,  # closed due to a protocol violation
            "sessions_opened": 0,
            "sessions_closed": 0,
            "events_observed": 0,
            "predictions_served": 0,
            "requests_total": 0,
            "requests_failed": 0,
            "requests_rejected_draining": 0,
        }
        #: per-(op, proto) request latency, shared with the metrics
        #: registry as ``pythia_server_request_seconds{op=...,proto=...}``
        self._latency: dict[tuple[str, str], Histogram] = {}
        self._queue_latency: Histogram | None = None
        #: request timings not yet folded into those histograms
        self._timings: list[tuple[str, str, float, float]] = []
        #: bounded per-client-session telemetry (the ``sessions`` op);
        #: evicting an LRU entry also drops its metric series, so the
        #: labeled pythia_session_* cardinality tracks the table
        self.session_stats = SessionStats(session_stats_capacity)
        self.session_stats.on_evict(self._drop_session_metrics)
        #: bounded ring of periodic registry snapshots (the ``history``
        #: op and ``/history.json``); built from the environment at
        #: :meth:`start`, None while disabled via ``PYTHIA_HISTORY=0``
        self.history: obs_history.MetricsHistory | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> str | tuple[str, int] | None:
        """Where clients connect (socket path, or bound (host, port)).

        ``None`` for a listener-less worker (connections arrive via
        :meth:`adopt` only).
        """
        if self.socket_path is not None:
            return self.socket_path
        if self._listener is not None:
            return self._listener.getsockname()[:2]
        return None

    def start(self) -> "OracleServer":
        """Bind, listen and spawn the accept loop; returns self."""
        if self._started:
            raise RuntimeError("server already started")
        self._listener = bind_listener(self.socket_path, self.tcp_address)
        self._started = True
        self._running.set()
        self._draining.clear()
        registry = obs_metrics.get_registry()
        for name, help_text in _METRIC_CATALOGUE:
            registry.counter(name, help=help_text)
        registry.register_collector(self._collect_metrics)
        register_process_metrics(registry)
        self.history = obs_history.history_from_env()
        if self.history is not None:
            self.history.start()
        self._loop = ConnectionLoop(self).start()
        if self._listener is not None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="pythia-accept", daemon=True
            )
            self._accept_thread.start()
        _log.info("server_started", address=str(self.address),
                  worker=self.worker_id)
        return self

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun refusing new work."""
        return self._draining.is_set()

    def drain(self, deadline: float = 5.0) -> None:
        """Graceful shutdown, phase one: stop taking new work.

        Stops accepting connections, lets requests already being served
        run to completion (waiting up to ``deadline`` seconds for the
        daemon to go idle) and answers any request arriving meanwhile
        with the retryable ``shutting_down`` error code, so a
        fault-tolerant client reconnects elsewhere instead of failing.
        Returns once idle or at the deadline; call :meth:`stop`
        afterwards to close connections and release the socket.
        """
        if not self._started:
            return
        with self._lock:
            already = self._draining.is_set()
            self._draining.set()
        if already:
            return
        _log.info("server_draining", deadline=deadline)
        close_listener(self._listener)
        t0 = time.monotonic()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=deadline)
        while time.monotonic() - t0 < deadline:
            with self._lock:
                if self._inflight == 0:
                    break
            time.sleep(0.005)
        with self._lock:
            leftover = self._inflight
        _log.info("server_drained", inflight_left=leftover)

    def stop(self) -> None:
        """Stop accepting, close every connection, unlink the socket."""
        if not self._started:
            return
        self._running.clear()
        close_listener(self._listener)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        # the loop owns every connection: it closes them and sweeps
        # their sessions on the way out
        self._loop.stop()
        self._loop = None
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except FileNotFoundError:
                pass
        obs_metrics.get_registry().unregister_collector(self._collect_metrics)
        self._fold_timings()
        if self.history is not None:
            self.history.stop()
            dump_dir = os.environ.get(obs_history.HISTORY_DIR_ENV)
            if dump_dir and len(self.history):
                tag = f"w{self.worker_id}" if self.worker_id is not None else "daemon"
                path = os.path.join(dump_dir, f"history-{tag}-{os.getpid()}.jsonl")
                try:
                    self.history.dump(path)
                except OSError:
                    pass  # post-mortem aid only; never blocks shutdown
            self.history = None
        self._listener = None
        self._accept_thread = None
        self._started = False
        _log.info("server_stopped", requests=self.counters["requests_total"])

    def __enter__(self) -> "OracleServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            self._add_connection(conn)

    def _add_connection(self, conn: socket.socket) -> int:
        """Hand ``conn`` to the event loop; returns its connection id."""
        if conn.family in (socket.AF_INET, getattr(socket, "AF_INET6", -1)):
            # small request frame, blocking reply read: the exact shape
            # Nagle penalizes (see PythiaClient._connect)
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        conn_id = next(self._conn_ids)
        with self._lock:
            self.counters["connections_accepted"] += 1
        self._loop.add(conn, conn_id)
        return conn_id

    def adopt(self, conn: socket.socket) -> int:
        """Serve a connection accepted by another process.

        The supervisor accepts on the shared listener, peeks the first
        frame to pick a worker, and passes the connection's fd here via
        ``SCM_RIGHTS``; from this point the socket behaves exactly like
        one this server accepted itself.  A worker adopts its
        supervisor control connection the same way.  Returns the
        connection id.
        """
        if not self._started or not self._running.is_set():
            raise RuntimeError("server is not running")
        return self._add_connection(conn)

    def _close_owned_sessions(self, conn_id: int) -> None:
        with self._lock:
            dead = [s for s in self._sessions.values() if s.owner == conn_id]
            for s in dead:
                del self._sessions[s.session_id]
                self.counters["sessions_closed"] += 1
        for s in dead:
            with s.lock:
                s.tracker.flush_metrics()

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------

    @staticmethod
    def _request_ctx(request: dict) -> tuple[str | None, int | None]:
        """Validated ``(sid, rid)`` from a request's optional ``ctx``.

        Lenient on purpose: a malformed ``ctx`` (wrong types, absurd
        sid length) is treated as absent, never as an error — tracing
        must not be able to fail a request.
        """
        ctx = request.get("ctx")
        if not isinstance(ctx, dict):
            return None, None
        sid = ctx.get("sid")
        rid = ctx.get("rid")
        if not isinstance(sid, str) or not 0 < len(sid) <= 128:
            sid = None
        if isinstance(rid, bool) or not isinstance(rid, int) or rid < 0:
            rid = None
        return sid, rid

    def dispatch(
        self, frame: tuple, conn_id: int, recv_ts: float, conn_ctx: list
    ) -> bytes:
        """Serve one request frame of either framing; returns the reply frame.

        ``frame`` is what :class:`~repro.server.protocol.FrameParser`
        yields: ``("json", request)`` or ``("bin", opcode, flags,
        body)``.  A binary frame decodes into the request its JSON
        spelling would carry, so both framings run the same handler and
        the same accounting — counters, per-(op, proto) latency, queue
        time, session telemetry, spans — and the reply goes out in the
        request's framing.  While draining, anything but
        :attr:`_DRAIN_OPS` gets the retryable ``shutting_down`` refusal.

        ``recv_ts`` is the frame's arrival time: queue time runs from
        there to handler start.  ``conn_ctx`` is the connection's
        ``[sid, last_rid]`` tracing binding: a full ``ctx`` stores its
        identity there, and bare requests — every binary frame is bare —
        inherit the sid with the next consecutive rid (the stream
        delivers in order, so counting arrivals reproduces the client's
        own rid counter exactly).  A traced request's reply carries its
        ``(queue_us, handler_us)`` timing: ``srv`` in JSON, a
        :data:`~repro.server.protocol.F_HAS_SRV` body prefix in
        binary.
        """
        binary = frame[0] == "bin"
        if binary:
            op = BIN_OPS.get(frame[1])
        else:
            request = frame[1]
            op = request.get("op")
            if not isinstance(op, str):
                op = None  # client-controlled: may not even be hashable
        # explicit acquire/release: measurably cheaper than ``with`` on
        # this twice-per-request path
        lock = self._lock
        lock.acquire()
        try:
            if self._draining.is_set() and op not in self._DRAIN_OPS:
                self.counters["requests_rejected_draining"] += 1
                refused = True
            else:
                self._inflight += 1
                refused = False
        finally:
            lock.release()
        if refused:
            # late request during drain: refuse retryably, keep the
            # connection so the client can still close its sessions
            return self._encode_error(binary, _DRAIN_ERROR)
        if not binary and "ctx" in request:
            sid, rid = self._request_ctx(request)
            if sid is not None:
                conn_ctx[0] = sid
                conn_ctx[1] = rid if rid is not None else 0
        elif conn_ctx[0] is not None:
            sid = conn_ctx[0]
            rid = conn_ctx[1] = conn_ctx[1] + 1
            if op == "open_session":
                # the handler folds the sid into flight naming and
                # session metadata; give it the resolved identity
                request["ctx"] = {"sid": sid, "rid": rid}
        else:
            sid = rid = None
        handler = self._HANDLERS.get(op)
        t0 = time.perf_counter()
        # queue time: frame fully received -> handler start (the drain
        # gate and daemon-lock waits live in this interval)
        queue_s = t0 - recv_ts if t0 > recv_ts else 0.0
        try:
            if handler is None:
                raise RequestError(
                    "unknown_op",
                    f"unknown binary opcode 0x{frame[1]:02x}" if binary
                    else f"unknown request op {request.get('op')!r}",
                )
            if binary:
                request = _decode_binary(frame[2], frame[3])
            if obs_profiler._profiler is None:  # inlined tag_op(): hot path
                response = handler(self, request, conn_id)
            else:
                # attributes the sampling profiler's samples to the op
                with obs_profiler.tag_op(op):
                    response = handler(self, request, conn_id)
            error = None
        except Exception as exc:  # never leak an exception
            error = _error_of(exc)
        handler_s = time.perf_counter() - t0
        # bucket unknown ops together: op names are client-controlled
        # and must not grow the latency table without bound
        key = op if handler is not None else "<unknown>"
        proto = "binary" if binary else "json"
        failed = error is not None
        lock.acquire()
        try:
            self._inflight -= 1
            self.counters["requests_total"] += 1
            if failed:
                self.counters["requests_failed"] += 1
        finally:
            lock.release()
        timings = self._timings
        timings.append((key, proto, queue_s, handler_s))
        if len(timings) >= 64:
            self._fold_timings()
        srv = None
        if sid is not None:
            # reply timing in whole µs (plenty at socket-RTT scale):
            # lets the client split its round trip into wire / queue /
            # handler.  No rid is echoed — the connection answers in
            # order, so the client correlates replies itself; a
            # malformed rid shows up in the session table (last_rid
            # stops moving), not on the wire.
            srv = (int(queue_s * 1e6), int(handler_s * 1e6))
            # session accounting is deferred too: the shared list keeps
            # cross-connection arrival order, so rid continuity folds
            # exactly
            pending = self.session_stats.pending
            pending.append((sid, key, rid, queue_s, handler_s, failed))
            if len(pending) >= 64:
                self.session_stats.fold()
        rec = obs_spans._recorder  # inlined get_recorder(): per-request path
        if rec is not None:
            attrs: dict = {"op": key, "proto": proto,
                           "queue_us": int(queue_s * 1e6),
                           "handler_us": int(handler_s * 1e6)}
            if sid is not None:
                attrs["sid"] = sid
            if rid is not None:
                attrs["rid"] = rid
            rec.emit(f"server.{key}", t0, handler_s, **attrs)
        if failed:
            return self._encode_error(binary, error, srv)
        if binary:
            flags = F_MATCHED if response.get("matched") else 0
            if "prediction" not in response:
                return encode_bin_frame(OP_REPLY_MATCHED, flags, srv=srv)
            pred_flags, body = encode_bin_prediction(response["prediction"])
            return encode_bin_frame(OP_REPLY_PREDICT, flags | pred_flags, body, srv=srv)
        response["ok"] = True
        if "prediction" in response:
            response["prediction"] = encode_prediction(response["prediction"])
        return encode_json_frame(
            response, extra=None if srv is None else ',"srv":[%d,%d]' % srv
        )

    def _encode_error(
        self, binary: bool, error: tuple[str, str], srv: tuple | None = None
    ) -> bytes:
        """``(code, message)`` as an error reply in the request's framing."""
        code, message = error
        if binary:
            return encode_bin_error(code, message, srv=srv)
        return encode_json_frame(
            {"ok": False, "code": code, "error": message},
            extra=None if srv is None else ',"srv":[%d,%d]' % srv,
        )

    def _fold_timings(self) -> None:
        """Fold buffered ``(op, proto, queue_s, handler_s)`` request
        timings into the latency and queue histograms.

        The request path only appends (one lock-free list append);
        this runs every 64 requests and before anything reads the
        histograms — the ``stats`` op, and every registry collect via
        :meth:`_collect_metrics`.  Safe against concurrent producers:
        the buffered prefix is sliced out under the lock while appends
        keep landing beyond it.
        """
        timings = self._timings
        with self._lock:
            n = len(timings)
            items = timings[:n]
            del timings[:n]
        if not items:
            return
        registry = obs_metrics.get_registry()
        if self._queue_latency is None:
            self._queue_latency = registry.histogram(
                "pythia_server_queue_seconds",
                buckets=LATENCY_BUCKETS_S,
                help="Frame arrival to handler start (dispatch queue time)",
            )
        self._queue_latency.observe_batch([queue_s for _k, _p, queue_s, _h in items])
        by_key: dict[tuple[str, str], list[float]] = {}
        for op_key, proto, _queue_s, handler_s in items:
            by_key.setdefault((op_key, proto), []).append(handler_s)
        for (op_key, proto), samples in by_key.items():
            hist = self._latency.get((op_key, proto))
            if hist is None:
                hist = registry.histogram(
                    "pythia_server_request_seconds",
                    {"op": op_key, "proto": proto},
                    buckets=LATENCY_BUCKETS_S,
                    help="Request handling latency per op and framing",
                )
                with self._lock:
                    hist = self._latency.setdefault((op_key, proto), hist)
            hist.observe_batch(samples)

    def _session(self, request: dict) -> _Session:
        sid = request.get("session")
        session = self._sessions.get(sid)  # one dict read: atomic, no lock
        if session is None:
            raise RequestError("no_such_session", f"unknown session {sid!r}")
        return session

    # -- handlers --------------------------------------------------------

    def _op_open_session(self, request: dict, conn_id: int) -> dict:
        trace = request.get("trace")
        if not isinstance(trace, str):
            raise RequestError("bad_request", "open_session needs a 'trace' path")
        thread = request.get("thread", 0)
        if not isinstance(thread, int):
            raise RequestError("bad_request", "'thread' must be an integer")
        max_candidates = request.get("max_candidates", 64)
        if not isinstance(max_candidates, int) or not (
            1 <= max_candidates <= MAX_CANDIDATES_LIMIT
        ):
            raise RequestError(
                "bad_request",
                f"'max_candidates' must be in [1, {MAX_CANDIDATES_LIMIT}]",
            )
        flight_capacity = request.get("flight", 256)
        if not isinstance(flight_capacity, int) or not (
            0 <= flight_capacity <= 65536
        ):
            raise RequestError("bad_request", "'flight' must be in [0, 65536]")
        bundle = self.store.get(trace)
        tracker = bundle.tracker(thread, max_candidates=max_candidates)
        ctx_sid, _ctx_rid = self._request_ctx(request)
        with self._lock:
            num = next(self._session_ids)
            sid = f"s{num}"
            self._sessions[sid] = _Session(
                sid, bundle, thread, tracker, conn_id, ctx_sid=ctx_sid
            )
            self.counters["sessions_opened"] += 1
        if flight_capacity:
            # fold the client's session id into the recorder name so
            # every flight entry carries the cross-process correlation id
            flight_name = f"{sid}.{os.path.basename(bundle.path)}.t{thread}"
            if ctx_sid is not None:
                flight_name = f"{ctx_sid}.{flight_name}"
            tracker.attach_flight(
                FlightRecorder(flight_capacity, session=flight_name)
            )
        if request.get("drift", True):
            tracker.attach_drift(DriftMonitor())
        _log.debug("session_opened", session=sid, trace=bundle.path, thread=thread)
        out = {
            "session": sid,
            # numeric spelling for binary hot requests (protocol v2);
            # its presence tells the client it may send binary frames,
            # and old clients ignore the extra key
            "snum": num,
            "trace": bundle.path,
            "thread": thread,
            "threads": bundle.threads(),
            "meta": bundle.trace.meta,
            "event_count": bundle.trace.event_count,
        }
        if self.worker_id is not None:
            out["worker"] = self.worker_id
        if request.get("with_registry"):
            out["registry"] = bundle.registry.to_obj()
        return out

    def _op_close_session(self, request: dict, conn_id: int) -> dict:
        session = self._session(request)
        with self._lock:
            self._sessions.pop(session.session_id, None)
            self.counters["sessions_closed"] += 1
        with session.lock:
            session.tracker.flush_metrics()
        return {"session": session.session_id}

    @staticmethod
    def _distance(request: dict) -> int:
        distance = request.get("distance", 1)
        if not isinstance(distance, int) or distance < 1:
            raise RequestError("bad_request", "'distance' must be a positive integer")
        return distance

    @staticmethod
    def _observe(session: _Session, request: dict, events: list | None) -> list[bool]:
        """Feed the request's events to the tracker (``session.lock`` held).

        ``events`` is a JSON batch of ``[name]`` / ``[name, payload]``
        items, or None for the single event a request carries: a binary
        frame's terminal — resolved by the client against the registry
        it fetched at ``open_session``, so only range-checked here — or
        a JSON ``name``/``payload``.  Names resolve exactly as
        ``Pythia.event`` resolves them, and an event the reference run
        never recorded takes the same ``observe_unknown`` path whichever
        framing carried it.
        """
        tracker = session.tracker
        registry = session.bundle.registry
        if events is None:
            if _TERMINAL not in request:
                events = ((request.get("name"), request.get("payload")),)
            else:
                terminal = request[_TERMINAL]
                if terminal is None:
                    return [tracker.observe_unknown()]
                if not 0 <= terminal < len(registry):
                    raise RequestError(
                        "bad_request", f"terminal {terminal} not in registry"
                    )
                return [tracker.observe(terminal)]
        matched = []
        for item in events:
            if not isinstance(item, (list, tuple)) or not 1 <= len(item) <= 2:
                raise RequestError(
                    "bad_request", "each event must be [name] or [name, payload]"
                )
            if not isinstance(item[0], str):
                raise RequestError("bad_request", "'name' must be a string")
            payload = decode_payload(item[1] if len(item) == 2 else None)
            terminal = registry.lookup(Event(item[0], payload))
            matched.append(
                tracker.observe_unknown() if terminal is None
                else tracker.observe(terminal)
            )
        return matched

    def _op_observe(self, request: dict, conn_id: int) -> dict:
        session = self._session(request)
        with session.lock:
            (matched,) = self._observe(session, request, None)
        with self._lock:
            self.counters["events_observed"] += 1
        return {"matched": matched}

    def _op_observe_batch(self, request: dict, conn_id: int) -> dict:
        session = self._session(request)
        events = request.get("events")
        if not isinstance(events, list):
            raise RequestError("bad_request", "'events' must be a list of [name, payload]")
        with session.lock:
            matched = self._observe(session, request, events)
        with self._lock:
            self.counters["events_observed"] += len(matched)
        return {"matched": matched}

    def _op_observe_predict(self, request: dict, conn_id: int) -> dict:
        """Fused observe + predict: one round trip for the runtime loop.

        Observes ``name``/``payload`` (or, batched, every ``events``
        item) and then predicts once — equivalent to an ``observe`` (or
        ``observe_batch``) request followed by ``predict``, in one frame.
        With ``require_match`` the predict half is skipped when the last
        event mismatched and ``prediction`` is ``null``.
        """
        session = self._session(request)
        distance = self._distance(request)
        with_time = bool(request.get("with_time", False))
        require_match = bool(request.get("require_match", False))
        events = request.get("events")
        if events is not None and (not isinstance(events, list) or not events):
            raise RequestError(
                "bad_request", "'events' must be a non-empty list of [name, payload]"
            )
        with session.lock:
            matched = self._observe(session, request, events)
            predicted = not (require_match and not matched[-1])
            pred = (
                session.tracker.predict(distance, with_time=with_time)
                if predicted
                else None
            )
        with self._lock:
            self.counters["events_observed"] += len(matched)
            if predicted:
                self.counters["predictions_served"] += 1
        return {
            "matched": matched if events is not None else matched[0],
            "prediction": pred,
        }

    def _op_predict(self, request: dict, conn_id: int) -> dict:
        session = self._session(request)
        distance = self._distance(request)
        with_time = bool(request.get("with_time", False))
        with session.lock:
            pred = session.tracker.predict(distance, with_time=with_time)
        with self._lock:
            self.counters["predictions_served"] += 1
        return {"prediction": pred}

    def _op_predict_duration(self, request: dict, conn_id: int) -> dict:
        session = self._session(request)
        distance = self._distance(request)
        with session.lock:
            eta = session.tracker.predict_duration(distance)
        with self._lock:
            self.counters["predictions_served"] += 1
        return {"eta": eta}

    def _op_explain(self, request: dict, conn_id: int) -> dict:
        """Prediction provenance for one session (``Pythia.explain``).

        ``names=true`` resolves terminal ids to event names server-side,
        saving the client a registry fetch (the CLI uses it).
        """
        session = self._session(request)
        distance = self._distance(request)
        top_k = request.get("top_k", 3)
        if not isinstance(top_k, int) or not 1 <= top_k <= 64:
            raise RequestError("bad_request", "'top_k' must be in [1, 64]")
        with_time = bool(request.get("with_time", False))
        with session.lock:
            explanation = session.tracker.explain(
                distance, top_k=top_k, with_time=with_time
            )
        if explanation is None:
            return {"explanation": None}
        name_of = session.bundle.registry.name if request.get("names") else None
        return {"explanation": explanation.to_obj(name_of)}

    def _op_flight_dump(self, request: dict, conn_id: int) -> dict:
        """One session's flight-recorder journal (+ drift report)."""
        session = self._session(request)
        fmt = request.get("format", "jsonl")
        if fmt not in ("jsonl", "chrome"):
            raise RequestError("bad_request", "'format' must be 'jsonl' or 'chrome'")
        with session.lock:
            flight = session.tracker.flight
            drift = session.tracker.drift
            out: dict = {
                "session": session.session_id,
                "drift": drift.report() if drift is not None else {},
            }
            if flight is None:
                out["entries" if fmt == "jsonl" else "trace"] = None
            elif fmt == "chrome":
                out["trace"] = flight.to_chrome_trace()
            else:
                out["entries"] = flight.entries()
        return out

    def _op_registry(self, request: dict, conn_id: int) -> dict:
        trace = request.get("trace")
        if isinstance(trace, str):
            bundle = self.store.get(trace)
        else:
            bundle = self._session(request).bundle
        return {"registry": bundle.registry.to_obj()}

    def _op_stats(self, request: dict, conn_id: int) -> dict:
        if request.get("session") is not None:
            session = self._session(request)
            with session.lock:
                return {"session_stats": session.tracker.stats()}
        self._fold_timings()
        with self._lock:
            # the stats view stays keyed by op (its pre-v2 shape):
            # per-proto histograms of one op merge into a detached
            # aggregate — metrics keep the proto split, stats callers
            # keep their keys.  A disabled registry (PYTHIA_METRICS=0)
            # hands out null instruments, which hold no samples to merge
            merged: dict[str, Histogram] = {}
            for (op_key, _proto), h in self._latency.items():
                if not isinstance(h, Histogram):
                    continue
                agg = merged.get(op_key)
                if agg is None:
                    merged[op_key] = agg = Histogram(
                        "pythia_server_request_seconds_view",
                        buckets=LATENCY_BUCKETS_S,
                    )
                agg.merge(h)
            out = {
                "counters": dict(self.counters),
                "sessions_active": len(self._sessions),
                "session_ids": sorted(self._sessions),
                "store": self.store.snapshot(),
                "latency": {op: _latency_view(h) for op, h in merged.items()},
            }
        if self.worker_id is not None:
            out["worker"] = self.worker_id
        return out

    def _op_sessions(self, request: dict, conn_id: int) -> dict:
        """The per-client-session telemetry table, joined with live trackers.

        Rows come from the bounded :class:`SessionStats` LRU; for rows
        whose client sid currently owns live daemon sessions, the
        tracker-side view (hit rate, drift state, candidates) is merged
        in.  ``pythia-trace sessions`` and ``pythia-trace top`` read
        this.
        """
        table = self.session_stats.snapshot()
        with self._lock:
            live = list(self._sessions.values())
        joined = self._join_live(live, [row["sid"] for row in table["sessions"]])
        for row in table["sessions"]:
            got = joined.get(row["sid"])
            if got is None:
                row["live_sessions"] = []
                continue
            row["live_sessions"], agg, drift_states = got
            row["hit_rate"] = round(agg.get("hit_rate", 0.0), 4)
            row["observed"] = agg.get("observed", 0)
            row["candidates"] = agg.get("candidates", 0)
            # worst state wins: any diverged tracker flags the session
            for state in ("diverged", "drifting", "ok"):
                if state in drift_states:
                    row["drift_state"] = state
                    break
        return table

    @staticmethod
    def _join_live(
        live: list[_Session], sids: list[str]
    ) -> dict[str, tuple[list[str], dict, list[str]]]:
        """Read every live session once and join them to the client
        session ids ``sids``.

        Each tracker's ``stats()`` is read under its session's lock,
        which publishes its counters.  For each id that owns live
        sessions: their sorted session ids, the :func:`aggregate_stats`
        of their trackers' ``stats()`` and their trackers' drift states.
        The ``sessions`` op and the metrics collector both read this.
        """
        by_sid: dict[str | None, list[tuple[str, dict, str | None]]] = {}
        for session in live:
            with session.lock:
                drift = session.tracker.drift
                by_sid.setdefault(session.ctx_sid, []).append((
                    session.session_id, session.tracker.stats(),
                    None if drift is None else drift.state,
                ))
        joined = {}
        for sid in sids:
            if sid in by_sid:
                ids, reports, states = zip(*by_sid[sid])
                joined[sid] = (
                    sorted(ids),
                    aggregate_stats(list(reports)),
                    [state for state in states if state is not None],
                )
        return joined

    #: labeled per-session families published by the collector; removed
    #: on LRU eviction so exposition cardinality stays bounded
    _SESSION_METRIC_FAMILIES: tuple[tuple[str, str, str], ...] = (
        ("pythia_session_requests_total", "counter",
         "Requests dispatched for a client session id"),
        ("pythia_session_errors_total", "counter",
         "Error responses sent to a client session id"),
        ("pythia_session_rid_regressions_total", "counter",
         "Requests whose request id failed to advance (duplicate/replay)"),
        ("pythia_session_last_rid", "gauge",
         "Highest request id seen from a client session id"),
        ("pythia_session_age_seconds", "gauge",
         "Seconds since a client session id was last seen"),
        ("pythia_session_hit_rate", "gauge",
         "Aggregate tracker hit rate of a client session id's live sessions"),
    )

    def _drop_session_metrics(self, entry: SessionEntry) -> None:
        """SessionStats eviction hook: drop the evicted sid's series."""
        registry = obs_metrics.get_registry()
        for name, _kind, _help in self._SESSION_METRIC_FAMILIES:
            registry.remove(name, {"session": entry.sid})

    def _op_metrics(self, request: dict, conn_id: int) -> dict:
        return {"text": render_prometheus(obs_metrics.get_registry())}

    def _op_profile_dump(self, request: dict, conn_id: int) -> dict:
        """Collapsed stacks / flamegraph SVG from the sampling profiler.

        ``seconds > 0`` collects a fresh window (snapshot-diffed against
        the running profiler, or on a temporary one while profiling is
        off); ``seconds == 0`` returns the running profiler's cumulative
        view.  Capped at 60 s — the window holds a thread of its own
        (see :mod:`repro.server.eventloop`).
        """
        fmt, seconds, hz = profile_args(request)
        prof = obs_profiler.get_profiler()
        if seconds > 0:
            stacks, report = obs_profiler.profile_window(
                float(seconds), float(hz) or obs_profiler.DEFAULT_HZ
            )
        elif prof is not None:
            stacks, report = prof.snapshot(), prof.report()
        else:
            raise RequestError(
                "profiler_off",
                "no profiler running (PYTHIA_PROFILE_HZ=0); pass seconds > 0 "
                "to collect a temporary window",
            )
        title = "pythia oracle daemon"
        if self.worker_id is not None:
            title += f" (worker {self.worker_id})"
        out: dict = {"format": fmt, "report": report}
        if fmt == "svg":
            out["profile"] = obs_profiler.render_flamegraph(stacks, title=title)
        else:
            out["profile"] = obs_profiler.render_collapsed(stacks)
        return out

    def _op_history(self, request: dict, conn_id: int) -> dict:
        """Metrics history view: series + per-second rates over a window."""
        hist = self.history
        if hist is None:
            raise RequestError(
                "history_off", "metrics history is disabled (PYTHIA_HISTORY=0)"
            )
        window, keys = history_args(request)
        return {"history": hist.view(keys, window)}

    # ------------------------------------------------------------------
    # HTTP observability provider (the obs.httpd duck interface)
    # ------------------------------------------------------------------

    def admin(self, request: dict) -> dict:
        """Answer one admin request with its reply, ``ok`` included.

        Runs the :attr:`_HANDLERS` entry as :meth:`dispatch` would, but
        without its request accounting, so an HTTP scrape does not count
        as a request.
        """
        op = request.get("op")
        try:
            handler = self._HANDLERS.get(op)
            if handler is None:
                raise RequestError("unknown_op", f"unknown request op {op!r}")
            return {"ok": True, **handler(self, request, 0)}
        except Exception as exc:
            code, message = _error_of(exc)
            return {"ok": False, "code": code, "error": message}

    def readiness(self) -> tuple[bool, str]:
        """``/ready``: False (503) while draining or stopped."""
        if self._draining.is_set():
            return False, "draining"
        if not self._running.is_set():
            return False, "stopped"
        return True, "ready"

    def _collect_metrics(self, registry: obs_metrics.MetricsRegistry) -> None:
        """Scrape-time collector: daemon counters, store and live trackers."""
        self._fold_timings()
        with self._lock:
            counters = dict(self.counters)
            sessions = list(self._sessions.values())
            store = self.store.snapshot()
        for name, value in counters.items():
            registry.counter(
                f"pythia_server_{name}", help="Daemon lifetime counter"
            )._set_total(value)
        registry.gauge(
            "pythia_server_sessions_active", help="Currently open sessions"
        ).set(len(sessions))
        registry.gauge(
            "pythia_server_draining", help="1 while the daemon refuses new work"
        ).set(1 if self._draining.is_set() else 0)
        for key in ("hits", "misses"):
            if key in store:
                registry.counter(
                    f"pythia_server_trace_store_{key}_total",
                    help="Trace store lookup outcome",
                )._set_total(store[key])
        # reads (and so publishes) every live tracker once; labeled
        # per-client-session series are bounded by the LRU table
        # (eviction removes a sid's series via _drop_session_metrics)
        entries = self.session_stats.entries()
        joined = self._join_live(sessions, [entry.sid for entry in entries])
        helps = {name: help_text for name, _k, help_text in self._SESSION_METRIC_FAMILIES}
        now = time.time()
        for entry in entries:
            labels = {"session": entry.sid}
            registry.counter(
                "pythia_session_requests_total", labels,
                help=helps["pythia_session_requests_total"],
            )._set_total(entry.requests)
            registry.counter(
                "pythia_session_errors_total", labels,
                help=helps["pythia_session_errors_total"],
            )._set_total(entry.errors)
            registry.counter(
                "pythia_session_rid_regressions_total", labels,
                help=helps["pythia_session_rid_regressions_total"],
            )._set_total(entry.rid_regressions)
            registry.gauge(
                "pythia_session_last_rid", labels,
                help=helps["pythia_session_last_rid"],
            ).set(entry.last_rid)
            registry.gauge(
                "pythia_session_age_seconds", labels,
                help=helps["pythia_session_age_seconds"],
            ).set(max(0.0, now - entry.last_seen))
            got = joined.get(entry.sid)
            if got is not None:
                registry.gauge(
                    "pythia_session_hit_rate", labels,
                    help=helps["pythia_session_hit_rate"],
                ).set(round(got[1].get("hit_rate", 0.0), 6))

    def _op_ping(self, request: dict, conn_id: int) -> dict:
        out: dict = {"pong": True}
        if self.worker_id is not None:
            out["worker"] = self.worker_id
            out["pid"] = os.getpid()
        return out

    #: ops still answered while draining: clients closing down cleanly
    #: and monitors watching the drain happen must not be locked out
    _DRAIN_OPS = frozenset({"close_session", "ping", "stats", "sessions", "metrics",
                            "history", "profile_dump"})

    _HANDLERS = {
        "open_session": _op_open_session,
        "close_session": _op_close_session,
        "observe": _op_observe,
        "observe_batch": _op_observe_batch,
        "observe_predict": _op_observe_predict,
        "predict": _op_predict,
        "predict_duration": _op_predict_duration,
        "explain": _op_explain,
        "flight_dump": _op_flight_dump,
        "registry": _op_registry,
        "stats": _op_stats,
        "sessions": _op_sessions,
        "metrics": _op_metrics,
        "profile_dump": _op_profile_dump,
        "history": _op_history,
        "ping": _op_ping,
    }
