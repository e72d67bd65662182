"""Client-side mirror of the :class:`~repro.core.oracle.Pythia` facade.

A runtime system that links against :class:`Pythia` can switch to a
shared daemon by swapping one constructor::

    oracle = Pythia(trace_path, mode="predict")          # in-process
    oracle = PythiaClient(trace_path, socket=sock_path)  # remote daemon

Everything the interposers touch behaves identically: ``event`` returns
the matched flag, ``predict`` returns the same :class:`Prediction`
(terminal, probability, eta and distribution are byte-identical — the
daemon runs the same tracker over the same grammar), ``registry`` is
fetched once from the daemon, per-``thread`` addressing opens one
daemon session per thread lazily, and an unknown thread raises
:class:`KeyError` just like the facade.

The client only *predicts*: recording stays local (record anywhere,
predict from one long-lived daemon).  It is safe to share between
threads — requests are serialized over one connection.

Fault tolerance
---------------
The daemon sits on the critical path of every interposed runtime, so a
daemon hiccup must never take the host application with it.  The client
therefore:

- **never reuses a desynchronized socket** — any timeout, ``OSError``
  or :class:`~repro.server.protocol.ProtocolError` mid-request closes
  the connection immediately (a request that timed out mid-reply would
  otherwise leave half a frame on the wire and the *next* request would
  decode the stale bytes as its answer);
- **reconnects with capped exponential backoff plus jitter** under a
  per-request retry budget and deadline (:class:`RetryPolicy`);
- **re-establishes its sessions after a reconnect** — a ring of the
  most recent observed events per thread (``resync_window``) is
  replayed through ``observe_batch``, so the fresh daemon-side tracker
  attaches mid-stream and resynchronises (§II-B2); while the ring
  still covers the whole run (or with ``resync_window=None``, which
  keeps the full history) the post-resync prediction stream is
  byte-identical to an uninterrupted run, and with a bounded ring the
  top prediction converges immediately while residual candidate mass
  may differ by a fraction of a percent;
- **degrades instead of crashing** — when the retry budget is
  exhausted the client switches permanently to an in-process
  :class:`Pythia` over the same trace path (``fallback="local"``), or
  to reporting every prediction as lost (``fallback="lost"``), or
  re-raises (``fallback="raise"``).  The local fallback is seeded with
  the rings, so it starts resynchronised.

Every transition is observable: ``pythia_client_reconnects_total`` /
``pythia_client_retries_total`` / ``pythia_client_fallbacks_total``
counters, a client-side flight recorder journaling each reconnect,
resync and fallback (dumped via ``PYTHIA_FLIGHT_DIR``), and the same
counters mirrored on :attr:`PythiaClient.counters`.

Request tracing
---------------
Unless ``context=False``, every request is stamped with a ``ctx``
field: a client-lifetime session id (:attr:`session_id`, stable across
reconnects and daemon restarts, so one logical run stays one trace)
and a monotonically increasing request id — each *transmitted attempt*
gets a fresh rid, so retries never reuse one.  The full ``ctx`` rides
only until the daemon first echoes timing back (proof the identity is
bound to the connection); from then on requests carry no stamp at all
— the daemon counts consecutive rids on the bound connection, mirror
of the client's own counter, so steady-state tracing adds zero bytes
to the request.  A context-aware daemon echoes server-side timing (``srv``:
queue and handler microseconds) in each reply, and the client
decomposes its observed round-trip into
**wire** (the residual), **queue** and **handler** components:
``pythia_client_request_seconds{op=...,component=...}`` histograms,
:attr:`last_timing`, and :meth:`timing_report`.  With span recording
on (``PYTHIA_SPANS=1`` / :func:`~repro.obs.spans.enable_spans`) each
request also emits a ``client.<op>`` span tagged ``sid``/``rid`` that
correlates 1:1 with the daemon's ``server.<op>`` span.  Old daemons
simply ignore ``ctx`` and return no ``srv``; only the total is then
recorded.

Framing and admin requests
--------------------------
The ``open_session`` reply says whether the daemon speaks the binary
framing: a daemon that does advertises the session's number
(``snum``), which is what a binary frame carries instead of the
session id.  So every connection learns its framing from its first
session, with no extra round trip.  Admin requests (``server_stats``,
``sessions``, ``history``) never ride the session connection: each one
goes through :func:`admin_request` on a fresh connection without
session context, so a session connection always starts with a session
op, and behind a supervisor the answer is the whole tier's merged view.

Request queue
-------------
Every frame on the session connection goes through one ordered queue
of outstanding requests.  An entry records its op, rid and send time,
where its reply goes (the waiting caller, or a pipeline's result slot)
and the ring events an ok reply confirms.  A *write* buffers a frame
and its entry, a flush hands the buffer to one ``sendall``, and a
*settle* reads the next reply and retires the head entry — timing,
``srv`` binding and ring confirmation happen there only.  A
synchronous call writes one frame, flushes and settles; a pipeline
window writes N, flushes once and settles N.  A transport error drops
every unsettled entry with the connection: no unconfirmed event ever
enters the ring.
"""

from __future__ import annotations

import json
import os
import random
import socket
import threading
import uuid
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import partial
from time import monotonic, perf_counter, sleep
from typing import Hashable

from repro.core.events import Event, EventRegistry
from repro.core.explain import Explanation
from repro.core.predict import Prediction
from repro.core.trace_file import TraceFormatError
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.accuracy import aggregate_stats
from repro.obs.flight import FlightRecorder
from repro.obs.log import get_logger
from repro.obs.metrics import LATENCY_BUCKETS_S
from repro.server.protocol import (
    BIN_REQ,
    F_HAS_SRV,
    F_MATCHED,
    F_REQUIRE_MATCH,
    F_UNKNOWN_EVENT,
    F_WITH_TIME,
    OP_OBSERVE,
    OP_OBSERVE_PREDICT,
    OP_PREDICT,
    OP_REPLY_ERROR,
    OP_REPLY_MATCHED,
    OP_REPLY_PREDICT,
    RETRYABLE_CODES,
    SRV_PAIR,
    ProtocolError,
    decode_bin_error,
    decode_bin_prediction,
    decode_payload,
    decode_prediction,
    encode_bin_frame,
    encode_json_frame,
    encode_payload,
    read_frame,
    read_frame_any,
    unix_address,
    write_frame,
)

__all__ = [
    "OraclePipeline", "OracleServiceError", "PythiaClient", "RetryPolicy",
    "admin_request",
]

#: JSON op name -> binary opcode for the requests that have a binary
#: spelling (protocol v2 hot path)
_BIN_OPCODES = {
    "observe": OP_OBSERVE,
    "observe_predict": OP_OBSERVE_PREDICT,
    "predict": OP_PREDICT,
}

_log = get_logger("client")


class OracleServiceError(RuntimeError):
    """The daemon answered with an error the facade has no analog for."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


@dataclass(frozen=True)
class RetryPolicy:
    """How hard a :class:`PythiaClient` fights for one request.

    A *retry* is one failed attempt (connect refused, request timed
    out, connection broke, daemon answered ``shutting_down``).  After
    ``max_retries`` retries — or once ``deadline`` seconds have been
    spent on the request including backoff sleeps — the client stops
    retrying and enters degraded mode (see ``fallback``).

    Backoff before retry *n* (1-based) is
    ``min(cap, base * 2**(n-1)) * (1 + jitter * U[0,1))``.
    """

    max_retries: int = 5
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.5
    deadline: float | None = 60.0

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry ``attempt`` (1-based), jittered."""
        base = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        return base * (1.0 + self.jitter * rng.random())


class _UseFallback(Exception):
    """Internal: the retry budget is gone; serve from the fallback."""


class _RetryableFailure(Exception):
    """Internal: this attempt failed but the request may be retried."""

    def __init__(self, cause: BaseException | str) -> None:
        super().__init__(str(cause))
        self.cause = cause if isinstance(cause, BaseException) else None


@dataclass(slots=True)
class _Entry:
    """One outstanding request: ``op`` and ``rid`` name it in the timing
    and its span, ``sent`` is when its flush began, ``slot`` is the
    pipeline results list its reply goes to (None: the waiting caller),
    and an ok reply confirms ``confirms`` into ``thread``'s ring.  A
    traced reply's timing (seconds) is kept on the entry it settles."""

    op: str
    rid: int
    slot: list | None
    thread: int | None
    confirms: tuple | list
    sent: float = 0.0
    total: float = 0.0
    queue: float | None = None
    handler: float | None = None


class _LostOracle:
    """Fallback of last resort: every prediction is honestly lost.

    Used when the daemon is unreachable *and* the trace cannot be
    loaded locally (different host, unreadable file).  Mirrors the
    facade surface the client needs: events never match, predictions
    are ``None``, so a §III-E-aware runtime falls back to its own
    heuristics instead of crashing.
    """

    mode = "predict"

    def event(self, name, payload=None, *, timestamp=None, thread=0) -> bool:
        return False

    def event_and_predict(self, name, payload=None, **kwargs):
        return False, None

    def predict(self, distance=1, *, thread=0, with_time=False):
        return None

    def predict_duration(self, distance=1, *, thread=0):
        return None

    def explain(self, distance=1, *, thread=0, top_k=3, with_time=False):
        return None

    def stats(self, thread=None) -> dict:
        return {"observed": 0, "matched": 0, "unexpected": 0, "unknown": 0,
                "predictions": 0, "lost": True}

    def finish(self) -> None:
        return None


class PythiaClient:
    """Remote PYTHIA-PREDICT oracle over an oracle-service daemon.

    Parameters
    ----------
    trace_path:
        Reference trace the daemon should serve (a path valid *on the
        daemon's host*; with a Unix socket that is this machine).
    socket:
        Unix socket path, or a ``(host, port)`` tuple for TCP.
    max_candidates:
        Tracker bound, forwarded to the daemon per session.
    timeout:
        Socket timeout in seconds for connect and each request I/O.
    retry:
        :class:`RetryPolicy` for reconnect/backoff;
        ``RetryPolicy(max_retries=0)`` fails a request on its first
        transport error (still followed by the fallback).
    resync_window:
        How many recent observed events per thread are kept for session
        replay after a reconnect, or ``None`` to keep the full history.
        The replayed tracker re-attaches mid-stream (§II-B2): its top
        prediction converges within a handful of events, but on
        grammars with long loops a low-weight alternative candidate
        can survive any bounded ring (the ring cannot disambiguate
        *which iteration* the run is in), leaving post-resync
        probabilities a fraction of a percent off an uninterrupted
        run.  ``None`` guarantees byte-identical predictions after a
        resync, at the cost of unbounded memory and a full-history
        replay; the default of 256 bounds both and is exact whenever
        the ring still covers the whole run.
    fallback:
        What happens when the retry budget is exhausted:
        ``"local"`` (default) switches to an in-process
        :class:`~repro.core.oracle.Pythia` over ``trace_path`` (seeded
        with the rings; falls back to ``"lost"`` when the trace cannot
        be loaded locally), ``"lost"`` reports every event unmatched
        and every prediction ``None``, ``"raise"`` re-raises the last
        transport error.
    context:
        Stamp every request with tracing context (``ctx``: session id
        + request id) and decompose reply latency (default True).
        ``False`` restores the pre-tracing wire format byte for byte.
    session_id:
        Override the generated client session id (at most 128 chars;
        useful when an outer system owns correlation ids).
    protocol:
        ``"auto"`` (default) uses the compact binary framing for hot
        requests when the daemon supports it — an ``open_session``
        reply that carries ``snum`` says so — and JSON against old
        daemons.  ``"json"`` never looks and stays on JSON (the pre-v2
        wire format); ``"binary"`` demands v2 and raises
        :class:`OracleServiceError` (code ``protocol``) when an
        ``open_session`` reply has no ``snum``.  Predictions are
        byte-identical across framings — the binary path resolves
        ``(name, payload)`` against the same registry the daemon would
        use.
    """

    mode = "predict"

    def __init__(
        self,
        trace_path: str | os.PathLike,
        *,
        socket: str | os.PathLike | tuple[str, int],
        max_candidates: int = 64,
        timeout: float | None = 30.0,
        retry: RetryPolicy = RetryPolicy(),
        resync_window: int | None = 256,
        fallback: str = "local",
        context: bool = True,
        session_id: str | None = None,
        protocol: str = "auto",
    ) -> None:
        if fallback not in ("local", "lost", "raise"):
            raise ValueError(f"unknown fallback {fallback!r}")
        if protocol not in ("auto", "json", "binary"):
            raise ValueError(f"unknown protocol {protocol!r}")
        if resync_window is not None and resync_window < 1:
            raise ValueError("resync_window must be >= 1 or None")
        if session_id is not None and not 0 < len(session_id) <= 128:
            raise ValueError("session_id must be 1..128 characters")
        self.trace_path = os.fspath(trace_path)
        self.address = socket
        self.retry = retry
        self.resync_window = resync_window
        self.fallback = fallback
        self._max_candidates = max_candidates
        self._timeout = timeout
        # reentrant: a pipeline holds it while it ensures its session
        self._lock = threading.RLock()
        self._sessions: dict[int, str] = {}
        #: daemon session id -> its numeric spelling (the ``snum`` the
        #: open_session reply advertised; what binary frames carry)
        self._snums: dict[str, int] = {}
        #: requested protocol ("auto"/"json"/"binary") vs the framing
        #: in use: None before the first open_session, then "binary" or
        #: "json" as each open_session reply says (snum or not)
        self._protocol = protocol
        self._proto_state: str | None = "json" if protocol == "json" else None
        #: per thread, the most recent confirmed events (resync replay)
        self._rings: dict[int, deque] = defaultdict(
            partial(deque, maxlen=resync_window)
        )
        self._registry: EventRegistry | None = None
        self._finished = False
        self._degraded = False
        self._fallback_oracle = None
        self._rng = random.Random(f"pythia-client:{self.trace_path}")
        #: client-lifetime session id: stamped into every request's
        #: ``ctx``, stable across reconnects and daemon restarts
        self.session_id = (
            session_id if session_id is not None else f"c{uuid.uuid4().hex[:12]}"
        )
        self._ctx = bool(context)
        self._rid = 0  # last transmitted request id (under self._lock)
        # pre-serialized ctx fragment: per request only the rid varies,
        # so the sid half (escaped once, here) never hits the encoder
        self._ctx_prefix = ',"ctx":{"sid":%s,"rid":' % json.dumps(self.session_id)
        # once a reply carries srv the daemon has bound our identity to
        # this connection and no stamp is needed; reset on reconnect
        self._sid_bound = False
        #: outstanding requests on the connection, oldest first; the
        #: last ``_unsent`` of them are written to ``_wbuf``, not flushed
        self._queue: deque[_Entry] = deque()
        self._wbuf = bytearray()
        self._unsent = 0
        #: wire/queue/handler/total digests keyed (op, component), as
        #: pythia_client_request_seconds{op=...,component=...} in the
        #: metrics registry; fed in batches from _timing_pending, per
        #: op parallel float lists (totals, srv_totals, queues,
        #: handlers) — no tuple per reply, which measurably taxes the
        #: round trip.  Readers flush first.
        self._timing: dict[tuple[str, str], object] = {}
        self._timing_pending: dict[str, tuple] = {}
        self._last: _Entry | None = None  # the last traced reply's entry
        #: fault-layer counters, mirrored into the metrics registry
        self.counters = {"reconnects": 0, "retries": 0, "fallbacks": 0}
        reg = obs_metrics.get_registry()
        self._m_reconnects = reg.counter(
            "pythia_client_reconnects_total",
            help="Connections re-established to the oracle daemon",
        )
        self._m_retries = reg.counter(
            "pythia_client_retries_total",
            help="Request attempts that failed and were retried",
        )
        self._m_fallbacks = reg.counter(
            "pythia_client_fallbacks_total",
            help="Transitions into degraded (daemon-less) mode",
        )
        self._flight = FlightRecorder(
            64, session=f"client.{os.path.basename(self.trace_path)}"
        )
        #: worker id the daemon advertised at open_session (multi-worker
        #: deployments; None for a single-process daemon)
        self._worker: int | None = None
        self._sock: "socket.socket | None" = None
        self._lost = False  # True from a lost connection to its replacement
        try:
            self._sock = self._connect(socket, timeout)
        except OSError as exc:
            # daemon not up yet: stay disconnected, the first request
            # runs the full retry/backoff/fallback machinery
            _log.debug("connect_deferred", error=str(exc))

    @staticmethod
    def _connect(address, timeout) -> socket.socket:
        if isinstance(address, tuple):
            sock = socket.create_connection(address, timeout=timeout)
            # a request is one small frame followed by a blocking read
            # of the reply — exactly the shape Nagle penalizes.  Without
            # this, wire time dominates handler time by ~5x on TCP.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout)
                with unix_address(address) as path:
                    sock.connect(path)
            except OSError:
                sock.close()
                raise
        return sock

    # ------------------------------------------------------------------
    # fault-tolerant request plumbing
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True once the client has given up on the daemon."""
        return self._degraded

    def _invalidate_connection(self) -> None:
        """Drop the socket, every session living on it and every
        unsettled request (whose events thus never reach the ring).

        Called on any transport error: after a timeout or protocol
        violation the byte stream position is unknown, so the socket
        must never be reused — and the daemon closes our sessions when
        the connection dies, so the session ids are dead too.
        """
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._lost = True
        self._sessions.clear()
        self._snums.clear()
        self._sid_bound = False  # a fresh connection starts unbound
        self._discard_unsent()
        self._queue.clear()

    def _timing_hist(self, op: str, component: str):
        """The (op, component) latency digest, created on first use."""
        hist = self._timing.get((op, component))
        if hist is None:
            hist = obs_metrics.get_registry().histogram(
                "pythia_client_request_seconds",
                {"op": op, "component": component},
                buckets=LATENCY_BUCKETS_S,
                help="Client-observed request latency split into "
                     "wire/queue/handler/total components",
            )
            self._timing[(op, component)] = hist
        return hist

    def _flush_timing(self) -> None:
        """Fold pending raw samples into the (op, component) digests.

        Called under ``self._lock`` (hot path when a batch fills, and
        every reader before looking at ``self._timing``).  The wire
        component — the residual ``total - queue - handler`` (send +
        receive + scheduling) — is derived here, once per batch.
        """
        for op, pend in self._timing_pending.items():
            totals, srv_totals, queues, handlers = pend
            if not totals:
                continue
            self._timing_hist(op, "total").observe_batch(totals)
            if srv_totals:
                wires: list[float] = []
                for total_s, queue_s, handler_s in zip(
                    srv_totals, queues, handlers
                ):
                    wire_s = total_s - queue_s - handler_s
                    wires.append(wire_s if wire_s > 0.0 else 0.0)
                self._timing_hist(op, "wire").observe_batch(wires)
                self._timing_hist(op, "queue").observe_batch(queues)
                self._timing_hist(op, "handler").observe_batch(handlers)
            del totals[:], srv_totals[:], queues[:], handlers[:]

    @property
    def last_timing(self) -> dict | None:
        """Decomposition of the most recent traced reply, in µs.

        ``None`` before any traced request (or with ``context=False``).
        Built lazily from the settled entry so the per-request cost
        stays off the hot path.
        """
        entry = self._last
        if entry is None:
            return None
        total_s = entry.total
        queue_s = entry.queue
        handler_s = entry.handler
        if queue_s is None:
            wire_us = queue_us = handler_us = None
        else:
            wire_s = total_s - queue_s - handler_s
            wire_us = round(wire_s * 1e6, 1) if wire_s > 0.0 else 0.0
            queue_us = round(queue_s * 1e6, 1)
            handler_us = round(handler_s * 1e6, 1)
        return {
            "op": entry.op,
            "sid": self.session_id,
            "rid": entry.rid,
            "total_us": round(total_s * 1e6, 1),
            "wire_us": wire_us,
            "queue_us": queue_us,
            "handler_us": handler_us,
        }

    # -- the request queue: write, flush, settle ---------------------------

    def _write(
        self, request: dict, thread: int | None = None, confirms=(), slot=None
    ) -> None:
        """Buffer ``request``'s frame and queue its :class:`_Entry`.

        Binary when negotiated and the request has a binary spelling,
        else JSON; a binary frame carries no ctx, so an unbound traced
        client sends JSON with the full stamp until the daemon binds its
        identity (the supervisor routes by it).  Every frame takes a
        fresh rid — a retry never reuses one; once bound the rid travels
        implicitly (the daemon counts frames on the connection).
        """
        traced = self._ctx
        frame = None
        if self._proto_state == "binary" and (not traced or self._sid_bound):
            frame = self._bin_encode_request(request)
        extra = None
        if traced:
            self._rid += 1
            if not self._sid_bound:
                extra = self._ctx_prefix + str(self._rid) + "}"
        if frame is None:
            frame = encode_json_frame(request, extra=extra)
        self._wbuf += frame
        self._unsent += 1
        self._queue.append(_Entry(request["op"], self._rid, slot, thread, confirms))

    def _flush(self) -> None:
        """Hand every written frame to one ``sendall``; stamp send times."""
        sent = perf_counter()
        try:
            if self._sock is None:  # a pipeline writing after a transport error
                raise ConnectionError("connection lost")
            self._sock.sendall(self._wbuf)
        except OSError as exc:
            self._invalidate_connection()
            raise _RetryableFailure(exc) from exc
        queue = self._queue
        for i in range(-self._unsent, 0):
            queue[i].sent = sent
        del self._wbuf[:]
        self._unsent = 0

    def _discard_unsent(self) -> None:
        """Forget the requests written since the last flush."""
        for _ in range(self._unsent):
            self._queue.pop()
        del self._wbuf[:]
        self._unsent = 0

    def _settle(self) -> dict:
        """Read the next reply, either framing, and retire the head entry.

        Times the reply against the entry's send time, marks the
        connection bound when it carries ``srv`` (no stamp from then
        on), confirms the entry's ring events when it is ok and fills
        the entry's pipeline slot.  A transport error invalidates the
        connection and raises :class:`_RetryableFailure`.
        """
        try:
            reply = read_frame_any(self._sock)
            if reply is None:
                raise ProtocolError("daemon closed the connection")
            response = reply[1] if reply[0] == "json" else self._bin_decode_reply(reply)
        except (OSError, ProtocolError) as exc:
            self._invalidate_connection()
            raise _RetryableFailure(exc) from exc
        entry = self._queue.popleft()
        if "srv" in response:
            self._sid_bound = True
        if self._ctx:
            # container-free: float appends only; wire residuals, folds
            # and the last_timing dict are left to the readers
            entry.total = total_s = perf_counter() - entry.sent
            srv = response.get("srv")
            op = entry.op
            pend = self._timing_pending.get(op)
            if pend is None:
                pend = self._timing_pending[op] = ([], [], [], [])
            pend[0].append(total_s)
            if type(srv) is list and len(srv) == 2:
                try:
                    queue_s = srv[0] / 1e6
                    handler_s = srv[1] / 1e6
                except TypeError:  # malformed pair: total-only
                    pass
                else:
                    entry.queue = queue_s
                    entry.handler = handler_s
                    pend[1].append(total_s)
                    pend[2].append(queue_s)
                    pend[3].append(handler_s)
            self._last = entry
            if len(pend[0]) >= 512:
                self._flush_timing()
            rec = obs_spans._recorder  # inlined get_recorder(): hot path
            if rec is not None:  # a client.<op> span with the same fields
                attrs = {k: v for k, v in self.last_timing.items() if v is not None}
                rec.emit(f"client.{op}", entry.sent, total_s, **attrs)
        ok = response.get("ok")
        if ok and entry.confirms:
            self._rings[entry.thread].extend(entry.confirms)
        slot = entry.slot
        if slot is not None:
            slot.append(
                (response["matched"], self._pred(response)) if ok
                else OracleServiceError(
                    response.get("code", "error"),
                    response.get("error", "unknown error"),
                )
            )
        return response

    def _drain(self) -> dict | None:
        """Flush, then settle every outstanding entry; the last reply."""
        if self._unsent:
            self._flush()
        response = None
        while self._queue:
            response = self._settle()
        return response

    def _call(self, request: dict, thread: int | None = None, confirms=()) -> dict:
        """One synchronous request: write its frame, flush, settle.

        Returns the ok reply; raises :class:`_RetryableFailure` for
        transport errors and the daemon's retryable answers, and the
        mapped facade exception for every other error reply.
        """
        self._write(request, thread, confirms)
        response = self._drain()
        if response.get("ok"):
            return response
        code = response.get("code", "error")
        message = response.get("error", "unknown error")
        if code in RETRYABLE_CODES:
            # the daemon is draining: this connection has no future
            self._invalidate_connection()
            raise _RetryableFailure(f"[{code}] {message}")
        if code == "no_such_session":
            # our session evaporated while the connection survived
            # (shouldn't happen, but a restarted daemon behind a proxy
            # looks exactly like this): reopen and resync, then retry
            dead = request.get("session")
            self._snums.pop(dead, None)
            self._sessions = {t: s for t, s in self._sessions.items() if s != dead}
            raise _RetryableFailure(f"[{code}] {message}")
        # map daemon error codes back onto the facade's exceptions
        if code == "no_such_thread":
            raise KeyError(message)
        if code == "trace_not_found":
            raise FileNotFoundError(message)
        if code == "trace_format":
            raise TraceFormatError(message)
        raise OracleServiceError(code, message)

    # -- protocol v2: binary encode/decode --------------------------------

    def _bin_encode_request(self, request: dict) -> bytes | None:
        """The binary frame for ``request``, or None when it has no
        binary spelling (batches, unknown snum, missing registry,
        out-of-range fields) — the caller then sends JSON as before."""
        opcode = _BIN_OPCODES.get(request.get("op"))
        if opcode is None or "events" in request:
            return None
        snum = self._snums.get(request.get("session"))
        if snum is None or not 0 <= snum <= 0xFFFFFFFF:
            return None
        distance = request.get("distance", 1)
        if not isinstance(distance, int) or not 1 <= distance <= 0xFFFF:
            return None
        flags = 0
        if request.get("with_time"):
            flags |= F_WITH_TIME
        if request.get("require_match"):
            flags |= F_REQUIRE_MATCH
        terminal = 0
        if opcode != OP_PREDICT:
            registry = self._registry
            name = request.get("name")
            if registry is None or not isinstance(name, str):
                return None
            # event-id interning: the exact lookup the daemon's observe
            # handler would run, against the registry it handed us at
            # open_session — so predictions stay byte-identical.  A miss
            # sets F_UNKNOWN_EVENT and the daemon runs observe_unknown.
            try:
                term = registry.lookup(
                    Event(name, decode_payload(request.get("payload")))
                )
            except ValueError:
                return None
            if term is None:
                flags |= F_UNKNOWN_EVENT
            elif 0 <= term <= 0xFFFFFFFF:
                terminal = term
            else:
                return None
        return encode_bin_frame(
            opcode, flags, BIN_REQ.pack(snum, terminal, distance)
        )

    @staticmethod
    def _bin_decode_reply(reply: tuple) -> dict:
        """A binary reply frame -> the JSON-shaped response dict.

        ``_pred_decoded`` marks an already-materialized
        :class:`Prediction` so the facade skips ``decode_prediction``;
        ``srv`` is rebuilt from the :data:`F_HAS_SRV` prefix so the
        timing decomposition path is framing-blind.
        """
        _kind, opcode, flags, body = reply
        offset = 0
        srv = None
        if flags & F_HAS_SRV:
            q_us, h_us = SRV_PAIR.unpack_from(body, 0)
            srv = [q_us, h_us]
            offset = SRV_PAIR.size
        if opcode == OP_REPLY_ERROR:
            code, message = decode_bin_error(body, offset)
            out: dict = {"ok": False, "code": code, "error": message}
        elif opcode == OP_REPLY_MATCHED:
            out = {"ok": True, "matched": bool(flags & F_MATCHED)}
        elif opcode == OP_REPLY_PREDICT:
            out = {
                "ok": True,
                "matched": bool(flags & F_MATCHED),
                "prediction": decode_bin_prediction(flags, body, offset),
                "_pred_decoded": True,
            }
        else:
            raise ProtocolError(f"unexpected binary reply opcode 0x{opcode:02x}")
        if srv is not None:
            out["srv"] = srv
        return out

    @staticmethod
    def _pred(response: dict) -> Prediction | None:
        """The reply's prediction, whichever framing delivered it."""
        pred = response.get("prediction")
        if response.get("_pred_decoded"):
            return pred
        return decode_prediction(pred)

    def _open_session(self, thread: int) -> str:
        """Open a daemon session for ``thread`` and replay its ring.

        The reply also sets the connection's framing: a daemon that
        speaks binary advertises the session's ``snum``.
        """
        response = self._call({
            "op": "open_session",
            "trace": self.trace_path,
            "thread": thread,
            "max_candidates": self._max_candidates,
            "with_registry": self._registry is None,
        })
        sid = response["session"]
        if self._protocol != "json":
            snum = response.get("snum")
            if isinstance(snum, int) and not isinstance(snum, bool):
                self._snums[sid] = snum
                self._proto_state = "binary"
            elif self._protocol == "binary":
                # closing the connection closes the session it opened
                self._invalidate_connection()
                raise OracleServiceError(
                    "protocol", "daemon does not speak the binary protocol"
                )
            else:
                self._proto_state = "json"
        self._worker = response.get("worker")
        if self._registry is None and "registry" in response:
            self._registry = EventRegistry.from_obj(response["registry"])
        ring = self._rings.get(thread)
        if ring:
            self._call({
                "op": "observe_batch",
                "session": sid,
                "events": [[n, encode_payload(p)] for n, p in ring],
            })
            self._flight.note("resync", thread=thread, replayed=len(ring))
        self._sessions[thread] = sid
        return sid

    def _request(
        self, op: str | None, *, thread: int | None = None, confirms=(), **fields
    ):
        """Send one request and return its ok reply, retrying through
        reconnects.

        ``thread`` selects (and lazily opens, ring-replaying) a daemon
        session whose id is attached as the ``session`` field; an ok
        reply confirms ``confirms`` into its ring.  With ``op=None``
        nothing is sent: the session is ensured and its id returned.
        Raises :class:`_UseFallback` once the retry budget is exhausted
        (or the last error, with ``fallback="raise"``).
        """
        request = None if op is None else {"op": op, **fields}
        with self._lock:
            if self._degraded:
                raise _UseFallback()
            policy = self.retry
            attempts = 0
            started = monotonic()
            while True:
                try:
                    if self._sock is None:
                        self._reconnect(attempts)
                    if thread is not None:
                        sid = self._sessions.get(thread)
                        if sid is None:
                            sid = self._open_session(thread)
                        if request is None:
                            return sid
                        request["session"] = sid
                    return self._call(request, thread, confirms)
                except _RetryableFailure as exc:
                    attempts += 1
                    self.counters["retries"] += 1
                    self._m_retries.inc()
                    budget_left = attempts <= policy.max_retries and (
                        policy.deadline is None
                        or monotonic() - started < policy.deadline
                    )
                    if not budget_left:
                        self._enter_degraded(exc.cause or exc)
                        raise _UseFallback() from exc
                    _log.debug(
                        "request_retry", op=op, attempt=attempts, error=str(exc)
                    )
                    sleep(policy.backoff(attempts, self._rng))

    def _reconnect(self, attempts: int) -> None:
        """One connect attempt; transport errors become retryable.  Only a
        connection that replaces a lost one counts as a reconnect."""
        try:
            self._sock = self._connect(self.address, self._timeout)
        except OSError as exc:
            raise _RetryableFailure(exc) from exc
        if self._lost:
            self._lost = False
            self.counters["reconnects"] += 1
            self._m_reconnects.inc()
            self._flight.note("reconnect", attempts=attempts)
            _log.info("reconnected", address=str(self.address), attempts=attempts)

    def _enter_degraded(self, cause: BaseException | None) -> None:
        """Exhausted retry budget: switch to the fallback, permanently."""
        self._invalidate_connection()
        if self.fallback == "raise":
            if isinstance(cause, BaseException) and not isinstance(
                cause, _RetryableFailure
            ):
                raise cause
            raise OracleServiceError(
                "unavailable", f"oracle daemon unreachable: {cause}"
            )
        self.counters["fallbacks"] += 1
        self._m_fallbacks.inc()
        self._degraded = True
        mode = self.fallback
        if mode == "local":
            try:
                from repro.core.oracle import Pythia

                oracle = Pythia(self.trace_path, mode="predict")
                # seed with the rings so the local tracker attaches
                # mid-stream exactly where the daemon session stood
                for thread, ring in self._rings.items():
                    for name, payload in ring:
                        oracle.event(name, payload, thread=thread)
                self._fallback_oracle = oracle
            except (OSError, ValueError) as exc:  # includes TraceFormatError
                _log.warning("local_fallback_failed", error=str(exc))
                mode = "lost"
        if self._fallback_oracle is None:
            self._fallback_oracle = _LostOracle()
        self._flight.note("fallback", mode=mode, cause=str(cause or ""))
        self._flight.dump()
        _log.warning(
            "degraded_mode", mode=mode, trace=self.trace_path,
            cause=str(cause or ""),
        )

    def _session(self, thread: int) -> str:
        """Ensure a live daemon session for ``thread``; returns its id.

        The retry loop of any request, sending nothing but what opening
        a missing session takes (``open_session`` and the ring replay).
        """
        return self._request(None, thread=thread)

    # ------------------------------------------------------------------
    # the Pythia facade surface
    # ------------------------------------------------------------------

    @property
    def recording(self) -> bool:
        """Always False: the client never records (record stays local)."""
        return False

    @property
    def predicting(self) -> bool:
        """Always True: a client is a predict-mode oracle."""
        return True

    @property
    def registry(self) -> EventRegistry:
        """The daemon's event registry for this trace (fetched once)."""
        if self._registry is not None:
            return self._registry
        try:
            response = self._request("registry", trace=self.trace_path)
            self._registry = EventRegistry.from_obj(response["registry"])
        except _UseFallback:
            oracle = self._fallback_oracle
            if isinstance(oracle, _LostOracle):
                raise OracleServiceError(
                    "unavailable",
                    "registry unavailable: daemon unreachable and trace "
                    "unreadable locally",
                ) from None
            self._registry = oracle.registry
        return self._registry

    def event(
        self,
        name: str,
        payload: Hashable = None,
        *,
        timestamp: float | None = None,
        thread: int = 0,
    ) -> bool:
        """Submit one event; True when it matched the oracle's expectation."""
        if self._finished:
            raise RuntimeError("oracle already finished")
        del timestamp  # predict mode never records timestamps
        try:
            return self._request(
                "observe", thread=thread, confirms=((name, payload),),
                name=name, payload=encode_payload(payload),
            )["matched"]
        except _UseFallback:
            return self._fallback_oracle.event(name, payload, thread=thread)

    def event_batch(
        self, events: list[tuple[str, Hashable]], *, thread: int = 0
    ) -> list[bool]:
        """Submit many events in one round-trip (amortizes the socket)."""
        if self._finished:
            raise RuntimeError("oracle already finished")
        try:
            return self._request(
                "observe_batch",
                thread=thread,
                confirms=events,
                events=[[name, encode_payload(payload)] for name, payload in events],
            )["matched"]
        except _UseFallback:
            oracle = self._fallback_oracle
            return [oracle.event(n, p, thread=thread) for n, p in events]

    def event_and_predict(
        self,
        name: str,
        payload: Hashable = None,
        *,
        distance: int = 1,
        thread: int = 0,
        with_time: bool = False,
        timestamp: float | None = None,
        require_match: bool = False,
    ) -> tuple[bool, Prediction | None]:
        """Fused :meth:`event` + :meth:`predict` in one round trip.

        Mirrors ``Pythia.event_and_predict``; the runtime-system loop
        (submit an event, ask about the future) pays one socket round
        trip instead of two.  With ``require_match`` the daemon skips
        the predict half after a mismatch and returns ``None`` for it.
        """
        if self._finished:
            raise RuntimeError("oracle already finished")
        del timestamp  # predict mode never records timestamps
        try:
            response = self._request(
                "observe_predict",
                thread=thread,
                confirms=((name, payload),),
                name=name,
                payload=encode_payload(payload),
                distance=distance,
                with_time=with_time,
                require_match=require_match,
            )
        except _UseFallback:
            return self._fallback_oracle.event_and_predict(
                name, payload, distance=distance, thread=thread,
                with_time=with_time, require_match=require_match,
            )
        return response["matched"], self._pred(response)

    def event_batch_and_predict(
        self,
        events: list[tuple[str, Hashable]],
        *,
        distance: int = 1,
        thread: int = 0,
        with_time: bool = False,
        require_match: bool = False,
    ) -> tuple[list[bool], Prediction | None]:
        """Submit many events and predict once, in one round trip."""
        if self._finished:
            raise RuntimeError("oracle already finished")
        if not events:
            raise ValueError("'events' must be a non-empty list")
        try:
            response = self._request(
                "observe_predict",
                thread=thread,
                confirms=events,
                events=[[name, encode_payload(payload)] for name, payload in events],
                distance=distance,
                with_time=with_time,
                require_match=require_match,
            )
        except _UseFallback:
            oracle = self._fallback_oracle
            matched = [oracle.event(n, p, thread=thread) for n, p in events[:-1]]
            last, pred = oracle.event_and_predict(
                events[-1][0], events[-1][1], distance=distance, thread=thread,
                with_time=with_time, require_match=require_match,
            )
            return matched + [last], pred
        return response["matched"], self._pred(response)

    def pipeline(self, *, thread: int = 0, window: int = 64) -> "OraclePipeline":
        """Pipelined fused observe+predict over ``thread``'s session.

        Returns a context manager::

            with client.pipeline() as pipe:
                for name, payload in events:
                    pipe.submit(name, payload)
            results = pipe.results   # [(matched, prediction) | error, ...]

        A thin API over the client's request queue: each ``submit``
        writes one frame whose queue entry holds a result slot; once
        ``window`` frames (or ``FLUSH_BYTES``) are buffered they go out
        in one ``sendall`` and their replies are settled in stream order
        (the order the implicit-rid ctx scheme relies on), as ``drain``
        does for a partial window.  A daemon-side error (e.g. the
        retryable ``shutting_down`` during a drain) fills its slot with
        an :class:`OracleServiceError`.  Each ok reply confirms its event
        into the resync ring as it settles, so a reconnect after a
        mid-pipeline failure replays exactly the confirmed events.
        Replies are timed like any other, from the flush to the read.

        Entering opens ``thread``'s session if it has none (one
        ``open_session``, nothing else) and holds the client's lock for
        the whole block, so other threads wait.  In degraded mode
        submissions are served inline from the fallback oracle.
        """
        if self._finished:
            raise RuntimeError("oracle already finished")
        return OraclePipeline(self, thread, window)

    def predict(
        self, distance: int = 1, *, thread: int = 0, with_time: bool = False
    ) -> Prediction | None:
        """Predict the event ``distance`` steps ahead."""
        try:
            response = self._request(
                "predict", thread=thread, distance=distance, with_time=with_time
            )
        except _UseFallback:
            return self._fallback_oracle.predict(
                distance, thread=thread, with_time=with_time
            )
        return self._pred(response)

    def predict_duration(self, distance: int = 1, *, thread: int = 0) -> float | None:
        """Predict the delay until the event ``distance`` steps ahead."""
        try:
            return self._request(
                "predict_duration", thread=thread, distance=distance
            )["eta"]
        except _UseFallback:
            return self._fallback_oracle.predict_duration(distance, thread=thread)

    def explain(
        self,
        distance: int = 1,
        *,
        thread: int = 0,
        top_k: int = 3,
        with_time: bool = False,
    ) -> Explanation | None:
        """Provenance of :meth:`predict`, mirroring ``Pythia.explain``.

        The daemon runs the same tracker, so the returned
        :class:`~repro.core.explain.Explanation` agrees with an
        in-process oracle fed the same events — terminals, probabilities
        and source chains alike.  ``None`` when the session is lost.
        """
        try:
            obj = self._request(
                "explain",
                thread=thread,
                distance=distance,
                top_k=top_k,
                with_time=with_time,
            )["explanation"]
        except _UseFallback:
            return self._fallback_oracle.explain(
                distance, thread=thread, top_k=top_k, with_time=with_time
            )
        return Explanation.from_obj(obj) if obj is not None else None

    def flight_journal(self, thread: int = 0) -> list[dict]:
        """This thread's daemon-side flight journal (mirrors the facade).

        In degraded mode the client's own journal — which recorded the
        reconnects and the fallback — is returned instead.
        """
        try:
            entries = self._request(
                "flight_dump", thread=thread, format="jsonl"
            )["entries"]
        except _UseFallback:
            return self._flight.entries()
        return entries or []

    def flight_dump(self, *, thread: int = 0, format: str = "jsonl") -> dict:
        """The raw ``flight_dump`` response: journal + drift report."""
        try:
            return self._request("flight_dump", thread=thread, format=format)
        except _UseFallback:
            return {
                "ok": True,
                "session": "degraded",
                "drift": {},
                "entries": self._flight.entries(),
            }

    def describe(self, prediction: Prediction | None) -> str:
        """Human-readable form of a prediction (mirrors the facade)."""
        if prediction is None:
            return "<no prediction: oracle is lost>"
        if prediction.terminal is None:
            return f"<end of execution, p={prediction.probability:.2f}>"
        name = self.registry.name(prediction.terminal)
        eta = f", eta={prediction.eta:.6f}" if prediction.eta is not None else ""
        return f"<{name}, p={prediction.probability:.2f}{eta}>"

    def stats(self, thread: int | None = None) -> dict:
        """Tracking counters and accuracy report, mirroring the facade.

        ``thread=None`` aggregates every session this client opened;
        a thread id returns that session's view.
        """
        if self._degraded:
            return self._fallback_oracle.stats(thread)
        try:
            if thread is not None:
                return self._request("stats", thread=thread)["session_stats"]
            threads = sorted(set(self._sessions) | set(self._rings)) or [0]
            reports = [
                self._request("stats", thread=t)["session_stats"]
                for t in threads
            ]
            return aggregate_stats(reports)
        except _UseFallback:
            return self._fallback_oracle.stats(thread)

    def _admin(self, request: dict) -> dict:
        """One admin request through :func:`admin_request`.

        Raises :class:`OracleServiceError` with the reply's code for an
        ``ok: false`` reply, and with ``unavailable`` when the daemon
        cannot be reached.
        """
        try:
            reply = admin_request(self.address, request, timeout=self._timeout)
        except (OSError, ProtocolError) as exc:
            raise OracleServiceError(
                "unavailable", f"oracle daemon unreachable: {exc}"
            ) from exc
        if not reply.get("ok"):
            raise OracleServiceError(
                reply.get("code", "error"), reply.get("error", "unknown error")
            )
        return reply

    def server_stats(self) -> dict:
        """Daemon-wide counters (sessions, cache, latency aggregates);
        behind a supervisor, the tier's merged view."""
        return self._admin({"op": "stats"})

    def fault_stats(self) -> dict:
        """The fault layer's own counters and state (for monitoring)."""
        return {**self.counters, "degraded": self._degraded,
                "fallback": self.fallback}

    def history(
        self, *, window: float | None = None, keys: list[str] | None = None
    ) -> dict:
        """The daemon's metrics-history view (series + per-second rates)."""
        request: dict = {"op": "history"}
        if window is not None:
            request["window"] = window
        if keys is not None:
            request["keys"] = keys
        return self._admin(request)

    def sessions(self) -> dict:
        """The daemon's per-client-session telemetry table."""
        return self._admin({"op": "sessions"})

    @property
    def worker(self) -> int | None:
        """Worker id serving this client's sessions (multi-worker only).

        Updated at every (re)open; ``None`` until a session exists or
        when the daemon is a single process.
        """
        return self._worker

    def trace_context(self) -> dict:
        """This client's tracing identity: session id and last rid."""
        return {"sid": self.session_id, "rid": self._rid,
                "enabled": self._ctx, "worker": self._worker}

    def timing_histograms(self) -> dict[tuple[str, str], object]:
        """The raw (op, component) latency histograms (for merging)."""
        with self._lock:
            self._flush_timing()
            return dict(self._timing)

    def timing_report(self) -> dict:
        """Latency decomposition per op: count/mean/p50/p99/max in µs.

        Shape: ``{op: {component: {count, mean_us, p50_us, p99_us,
        max_us}}}`` with components ``total`` and — when the daemon
        returns reply timing — ``wire`` / ``queue`` / ``handler``.
        Empty under ``PYTHIA_METRICS=0`` (the digests live in the
        metrics registry) or with ``context=False``.
        """
        with self._lock:
            self._flush_timing()
            hists = sorted(self._timing.items())
        out: dict[str, dict[str, dict]] = {}
        for (op, component), hist in hists:
            snap = hist.snapshot()
            mean = snap["sum"] / snap["count"] if snap["count"] else 0.0
            out.setdefault(op, {})[component] = {
                "count": snap["count"],
                "mean_us": round(mean * 1e6, 1),
                "p50_us": round(snap["p50"] * 1e6, 1),
                "p99_us": round(snap["p99"] * 1e6, 1),
                "max_us": round(snap["max"] * 1e6, 1),
            }
        return out

    def finish(self) -> None:
        """Close every session and the connection; returns None.

        Mirrors ``Pythia.finish`` in predict mode (which returns None);
        safe to call once.  Never retries — a dying client must not
        stall its host on a dead daemon.
        """
        if self._finished:
            raise RuntimeError("oracle already finished")
        self._finished = True
        with self._lock:
            if self._sock is not None:
                # every close in one flush; error replies are ignored
                for sid in self._sessions.values():
                    self._write({"op": "close_session", "session": sid})
                try:
                    self._drain()
                except _RetryableFailure:
                    pass  # daemon gone: sessions die with the connection anyway
            self._flush_timing()  # registry digests catch up before exit
            self._invalidate_connection()
            if self._fallback_oracle is not None:
                self._fallback_oracle.finish()
        return None

    close = finish

    def __enter__(self) -> "PythiaClient":
        return self

    def __exit__(self, *exc) -> None:
        if not self._finished:
            self.finish()


def admin_request(address, request: dict, *, timeout: float | None = 10.0) -> dict:
    """Send one admin request on a fresh connection; returns the reply.

    The connection carries no session context, so behind a supervisor
    the supervisor answers it with the whole tier's merged view; a
    single daemon answers it like any request.  ``address`` is a Unix
    socket path or a ``(host, port)`` tuple, as for
    :class:`PythiaClient`.  The reply comes back as sent, ``ok``
    included; EOF before it raises :class:`ProtocolError` and transport
    errors propagate.
    """
    sock = PythiaClient._connect(address, timeout)
    try:
        write_frame(sock, request)
        reply = read_frame(sock)
    finally:
        sock.close()
    if reply is None:
        raise ProtocolError("daemon closed the connection")
    return reply


class OraclePipeline:
    """Window-pipelined ``observe_predict`` stream (see
    :meth:`PythiaClient.pipeline`).

    ``submit`` order is result order.  :attr:`results` holds, per
    submission, ``(matched, prediction)`` or an
    :class:`OracleServiceError` (a daemon-side refusal: the connection
    stays usable).  A transport failure mid-window raises
    ``unavailable``: the replies already read stay in :attr:`results`,
    unanswered submissions are gone, and the resync ring holds exactly
    the confirmed prefix.
    """

    #: flush the send buffer early once it holds this many bytes, even
    #: below the window count (keeps frames moving for fat payloads)
    FLUSH_BYTES = 16384

    def __init__(self, client: PythiaClient, thread: int, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self._client = client
        self._thread = thread
        self.window = int(window)
        self._submitted = 0
        #: per-submission outcomes, in submit order
        self.results: list = []
        self._entered = False

    def __enter__(self) -> "OraclePipeline":
        client = self._client
        client._lock.acquire()
        try:
            client._session(self._thread)  # the session to pipeline on
        except _UseFallback:
            pass  # degraded: submissions are served inline
        except BaseException:
            client._lock.release()
            raise
        self._entered = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self.drain()
        finally:
            self._client._discard_unsent()  # a block that raised sends no more
            self._entered = False
            self._client._lock.release()

    def submit(
        self,
        name: str,
        payload: Hashable = None,
        *,
        distance: int = 1,
        with_time: bool = False,
        require_match: bool = False,
    ) -> int:
        """Queue one fused observe+predict; returns its result index."""
        assert self._entered, "submit() outside the pipeline's with-block"
        client = self._client
        index = self._submitted
        self._submitted += 1
        if client._degraded:
            self.results.append(client._fallback_oracle.event_and_predict(
                name, payload, distance=distance, thread=self._thread,
                with_time=with_time, require_match=require_match,
            ))
            return index
        client._write({
            "op": "observe_predict",
            "session": client._sessions.get(self._thread),
            "name": name,
            "payload": encode_payload(payload),
            "distance": distance,
            "with_time": with_time,
            "require_match": require_match,
        }, self._thread, ((name, payload),), self.results)
        if client._unsent >= self.window or len(client._wbuf) >= self.FLUSH_BYTES:
            self.drain()
        return index

    def drain(self) -> list:
        """Flush and settle every outstanding submission; the results."""
        assert self._entered, "drain() outside the pipeline's with-block"
        try:
            self._client._drain()
        except _RetryableFailure as exc:
            raise OracleServiceError(
                "unavailable", f"pipeline transport error: {exc}"
            ) from exc
        return list(self.results)
