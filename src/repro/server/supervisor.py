"""Multi-worker serving tier: one supervisor, N worker processes.

The single-process :class:`~repro.server.daemon.OracleServer` is
GIL-bound: adding sessions past one core's worth degrades aggregate
throughput (the committed ``BENCH_server.json`` baseline).
:class:`OracleSupervisor` runs N :mod:`repro.server.worker` processes —
each a full ``OracleServer`` with its own GIL — and routes every client
connection to one of them, so throughput scales with cores while each
session's state (tracker, rid continuity, latency digests) stays on
exactly one worker.

Routing:

- the supervisor owns the one listening socket (Unix or TCP), so its
  address outlives any worker crash;
- per accepted connection, a router thread ``MSG_PEEK``\\ s the first
  frame *without consuming it*, reads the client's session id from the
  ``ctx`` stamp, and picks a worker by consistent hash (a connection
  with no session id on its first frame — a bare binary frame carries
  none — round-robins);
- the connection's fd is passed to that worker over ``SCM_RIGHTS``
  (:func:`socket.send_fds`); the worker adopts it and reads the byte
  stream from its pristine start.

Consistent hashing gives **sticky routing**: a client that reconnects
(same session id) lands on the same worker, so its
:class:`~repro.obs.sessions.SessionStats` row keeps accumulating and
rid continuity survives.  When a worker dies, only its sessions move —
the ring walks to the next live worker (rebalancing), and because the
replacement worker is spawned under the same worker id, they move back
once it is up (sticky *re*\\ binding).  Clients ride through via their
PR-5 reconnect/resync layer; the supervisor's listener never goes away,
so a reconnect succeeds immediately.

A connection whose first frame is an *admin* op (``metrics`` /
``sessions`` / ``stats`` / ``ping`` / ``workers`` / ``profile_dump`` /
``history``) with no session context is served by the supervisor
itself, from one table (``_ADMIN``) through :meth:`OracleSupervisor.
admin` — the method the HTTP endpoint calls too — with the daemon's
own argument checks for ``profile_dump`` and ``history``.  The CLI
verbs and ``PythiaClient.server_stats`` / ``sessions`` / ``history``
send such a connection (:func:`repro.server.client.admin_request`), so
every surface gets the tier's answer.  The supervisor fans the request
out to every live worker and merges the answers — ``metrics`` becomes
one Prometheus exposition with a ``worker`` label on every sample
(:func:`repro.obs.metrics.merge_expositions`) plus the supervisor's own
``pythia_worker_*`` gauges; ``sessions`` is the union table with a
``worker`` column; ``stats`` sums counters across workers.  When every
worker that answers refuses with one code (``profiler_off``,
``history_off``), the supervisor refuses with it too, as one daemon
would.  ``pythia-trace sessions`` and ``pythia-trace top`` work
unchanged against a supervisor.

Each worker has a *control connection* to the supervisor: a socket
pair the worker adopts into its event loop like any client
connection, so the daemon's own handlers answer the fan-out in the
daemon's own reply shapes, and those requests count in the worker's
request counters.  One fan-out (:meth:`OracleSupervisor._fan_out`)
writes the request to every worker before reading any reply.

The monitor thread restarts crashed workers (same worker id) and
tracks restarts per worker; grammar loads stay one-per-host because
every worker's store maps the same compiled artifact
(:mod:`repro.core.mmap_grammar`).
"""

from __future__ import annotations

import bisect
import hashlib
import os
import socket
import subprocess
import sys
import threading
import time

from repro.obs import profiler as obs_profiler
from repro.obs.log import get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    merge_expositions,
    render_prometheus,
)
from repro.obs.process import register_process_metrics
from repro.server.daemon import (
    OracleServer,
    RequestError,
    bind_listener,
    close_listener,
    history_args,
    profile_args,
)
from repro.server.protocol import (
    BIN_MAGIC,
    ConnectionClosed,
    FrameParser,
    ProtocolError,
    encode_json_frame,
    parse_frame,
    read_frame,
    write_frame,
)

__all__ = ["HashRing", "OracleSupervisor"]

_log = get_logger("supervisor")

#: how much of an oversized first frame to peek before giving up on
#: reading its session id (such connections round-robin instead)
_PEEK_CAP = 64 * 1024
#: seconds a first frame may take to arrive in full once its first
#: byte is in, before the connection is routed without a session id
_PEEK_DEADLINE = 2.0


class HashRing:
    """Consistent hashing of session ids onto worker ids.

    Each worker contributes ``replicas`` virtual points on a 64-bit
    ring; a key routes to the first point clockwise from its own hash.
    Properties the serving tier relies on: the same key always routes
    to the same live worker (stickiness), and when a worker is excluded
    (crashed) only the keys it owned move — every other session stays
    put, and the moved ones come back when it returns (rebinding).
    """

    def __init__(self, worker_ids, *, replicas: int = 64) -> None:
        points: list[tuple[int, int]] = []
        for wid in worker_ids:
            for r in range(replicas):
                points.append((self._hash(f"{wid}:{r}"), wid))
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def route(self, key: str, alive=None) -> int | None:
        """The worker id owning ``key`` among ``alive`` (None = all)."""
        if not self._points:
            return None
        i = bisect.bisect_right(self._hashes, self._hash(key))
        n = len(self._points)
        for step in range(n):
            wid = self._points[(i + step) % n][1]
            if alive is None or wid in alive:
                return wid
        return None


class _Control:
    """The supervisor's end of one worker's control connection.

    The worker serves it as an ordinary daemon connection, so replies
    come back in request order.  ``unanswered`` counts the requests
    whose replies were not read yet — a fan-out that gave up on a slow
    worker leaves its reply in flight — and :meth:`reply` discards that
    many before it takes one as the answer.  The parser outlives each
    read, so a reply cut short by a deadline is completed by the next.
    """

    __slots__ = ("sock", "lock", "parser", "unanswered")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.lock = threading.Lock()
        self.parser = FrameParser()
        self.unanswered = 0

    def ask(self, frame: bytes, deadline: float) -> None:
        """Send one request frame (``lock`` held)."""
        self.sock.settimeout(max(1e-3, deadline - time.monotonic()))
        self.sock.sendall(frame)
        self.unanswered += 1

    def reply(self, deadline: float) -> dict:
        """The reply to the latest request (``lock`` held)."""
        while True:
            frame = self.parser.next_frame()
            if frame is not None:
                self.unanswered -= 1
                if not self.unanswered:
                    return frame[1]
                continue
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("no reply before the deadline")
            self.sock.settimeout(left)
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionClosed("worker closed its control connection")
            self.parser.feed(data)


class _Worker:
    """Supervisor-side record of one worker process."""

    __slots__ = ("wid", "proc", "conn_chan", "control",
                 "restarts", "routed", "started_at")

    def __init__(self, wid: int) -> None:
        self.wid = wid
        self.proc: subprocess.Popen | None = None
        self.conn_chan: socket.socket | None = None
        self.control: _Control | None = None
        self.restarts = 0
        self.routed = 0
        self.started_at = 0.0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def close_channels(self) -> None:
        for chan in (self.conn_chan, self.control and self.control.sock):
            if chan is not None:
                try:
                    chan.close()
                except OSError:
                    pass
        self.conn_chan = None
        self.control = None


class OracleSupervisor:
    """Spawn, route to, monitor and restart N oracle workers.

    Parameters
    ----------
    socket_path / tcp_address:
        The public address, exactly as :class:`OracleServer` takes
        them.  The supervisor owns it; workers receive connections by
        fd passing.
    workers:
        Worker process count (default: ``os.cpu_count()``).
    cache_size:
        Per-worker :class:`~repro.server.store.TraceStore` capacity.
    drain_deadline:
        Seconds each worker gets to finish in-flight requests at
        shutdown.
    """

    def __init__(
        self,
        socket_path: str | os.PathLike | None = None,
        *,
        tcp_address: tuple[str, int] | None = None,
        workers: int | None = None,
        cache_size: int = 8,
        drain_deadline: float = 5.0,
    ) -> None:
        if (socket_path is None) == (tcp_address is None):
            raise ValueError("exactly one of socket_path / tcp_address required")
        n = workers if workers is not None else (os.cpu_count() or 1)
        if n < 1:
            raise ValueError("workers must be >= 1")
        self.socket_path = os.fspath(socket_path) if socket_path is not None else None
        self.tcp_address = tcp_address
        self.worker_count = n
        self.cache_size = cache_size
        self.drain_deadline = drain_deadline
        self.ring = HashRing(range(n))
        self._workers: dict[int, _Worker] = {wid: _Worker(wid) for wid in range(n)}
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._monitor_thread: threading.Thread | None = None
        self._router_threads: set[threading.Thread] = set()
        self._pending: set[socket.socket] = set()  # conns being routed
        self._running = threading.Event()
        self._draining = threading.Event()
        self._lock = threading.Lock()
        self._rr = 0  # round-robin cursor for sid-less connections
        #: private registry for supervisor-side gauges: the supervisor
        #: may share a process (tests) whose global registry belongs to
        #: other components
        self._registry = MetricsRegistry()
        register_process_metrics(self._registry)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> str | tuple[str, int]:
        """Where clients connect (socket path, or bound (host, port))."""
        if self.socket_path is not None:
            return self.socket_path
        assert self._listener is not None, "supervisor not started"
        return self._listener.getsockname()[:2]

    def start(self, *, ready_timeout: float = 30.0) -> "OracleSupervisor":
        """Bind, spawn the workers, wait for them, start routing."""
        if self._listener is not None:
            raise RuntimeError("supervisor already started")
        self._listener = bind_listener(self.socket_path, self.tcp_address)
        self._running.set()
        self._draining.clear()
        for wid in self._workers:
            self._spawn_worker(wid)
        # every worker must answer a ping: catches import/startup
        # failures here, with a readable error, instead of at the first
        # routed request
        answers = self._fan_out({"op": "ping"}, timeout=ready_timeout)
        missing = sorted(set(self._workers) - set(answers))
        if missing:
            causes = []
            reap_by = time.monotonic() + 0.5  # a dying worker may not be reaped yet
            for wid in missing:
                proc = self._workers[wid].proc
                try:
                    code = proc.wait(timeout=max(0.0, reap_by - time.monotonic()))
                    causes.append(f"worker {wid} exited with code {code}")
                except subprocess.TimeoutExpired:
                    causes.append(
                        f"worker {wid} gave no ping reply in {ready_timeout:g} s"
                    )
            self.stop()
            raise RuntimeError("workers failed to start: " + "; ".join(causes))
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="pythia-sup-accept", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="pythia-sup-monitor", daemon=True
        )
        self._monitor_thread.start()
        _log.info("supervisor_started", address=str(self.address),
                  workers=self.worker_count)
        return self

    def drain(self, deadline: float | None = None) -> None:
        """Stop accepting; SIGTERM every worker, which drains and exits."""
        if self._listener is None or self._draining.is_set():
            return
        self._draining.set()
        deadline = deadline if deadline is not None else self.drain_deadline
        _log.info("supervisor_draining", deadline=deadline)
        close_listener(self._listener)
        for w in self._workers.values():
            if w.alive:
                w.proc.terminate()
        t0 = time.monotonic()
        for w in self._workers.values():
            if w.proc is None:
                continue
            left = max(0.0, deadline + 1.0 - (time.monotonic() - t0))
            try:
                w.proc.wait(timeout=left)
            except subprocess.TimeoutExpired:
                pass

    def stop(self) -> None:
        """Tear everything down: listener, routers, workers."""
        if self._listener is None:
            return
        self._running.clear()
        close_listener(self._listener)
        with self._lock:
            pending = list(self._pending)
        for conn in pending:  # unblock router threads parked in peek
            try:
                conn.close()
            except OSError:
                pass
        for t in (self._accept_thread, self._monitor_thread):
            if t is not None:
                t.join(timeout=5)
        for t in list(self._router_threads):
            t.join(timeout=5)
        for w in self._workers.values():
            if w.alive:
                w.proc.terminate()  # SIGTERM: workers drain themselves
        deadline = time.monotonic() + self.drain_deadline + 2.0
        for w in self._workers.values():
            if w.proc is None:
                continue
            try:
                w.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                w.proc.kill()
                w.proc.wait(timeout=5)
            w.close_channels()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except FileNotFoundError:
                pass
        self._listener = None
        self._accept_thread = None
        self._monitor_thread = None
        _log.info("supervisor_stopped")

    def __enter__(self) -> "OracleSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # worker processes
    # ------------------------------------------------------------------

    def _spawn_worker(self, wid: int) -> None:
        """Start (or restart) the worker process for slot ``wid``."""
        import repro

        w = self._workers[wid]
        w.close_channels()
        conn_sup, conn_wk = socket.socketpair()
        ctl_sup, ctl_wk = socket.socketpair()
        cmd = [
            sys.executable, "-m", "repro.server.worker",
            "--worker-id", str(wid),
            "--conn-fd", str(conn_wk.fileno()),
            "--rpc-fd", str(ctl_wk.fileno()),
            "--cache-size", str(self.cache_size),
            "--drain-deadline", str(self.drain_deadline),
        ]
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + existing if existing else src_dir
        )
        w.proc = subprocess.Popen(
            cmd, env=env, pass_fds=(conn_wk.fileno(), ctl_wk.fileno())
        )
        conn_wk.close()
        ctl_wk.close()
        w.conn_chan = conn_sup
        w.control = _Control(ctl_sup)
        w.started_at = time.monotonic()
        _log.info("worker_spawned", worker=wid, pid=w.proc.pid)

    def _monitor_loop(self) -> None:
        """Restart crashed workers under their original worker id."""
        while self._running.is_set():
            if not self._draining.is_set():
                for w in list(self._workers.values()):
                    if w.proc is not None and w.proc.poll() is not None:
                        _log.warning(
                            "worker_died", worker=w.wid, pid=w.proc.pid,
                            returncode=w.proc.returncode,
                        )
                        w.restarts += 1
                        self._spawn_worker(w.wid)
            time.sleep(0.05)

    def _alive_ids(self) -> set[int]:
        return {wid for wid, w in self._workers.items() if w.alive}

    def _fan_out(self, request: dict, *, timeout: float = 5.0) -> dict[int, dict]:
        """``request`` on every live worker's control connection.

        Returns the ``ok`` replies by worker id; dead, failed and late
        workers are left out.  When no worker answers ``ok`` and every
        worker that answered refused with one code, raises that refusal
        as :class:`RequestError`, so the tier refuses as a daemon does.
        The channel locks are taken in worker-id
        order, so concurrent fan-outs cannot deadlock.  Every worker
        gets the request before any reply is read, and all replies
        share one deadline: the workers answer concurrently, so a
        windowed ``profile_dump`` costs one window of wall time however
        many workers there are.
        """
        frame = encode_json_frame(request)
        deadline = time.monotonic() + timeout
        held: list[_Control] = []
        asked: list[tuple[int, _Control]] = []
        out: dict[int, dict] = {}
        refusals: dict[str, str] = {}  # code -> a message
        try:
            for wid in sorted(self._alive_ids()):
                ctl = self._workers[wid].control
                left = max(0.0, deadline - time.monotonic())
                if ctl is None or not ctl.lock.acquire(timeout=left):
                    continue
                held.append(ctl)
                try:
                    ctl.ask(frame, deadline)
                except OSError as exc:
                    _log.warning("worker_control_failed", worker=wid, error=str(exc))
                    continue
                asked.append((wid, ctl))
            for wid, ctl in asked:
                try:
                    response = ctl.reply(deadline)
                except (OSError, ProtocolError) as exc:
                    _log.warning("worker_control_failed", worker=wid, error=str(exc))
                    continue
                if response.get("ok"):
                    out[wid] = response
                else:
                    refusals[response.get("code", "internal")] = response.get(
                        "error", "refused"
                    )
        finally:
            for ctl in held:
                ctl.lock.release()
        if not out and len(refusals) == 1:
            ((code, message),) = refusals.items()
            raise RequestError(code, message)
        return out

    # ------------------------------------------------------------------
    # connection routing
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener closed
            with self._lock:
                self._pending.add(conn)
            t = threading.Thread(
                target=self._route_connection, args=(conn,),
                name="pythia-sup-router", daemon=True,
            )
            self._router_threads.add(t)
            t.start()

    def _peek_first_frame(self, conn: socket.socket) -> dict | None:
        """The connection's first frame, without consuming any bytes.

        Blocks indefinitely for the first byte (an idle client costs
        nothing), then gives the rest of the frame ``_PEEK_DEADLINE``
        seconds.  Returns ``None`` when the frame cannot be read (EOF,
        timeout, too large to peek, malformed) — the caller then
        round-robins the connection; the worker will produce the real
        protocol error, exactly as a single-process daemon would.

        Only length-prefixed JSON carries a session id: a binary first
        frame (first byte ``0xA7``) is a bare steady-state request, so
        the connection routes blind.
        """
        conn.settimeout(None)
        buf = conn.recv(1, socket.MSG_PEEK)
        if not buf or buf[0] == BIN_MAGIC:
            return None
        deadline = time.monotonic() + _PEEK_DEADLINE
        while True:
            try:
                end, frame = parse_frame(buf, _PEEK_CAP)
            except ProtocolError:
                return None  # giant or malformed first frame: route blind
            if frame is not None:
                return frame[1]
            left = deadline - time.monotonic()
            if left <= 0:
                return None
            conn.settimeout(left)
            try:
                more = conn.recv(end, socket.MSG_PEEK)
            except OSError:
                return None
            if not more:
                return None
            if len(more) == len(buf):
                time.sleep(0.001)  # peek re-reads from the front
            buf = more

    def _route_connection(self, conn: socket.socket) -> None:
        """Pick a destination for one accepted connection."""
        try:
            try:
                request = self._peek_first_frame(conn)
            except OSError:
                request = None
            if request is None and not self._running.is_set():
                return  # closed under us by stop()
            sid = None
            op = None
            if request is not None:
                op = request.get("op")
                sid, _rid = OracleServer._request_ctx(request)
            if request is not None and sid is None and op in SUPERVISOR_OPS:
                with self._lock:
                    self._pending.discard(conn)
                self._serve_admin(conn)
                return
            self._hand_off(conn, sid)
        except Exception:
            _log.warning("router_failed", error="unexpected routing error")
        finally:
            with self._lock:
                self._pending.discard(conn)
            try:
                conn.close()  # workers own their dup; admin conns are done
            except OSError:
                pass
            self._router_threads.discard(threading.current_thread())

    def _pick_worker(self, sid: str | None) -> int | None:
        alive = self._alive_ids()
        if not alive:
            return None
        if sid is not None:
            return self.ring.route(sid, alive)
        with self._lock:
            self._rr += 1
            cursor = self._rr
        ordered = sorted(alive)
        return ordered[cursor % len(ordered)]

    def _hand_off(self, conn: socket.socket, sid: str | None) -> None:
        """Pass the connection fd to its worker (retrying over crashes)."""
        for _attempt in range(self.worker_count + 1):
            wid = self._pick_worker(sid)
            if wid is None:
                break
            w = self._workers[wid]
            chan = w.conn_chan
            if chan is None:
                continue
            try:
                socket.send_fds(chan, [b"c"], [conn.fileno()])
            except OSError:
                # worker died between liveness check and send: the
                # monitor will respawn it; try the next candidate
                # (ring.route skips it once poll() notices)
                time.sleep(0.02)
                continue
            w.routed += 1
            return
        # no live worker took it: answer retryably so the client's
        # reconnect layer comes back once the monitor has respawned one
        try:
            write_frame(conn, {
                "ok": False, "code": "shutting_down",
                "error": "no worker available; retry",
            })
        except OSError:
            pass

    # ------------------------------------------------------------------
    # supervisor-served admin connections
    # ------------------------------------------------------------------

    def _serve_admin(self, conn: socket.socket) -> None:
        """Serve a monitoring connection entirely in the supervisor."""
        conn.settimeout(None)
        while self._running.is_set():
            try:
                request = read_frame(conn)
                if request is None:
                    return
                write_frame(conn, self.admin(request))
            except (ProtocolError, OSError):
                return

    def admin(self, request: dict) -> dict:
        """Answer one admin request — a frame on an admin connection or
        an HTTP scrape — with its reply, ``ok`` included."""
        op = request.get("op")
        handler = self._ADMIN.get(op) if isinstance(op, str) else None
        if handler is None:
            return {
                "ok": False, "code": "bad_request",
                "error": "this connection is bound to the supervisor; "
                         "open a new one for session ops",
            }
        try:
            return {"ok": True, **handler(self, request)}
        except RequestError as exc:
            return {"ok": False, "code": exc.code, "error": str(exc)}
        except Exception as exc:  # keep the admin loop alive
            return {"ok": False, "code": "internal", "error": str(exc)}

    def _op_ping(self, request: dict) -> dict:
        return {"pong": True, "role": "supervisor", "pid": os.getpid(),
                "workers": len(self._alive_ids())}

    def _op_workers(self, request: dict) -> dict:
        """Worker table (+ ``home`` routing answer for an offered sid)."""
        table = {}
        for wid, w in sorted(self._workers.items()):
            table[str(wid)] = {
                "pid": w.proc.pid if w.proc is not None else None,
                "alive": w.alive,
                "restarts": w.restarts,
                "connections_routed": w.routed,
                "uptime_s": round(time.monotonic() - w.started_at, 3)
                if w.started_at else None,
            }
        out = {"workers": table, "worker_count": self.worker_count}
        sid = request.get("sid")
        if isinstance(sid, str) and sid:
            out["home"] = self.ring.route(sid, self._alive_ids())
        return out

    def _own_metrics(self) -> str:
        """The supervisor's ``pythia_worker_*`` gauges, as exposition."""
        reg = self._registry
        for wid, w in self._workers.items():
            labels = {"worker": str(wid)}
            reg.gauge(
                "pythia_worker_up", labels,
                help="1 while the worker process is alive",
            ).set(1.0 if w.alive else 0.0)
            reg.gauge(
                "pythia_worker_pid", labels,
                help="PID of the worker process",
            ).set(float(w.proc.pid) if w.proc is not None else 0.0)
            restarts = reg.counter(
                "pythia_worker_restarts_total", labels,
                help="Times the supervisor restarted this worker",
            )
            restarts._set_total(w.restarts)
            routed = reg.counter(
                "pythia_worker_connections_routed_total", labels,
                help="Client connections handed to this worker",
            )
            routed._set_total(w.routed)
        return render_prometheus(reg)

    def _merged_metrics(self, request: dict) -> dict:
        """One Prometheus page: every worker's registry + supervisor gauges.

        Same ``{"text": ...}`` shape as the daemon's ``metrics`` op, so
        ``pythia-trace metrics`` works against either tier.  The
        supervisor's own page goes through the merge (``own=``) rather
        than being concatenated, so a family living on both sides —
        every process has ``pythia_process_*`` — keeps exactly one
        ``# HELP`` / ``# TYPE`` announcement.
        """
        answers = self._fan_out({"op": "metrics"})
        pages = {
            wid: resp["text"]
            for wid, resp in answers.items()
            if isinstance(resp.get("text"), str)
        }
        return {"text": merge_expositions(pages, own=self._own_metrics())}

    def _merged_sessions(self, request: dict) -> dict:
        """The union session table; every row tagged with its worker."""
        answers = self._fan_out({"op": "sessions"})
        rows: list[dict] = []
        tracked = evicted = 0
        capacity = 0
        for wid, resp in answers.items():
            for row in resp.get("sessions", []):
                row = dict(row)
                row["worker"] = wid
                rows.append(row)
            tracked += int(resp.get("tracked", 0) or 0)
            evicted += int(resp.get("evicted", 0) or 0)
            capacity += int(resp.get("capacity", 0) or 0)
        rows.sort(key=lambda r: r.get("last_seen", 0), reverse=True)
        return {"sessions": rows, "tracked": tracked, "evicted": evicted,
                "capacity": capacity, "workers": sorted(answers)}

    def _merged_stats(self, request: dict) -> dict:
        """Cross-worker stats: summed counters + per-worker detail."""
        answers = self._fan_out({"op": "stats"})
        counters: dict[str, int] = {}
        store: dict[str, int] = {}
        artifacts: set[str] = set()
        sessions_active = 0
        per_worker: dict[str, dict] = {}
        for wid, resp in answers.items():
            for key, val in (resp.get("counters") or {}).items():
                counters[key] = counters.get(key, 0) + int(val)
            snap = resp.get("store") or {}
            for key, val in snap.items():
                if key == "artifacts":
                    artifacts.update(val or [])
                elif isinstance(val, (int, float)):
                    store[key] = store.get(key, 0) + int(val)
            sessions_active += int(resp.get("sessions_active", 0) or 0)
            per_worker[str(wid)] = {
                "counters": resp.get("counters"),
                "sessions_active": resp.get("sessions_active"),
                "store": snap,
                "latency": resp.get("latency"),
            }
        if artifacts:
            store["artifacts"] = sorted(artifacts)
        return {
            "role": "supervisor",
            "counters": counters,
            "sessions_active": sessions_active,
            "store": store,
            "workers": per_worker,
            "worker_restarts": {
                str(wid): w.restarts for wid, w in sorted(self._workers.items())
            },
        }

    def _merged_profile(self, request: dict) -> dict:
        """Fan a profile window out to every worker; merge the stacks.

        Each worker's stacks come back rooted under ``worker N`` so one
        flamegraph shows the whole tier with per-worker attribution.
        Workers collect concurrently (:meth:`_fan_out` asks every
        worker before it reads a reply) — the wall time is one window,
        not N.
        """
        fmt, seconds, hz = profile_args(request)
        answers = self._fan_out(
            {"op": "profile_dump", "seconds": seconds, "hz": hz,
             "format": "collapsed"},
            timeout=float(seconds) + 10.0,
        )
        stacks: dict[str, int] = {}
        reports: dict[str, dict] = {}
        for wid, resp in sorted(answers.items()):
            text = resp.get("profile")
            if not isinstance(text, str):
                continue
            for stack, count in obs_profiler.parse_collapsed(text).items():
                key = f"worker {wid};{stack}"
                stacks[key] = stacks.get(key, 0) + count
            if isinstance(resp.get("report"), dict):
                reports[str(wid)] = resp["report"]
        title = f"pythia oracle tier ({len(answers)} workers)"
        out: dict = {
            "format": fmt,
            "report": {
                "samples": sum(stacks.values()),
                "workers": reports,
            },
        }
        if fmt == "svg":
            out["profile"] = obs_profiler.render_flamegraph(stacks, title=title)
        else:
            out["profile"] = obs_profiler.render_collapsed(stacks)
        return out

    def _merged_history(self, request: dict) -> dict:
        """Per-worker history views + tier-wide rates (summed per key)."""
        window, keys = history_args(request)
        answers = self._fan_out({"op": "history", "window": window, "keys": keys})
        workers: dict[str, dict] = {}
        rates: dict[str, float] = {}
        interval = None
        for wid, resp in sorted(answers.items()):
            view = resp.get("history")
            if not isinstance(view, dict):
                continue
            workers[str(wid)] = view
            if interval is None:
                interval = view.get("interval")
            for key, rate in (view.get("rates") or {}).items():
                if rate is not None:
                    rates[key] = rates.get(key, 0.0) + rate
        return {"history": {
            "role": "supervisor",
            "interval": interval,
            "rates": rates,
            "workers": workers,
        }}

    # ------------------------------------------------------------------
    # HTTP observability provider (the obs.httpd duck interface)
    # ------------------------------------------------------------------

    def readiness(self) -> tuple[bool, str]:
        """``/ready``: 503 while draining, stopped, or fully worker-less."""
        if self._draining.is_set():
            return False, "draining"
        if not self._running.is_set():
            return False, "stopped"
        alive = len(self._alive_ids())
        if alive == 0:
            return False, "no live workers"
        return True, f"ready ({alive}/{self.worker_count} workers)"

    #: the admin ops the supervisor answers itself, by fanning out to
    #: its workers and merging (or from its own state)
    _ADMIN = {
        "ping": _op_ping,
        "workers": _op_workers,
        "metrics": _merged_metrics,
        "sessions": _merged_sessions,
        "stats": _merged_stats,
        "profile_dump": _merged_profile,
        "history": _merged_history,
    }


#: ops the supervisor answers itself (when the first frame carries no
#: session context); everything else is routed to a worker
SUPERVISOR_OPS = frozenset(OracleSupervisor._ADMIN)
