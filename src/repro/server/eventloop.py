"""``selectors``-based connection serving for the oracle daemon.

Protocol v2's pipelining shapes the load: one client may keep dozens
of requests in flight, and a runtime host can hold hundreds of mostly
idle connections open.  A parked thread per connection costs a stack
and a scheduler slot for nothing; an event loop costs one registered
fd.

:class:`ConnectionLoop` serves every connection of an
:class:`~repro.server.daemon.OracleServer` from a single selector
thread:

- sockets are non-blocking; raw chunks feed a per-connection
  :class:`~repro.server.protocol.FrameParser`, which yields complete
  frames of either framing (JSON or binary) in arrival order;
- every frame goes to :meth:`OracleServer.dispatch
  <repro.server.daemon.OracleServer.dispatch>`, which owns the drain
  gate, the handlers and all accounting, and returns the reply bytes;
- fast ops dispatch inline on the loop thread — the tracker work behind
  ``observe_predict`` is microseconds, far below the cost of a thread
  handoff;
- ops that may block for real time — ``open_session`` (it may compile
  a trace) and ``profile_dump`` (it may sample a window of up to a
  minute) — each run on a thread of their own, so neither holds up the
  loop, a profile window, or another connection's open.  Opens of one
  trace that overlap rely on the trace store's stampede handling (one
  load per path).  While one is in flight the connection's parser is
  paused (its ``busy`` flag), so replies stay in request order — the
  ordering the implicit-rid tracing scheme and pipelined clients both
  rely on; :meth:`ConnectionLoop.stop` waits up to 5 s for those still
  running;
- replies are buffered and flushed as the socket allows; the loop
  registers for writability only while a buffer is non-empty
  (backpressure without threads);
- a framing violation gets one final error frame and then the
  connection is closed: after a bad length announcement the byte
  stream has no resync point, and the parser stays poisoned so the
  loop can never read garbage as frames.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque

from repro.server.protocol import FrameParser, ProtocolError, encode_json_frame

__all__ = ["ConnectionLoop", "SLOW_OPS"]

#: ops whose handlers may block for wall-clock time (trace compile,
#: profiler windows); they run off the loop thread so the loop keeps
#: serving every other connection meanwhile
SLOW_OPS = frozenset({"open_session", "profile_dump"})

_RECV_CHUNK = 1 << 16


class _Conn:
    """Per-connection loop state."""

    __slots__ = (
        "sock", "conn_id", "parser", "out", "ctx",
        "busy", "eof", "closing", "closed", "want_write",
    )

    def __init__(self, sock: socket.socket, conn_id: int) -> None:
        self.sock = sock
        self.conn_id = conn_id
        self.parser = FrameParser()
        self.out = bytearray()
        #: tracing binding ``[sid, last_rid]`` (see ``OracleServer.dispatch``)
        self.ctx: list = [None, 0]
        self.busy = False  # a slow op is in flight on its own thread
        self.eof = False  # peer EOF seen; close once idle and flushed
        self.closing = False  # close as soon as ``out`` drains
        self.closed = False
        self.want_write = False


class ConnectionLoop:
    """One selector thread serving all of a server's connections."""

    def __init__(self, server) -> None:
        self._server = server
        self._sel = selectors.DefaultSelector()
        self._conns: dict[int, _Conn] = {}
        self._pending_add: deque[tuple[socket.socket, int]] = deque()
        self._completions: deque[tuple[_Conn, bytes, bool]] = deque()
        #: threads running a slow op (each removes itself when done)
        self._slow: set[threading.Thread] = set()
        self._running = False
        self._thread: threading.Thread | None = None
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ConnectionLoop":
        if self._running:
            return self
        self._running = True
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._sel.register(self._wake_r, selectors.EVENT_READ, None)
        self._thread = threading.Thread(
            target=self._run, name="pythia-loop", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=5)
        deadline = time.monotonic() + 5
        for thread in list(self._slow):
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        # the loop thread is gone; reap anything it still held
        for conn in list(self._conns.values()):
            self._close(conn)
        while self._pending_add:
            sock, _conn_id = self._pending_add.popleft()
            sock.close()
        try:
            self._sel.close()
        except OSError:
            pass
        for sock in (self._wake_r, self._wake_w):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self._thread = None

    def add(self, conn: socket.socket, conn_id: int) -> None:
        """Hand a freshly accepted (or adopted) connection to the loop."""
        conn.setblocking(False)
        self._pending_add.append((conn, conn_id))
        self._wake()

    # -- loop body ------------------------------------------------------

    def _wake(self) -> None:
        w = self._wake_w
        if w is None:
            return
        try:
            w.send(b"\0")
        except OSError:
            pass

    def _run(self) -> None:
        while self._running:
            try:
                events = self._sel.select(timeout=0.5)
            except OSError:
                break
            self._admit_pending()
            self._drain_completions()
            for key, mask in events:
                conn = key.data
                if conn is None:
                    self._drain_wakeup()
                    continue
                if conn.closed:
                    continue
                if mask & selectors.EVENT_READ:
                    self._on_readable(conn)
                if mask & selectors.EVENT_WRITE and not conn.closed:
                    self._flush(conn)

    def _drain_wakeup(self) -> None:
        assert self._wake_r is not None
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            pass

    def _admit_pending(self) -> None:
        while self._pending_add:
            sock, conn_id = self._pending_add.popleft()
            if not self._running:
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            conn = _Conn(sock, conn_id)
            self._conns[conn_id] = conn
            self._sel.register(sock, selectors.EVENT_READ, conn)

    def _drain_completions(self) -> None:
        while self._completions:
            conn, reply, ok = self._completions.popleft()
            conn.busy = False
            if conn.closed:
                # the connection died while its slow op ran; a session
                # the op just opened would otherwise leak with a dead
                # owner, so sweep again
                self._server._close_owned_sessions(conn.conn_id)
            elif not ok:
                self._drop(conn)
            else:
                conn.out += reply
                self._pump(conn)

    # -- per-connection events ------------------------------------------

    def _on_readable(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        if not data:
            conn.eof = True
            self._pump(conn)
            return
        conn.parser.feed(data)
        self._pump(conn)

    def _pump(self, conn: _Conn) -> None:
        """Dispatch every complete frame buffered for ``conn``."""
        while not (conn.closed or conn.closing or conn.busy):
            try:
                frame = conn.parser.next_frame()
            except ProtocolError as exc:
                # bad framing: one final error frame, then close (no resync)
                self._drop(conn, encode_json_frame(
                    {"ok": False, "code": "protocol", "error": str(exc)}
                ))
                return
            if frame is None:
                break
            self._handle_frame(conn, frame)
        if conn.closed:
            return
        if conn.out:
            self._flush(conn)
        if conn.eof and not (conn.busy or conn.closed or conn.closing):
            if conn.out:
                conn.closing = True
            else:
                self._close(conn)

    def _drop(self, conn: _Conn, final: bytes = b"") -> None:
        """Close ``conn`` after flushing ``final``: it broke the protocol,
        or its reply could not be built."""
        server = self._server
        with server._lock:
            server.counters["connections_dropped"] += 1
        conn.out += final
        conn.closing = True
        self._flush(conn)

    def _handle_frame(self, conn: _Conn, frame: tuple) -> None:
        recv_ts = time.perf_counter()
        op = frame[1].get("op") if frame[0] == "json" else None
        if isinstance(op, str) and op in SLOW_OPS:
            conn.busy = True
            thread = threading.Thread(
                target=self._run_slow, args=(conn, frame, recv_ts),
                name=f"pythia-loop-{op}", daemon=True,
            )
            self._slow.add(thread)
            thread.start()
            return
        try:
            conn.out += self._server.dispatch(frame, conn.conn_id, recv_ts, conn.ctx)
        except Exception:
            # last-ditch isolation (e.g. a reply that outgrew
            # the frame limit): drop only this connection
            self._drop(conn)

    # -- slow ops: one thread each ---------------------------------------

    def _run_slow(self, conn: _Conn, frame: tuple, recv_ts: float) -> None:
        """Dispatch one slow op and hand its reply to the loop thread."""
        try:
            reply = self._server.dispatch(frame, conn.conn_id, recv_ts, conn.ctx)
            ok = True
        except Exception:
            reply, ok = b"", False
        self._completions.append((conn, reply, ok))
        self._wake()
        self._slow.discard(threading.current_thread())

    # -- writes / teardown ----------------------------------------------

    def _flush(self, conn: _Conn) -> None:
        if conn.closed:
            return
        sock = conn.sock
        while conn.out:
            try:
                n = sock.send(conn.out)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._close(conn)
                return
            if n <= 0:
                break
            del conn.out[:n]
        if conn.out:
            if not conn.want_write:
                conn.want_write = True
                self._sel.modify(
                    sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn
                )
        else:
            if conn.want_write:
                conn.want_write = False
                self._sel.modify(sock, selectors.EVENT_READ, conn)
            if conn.closing:
                self._close(conn)

    def _close(self, conn: _Conn) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self._conns.pop(conn.conn_id, None)
        self._server._close_owned_sessions(conn.conn_id)
