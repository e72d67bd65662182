"""Fault injection: unexpected events (§III-E) and transport chaos.

The paper evaluates PYTHIA's resilience by modifying the runtime to
"randomly submit unexpected events with a given error rate".  The
injected events never occurred in the reference execution, so the
tracker loses its position and must re-synchronise on the next genuine
event — exactly the §II-B2 tolerance path.
:class:`ErrorInjector` reproduces that.

:class:`FaultyTransport` extends the idea to the oracle *service*: it
is a frame-aware proxy wedged between a
:class:`~repro.server.client.PythiaClient` and an
:class:`~repro.server.daemon.OracleServer` that injects the transport
faults production trace infrastructure treats as routine — dropped
connections, delayed replies, mid-frame cuts.  Every fault is scripted
by frame count, not by time or randomness, so the chaos test suite it
drives is deterministic.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time

__all__ = ["ErrorInjector", "FaultyTransport"]


class ErrorInjector:
    """Bernoulli injector of never-before-seen events."""

    __slots__ = ("rate", "rng", "injected", "_counter")

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"error rate must be within [0, 1], got {rate}")
        self.rate = rate
        self.rng = random.Random(f"{seed}:error-injector")
        self.injected = 0
        self._counter = 0

    def maybe_inject(self, submit) -> bool:
        """With probability ``rate``, call ``submit(name, payload)`` with a
        fresh bogus event.  Returns True if an event was injected."""
        if self.rate <= 0.0 or self.rng.random() >= self.rate:
            return False
        self._counter += 1
        self.injected += 1
        submit("pythia_unexpected_event", self._counter)
        return True


def _read_raw_frame(sock: socket.socket) -> bytes | None:
    """One frame as raw bytes (header included), either framing.

    Receives only up to the end :func:`repro.server.protocol.parse_frame`
    reports, so the next frame stays in the socket.  ``None`` on EOF at
    a frame boundary; EOF mid-frame raises ``ConnectionResetError`` and
    a malformed frame :class:`~repro.server.protocol.ProtocolError` —
    either way the bridge is over.
    """
    # imported here, not at the top: the interposers import
    # repro.runtime, and this module would pull the whole server
    # package onto their import path
    from repro.server.protocol import parse_frame

    buf = bytearray()
    end = 1
    while True:
        chunk = sock.recv(end - len(buf))
        if not chunk:
            if not buf:
                return None
            raise ConnectionResetError("peer closed mid-frame")
        buf += chunk
        end, frame = parse_frame(buf)
        if frame is not None:
            return bytes(buf)


class _Bridge:
    """One proxied client connection: a pair of pump threads."""

    def __init__(self, proxy: "FaultyTransport", client: socket.socket) -> None:
        self.proxy = proxy
        self.client = client
        self.upstream = proxy._connect_upstream()
        self.alive = True
        self._threads = [
            threading.Thread(
                target=self._pump, args=(client, proxy._on_request), daemon=True
            ),
            threading.Thread(
                target=self._pump, args=(self.upstream, proxy._on_reply), daemon=True
            ),
        ]

    def start(self) -> None:
        for t in self._threads:
            t.start()

    def kill(self) -> None:
        """Abruptly drop both sides (what a crashed proxy looks like)."""
        self.alive = False
        for sock in (self.client, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        self.proxy._bridges.discard(self)

    def _pump(self, source: socket.socket, on_frame) -> None:
        """Forward frames read from ``source`` through ``on_frame`` until
        either side ends the bridge."""
        from repro.server.protocol import ProtocolError

        try:
            while self.alive:
                frame = _read_raw_frame(source)
                if frame is None or not on_frame(self, frame):
                    break
        except (OSError, ProtocolError):
            pass
        finally:
            self.kill()


class FaultyTransport:
    """Deterministic fault-injection proxy for the oracle service.

    Listens on its own Unix socket and bridges every accepted client
    connection to ``upstream`` (a daemon's Unix socket path or
    ``(host, port)``).  Frames are forwarded intact until a scripted
    fault fires; all scripts count frames across the proxy's lifetime
    (1-based), so a test's fault schedule is reproducible run to run.

    Scripted faults
    ---------------
    - :meth:`cut_after_requests` — drop the connection (both sides,
      abruptly) right after forwarding the Nth request frame: the
      client's reply never comes;
    - :meth:`cut_mid_reply` — forward only the first half of the Nth
      reply frame, then drop the connection: the client is left with a
      half-read frame (the desync the reconnect layer must survive);
    - :meth:`delay_reply` — hold the Nth reply for a given time before
      delivering it (an overloaded daemon; with a delay beyond the
      client timeout, the stale-frame trap);
    - :attr:`reply_delay` — constant latency added to every reply;
    - :meth:`kill_all` — drop every live bridge now (daemon kill from
      the client's point of view; new connections still bridge, so a
      "restart" needs no proxy restart).
    """

    def __init__(
        self,
        upstream: str | os.PathLike | tuple[str, int],
        listen_path: str | os.PathLike,
    ) -> None:
        self.upstream = upstream
        self.listen_path = os.fspath(listen_path)
        self.reply_delay = 0.0
        self.requests_forwarded = 0
        self.replies_forwarded = 0
        self.cuts = 0
        self._cut_after_requests: set[int] = set()
        self._cut_mid_reply: set[int] = set()
        self._delay_reply: dict[int, float] = {}
        self._lock = threading.Lock()
        self._bridges: set[_Bridge] = set()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._running = threading.Event()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "FaultyTransport":
        try:
            os.unlink(self.listen_path)
        except FileNotFoundError:
            pass
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.listen_path)
        listener.listen(16)
        self._listener = listener
        self._running.set()
        self._accept_thread = threading.Thread(target=self._accept, daemon=True)
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._running.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        self.kill_all()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None
        try:
            os.unlink(self.listen_path)
        except FileNotFoundError:
            pass

    def __enter__(self) -> "FaultyTransport":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _connect_upstream(self) -> socket.socket:
        if isinstance(self.upstream, tuple):
            return socket.create_connection(self.upstream, timeout=30)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(os.fspath(self.upstream))
        return sock

    def _accept(self) -> None:
        assert self._listener is not None
        while self._running.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break
            try:
                bridge = _Bridge(self, conn)
            except OSError:
                conn.close()  # upstream down: refuse by hanging up
                continue
            self._bridges.add(bridge)
            bridge.start()

    # -- fault scripting -------------------------------------------------

    def cut_after_requests(self, n: int) -> None:
        """Drop the connection right after forwarding request #``n``."""
        with self._lock:
            self._cut_after_requests.add(n)

    def cut_mid_reply(self, n: int) -> None:
        """Forward half of reply #``n``'s bytes, then drop the connection."""
        with self._lock:
            self._cut_mid_reply.add(n)

    def delay_reply(self, n: int, seconds: float) -> None:
        """Deliver reply #``n`` only after ``seconds`` have passed."""
        with self._lock:
            self._delay_reply[n] = seconds

    def kill_all(self) -> None:
        """Abruptly drop every live bridge (a daemon crash, seen from
        the client); later connections bridge normally again."""
        for bridge in list(self._bridges):
            bridge.kill()

    # -- pump callbacks --------------------------------------------------

    def _on_request(self, bridge: _Bridge, frame: bytes) -> bool:
        with self._lock:
            self.requests_forwarded += 1
            seq = self.requests_forwarded
            cut = seq in self._cut_after_requests
        bridge.upstream.sendall(frame)
        if cut:
            with self._lock:
                self.cuts += 1
            # give the daemon a moment to process the request (the
            # fault models "applied but unacknowledged")
            time.sleep(0.01)
            bridge.kill()
            return False
        return True

    def _on_reply(self, bridge: _Bridge, frame: bytes) -> bool:
        with self._lock:
            self.replies_forwarded += 1
            seq = self.replies_forwarded
            cut = seq in self._cut_mid_reply
            hold = self._delay_reply.pop(seq, 0.0)
        if self.reply_delay:
            time.sleep(self.reply_delay)
        if hold:
            time.sleep(hold)
        if cut:
            with self._lock:
                self.cuts += 1
            bridge.client.sendall(frame[: max(5, len(frame) // 2)])
            bridge.kill()
            return False
        bridge.client.sendall(frame)
        return True
