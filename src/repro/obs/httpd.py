"""HTTP observability endpoint: the daemon's surface for standard infra.

Everything the oracle service knows about itself — metrics, sessions,
stats, profiles, history — reachable by plain HTTP GET, so Prometheus,
curl and a browser work without speaking the length-prefixed frame
protocol:

========================  =============================================
``/metrics``              Prometheus text exposition (same page as the
                          ``metrics`` op)
``/healthz``              liveness: 200 while the process serves
``/ready``                readiness: 200, or **503 while draining** so
                          load balancers stop routing before shutdown
``/sessions.json``        the ``sessions`` op as JSON
``/stats.json``           the ``stats`` op as JSON
``/profile?seconds=N``    collapsed stacks (``&format=svg`` for a
                          self-contained flamegraph) from the sampling
                          profiler
``/history.json``         metrics history ring: series + rates
                          (``?window=60&keys=a,b``)
``/``                     human index of the routes above
========================  =============================================

Zero dependencies: stdlib ``http.server`` with ``ThreadingHTTPServer``
(one thread per request, daemon threads) and a per-connection socket
timeout so slowloris clients are dropped instead of wedging the
acceptor.  The server is decoupled from the daemon through a two-method
*provider* interface implemented by both :class:`~repro.server.daemon.
OracleServer` and :class:`~repro.server.supervisor.OracleSupervisor`
(which fans out to its workers and merges with ``worker`` labels) —
``repro.obs`` never imports ``repro.server``:

- ``admin(request) -> reply`` answers one admin op (``metrics``,
  ``sessions``, ``stats``, ``profile_dump``, ``history``) exactly as
  the op answers a frame, ``ok`` included; the endpoint only turns the
  query string into the request (``seconds`` clamped to 60) and the
  reply into a body;
- ``readiness() -> (ready, reason)`` backs ``/ready``.

A refused op answers with its ``{"code", "error"}`` as JSON, status 400
for ``bad_request``, 500 for ``internal`` and 503 for any other code
(``profiler_off``, ``history_off``, ...): the op was valid, the
service cannot answer it.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = ["ObservabilityHTTPServer", "PROMETHEUS_CONTENT_TYPE"]

_log = get_logger("httpd")

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: hard ceiling on one profiling window, so a typo'd ``seconds=`` can't
#: pin a request thread (and an in-flight slot) for an hour
MAX_PROFILE_SECONDS = 60.0

#: HTTP status of a refused admin op by its code; any other code is 503
_REFUSAL_STATUS = {"bad_request": 400, "internal": 500}

_INDEX = """\
pythia observability endpoint

  /metrics          Prometheus text exposition
  /healthz          liveness (200 while serving)
  /ready            readiness (503 while draining)
  /sessions.json    per-session telemetry
  /stats.json       daemon stats
  /profile          ?seconds=N&format=collapsed|svg&hz=H
  /history.json     ?window=SECONDS&keys=k1,k2
"""


class ObservabilityHTTPServer:
    """Serve the observability surface of a ``provider`` over HTTP.

    ``port=0`` binds an ephemeral port; read it back from
    :attr:`address` after :meth:`start`.  Requests are counted in
    ``pythia_http_requests_total{path,code}`` on ``registry`` (default:
    the process registry), which is why ``/metrics`` and the daemon's
    ``metrics`` op differ by exactly that family.
    """

    def __init__(
        self,
        provider,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        registry: MetricsRegistry | None = None,
        request_timeout: float = 10.0,
    ) -> None:
        self.provider = provider
        self.registry = registry if registry is not None else get_registry()
        self.request_timeout = request_timeout
        outer = self

        class Handler(_ObsRequestHandler):
            server_ref = outer
            timeout = request_timeout

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ObservabilityHTTPServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="pythia-httpd",
            daemon=True,
        )
        self._thread.start()
        _log.info("httpd_started", url=self.url)
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join(timeout=5)
        self._thread = None
        self._httpd.server_close()
        _log.info("httpd_stopped", url=self.url)

    def __enter__(self) -> "ObservabilityHTTPServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class _ObsRequestHandler(BaseHTTPRequestHandler):
    """Routes GETs to the provider; every reply carries Content-Length."""

    server_ref: ObservabilityHTTPServer  # set by the enclosing server
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _log.debug("http_request", detail=format % args)

    def _count(self, route: str, code: int) -> None:
        self.server_ref.registry.counter(
            "pythia_http_requests_total",
            {"path": route, "code": str(code)},
            help="Observability endpoint requests served",
        ).inc()

    def _reply(self, code: int, body: str, content_type: str, route: str) -> None:
        payload = body.encode("utf-8")
        try:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (OSError, ValueError):
            return  # client went away mid-write; nothing to salvage
        self._count(route, code)

    def _reply_json(self, obj, route: str, code: int = 200) -> None:
        self._reply(code, json.dumps(obj, sort_keys=True) + "\n",
                    "application/json; charset=utf-8", route)

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlsplit(self.path)
        query = parse_qs(url.query)
        route = url.path.rstrip("/") or "/"
        try:
            handler = self._ROUTES.get(route)
            if handler is None:
                self._reply(404, f"no route {route!r}\n{_INDEX}",
                            "text/plain; charset=utf-8", "other")
                return
            handler(self, query)
        except Exception as exc:  # a provider bug must not kill the server
            _log.warning("http_handler_error", route=route, error=str(exc))
            self._reply(500, f"internal error: {exc}\n",
                        "text/plain; charset=utf-8", route)

    def _get_index(self, query) -> None:
        self._reply(200, _INDEX, "text/plain; charset=utf-8", "/")

    def _admin(self, request: dict, route: str) -> dict | None:
        """The provider's reply to ``request``, or None once its refusal
        has been answered."""
        reply = self.server_ref.provider.admin(request)
        if reply.get("ok"):
            return reply
        code = reply.get("code")
        status = _REFUSAL_STATUS.get(code, 503)
        self._reply_json({"code": code, "error": reply.get("error")}, route, status)
        return None

    def _view(self, request: dict, route: str, key: str | None = None) -> None:
        """Answer ``route`` with the JSON reply to ``request`` (or its
        ``key`` field)."""
        reply = self._admin(request, route)
        if reply is not None:
            del reply["ok"]
            self._reply_json(reply if key is None else reply[key], route)

    def _get_metrics(self, query) -> None:
        reply = self._admin({"op": "metrics"}, "/metrics")
        if reply is not None:
            self._reply(200, reply["text"], PROMETHEUS_CONTENT_TYPE, "/metrics")

    def _get_healthz(self, query) -> None:
        self._reply(200, "ok\n", "text/plain; charset=utf-8", "/healthz")

    def _get_ready(self, query) -> None:
        ready, reason = self.server_ref.provider.readiness()
        self._reply(200 if ready else 503, reason + "\n",
                    "text/plain; charset=utf-8", "/ready")

    def _get_sessions(self, query) -> None:
        self._view({"op": "sessions"}, "/sessions.json")

    def _get_stats(self, query) -> None:
        self._view({"op": "stats"}, "/stats.json")

    def _get_profile(self, query) -> None:
        seconds = _float_param(query, "seconds", 0.0)
        fmt = (query.get("format") or ["collapsed"])[0]
        reply = self._admin({
            "op": "profile_dump",
            "seconds": max(0.0, min(MAX_PROFILE_SECONDS, seconds)),
            "format": fmt,
            "hz": _float_param(query, "hz", 0.0),
        }, "/profile")
        if reply is not None:
            content_type = (
                "image/svg+xml" if fmt == "svg" else "text/plain; charset=utf-8"
            )
            self._reply(200, reply["profile"], content_type, "/profile")

    def _get_history(self, query) -> None:
        window = _float_param(query, "window", 0.0) or None
        keys_raw = (query.get("keys") or [""])[0]
        keys = [k for k in keys_raw.split(",") if k] or None
        self._view({"op": "history", "window": window, "keys": keys},
                   "/history.json", "history")

    _ROUTES = {
        "/": _get_index,
        "/metrics": _get_metrics,
        "/healthz": _get_healthz,
        "/ready": _get_ready,
        "/sessions.json": _get_sessions,
        "/stats.json": _get_stats,
        "/profile": _get_profile,
        "/history.json": _get_history,
    }

    def handle_one_request(self) -> None:
        try:
            super().handle_one_request()
        except socket.timeout:
            # slowloris / stalled client: drop the connection, keep serving
            self.close_connection = True
        except (ConnectionError, OSError):
            self.close_connection = True


def _float_param(query: dict, key: str, default: float) -> float:
    try:
        return float((query.get(key) or [default])[0])
    except (TypeError, ValueError):
        return default
