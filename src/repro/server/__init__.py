"""Oracle service: a multi-client PYTHIA-PREDICT daemon.

The paper links the oracle into each runtime process, so every execution
re-loads and re-indexes the grammar and concurrent applications cannot
share anything.  This subsystem splits record from serve:

- :mod:`repro.server.store` — :class:`TraceStore`, an LRU-bounded,
  concurrency-safe cache of trace bundles, each mapped from the trace's
  compiled ``.pygx`` artifact (:mod:`repro.core.mmap_grammar`; one
  compile per trace file per host, shared by every session and
  process);
- :mod:`repro.server.daemon` — :class:`OracleServer`, a daemon serving
  every connection from one event loop (:mod:`repro.server.eventloop`)
  over a Unix socket (TCP optional), both framings through one
  dispatch, one tracker per session, per-connection error isolation;
- :mod:`repro.server.client` — :class:`PythiaClient`, a drop-in
  predict-mode replacement for the :class:`~repro.core.oracle.Pythia`
  facade, and :func:`admin_request`, the one way every surface (CLI,
  client, tests, examples) sends a daemon or supervisor an admin
  request;
- :mod:`repro.server.protocol` — the framing and value encodings.

- :mod:`repro.server.supervisor` — :class:`OracleSupervisor`, the
  multi-process serving tier: N worker processes
  (:mod:`repro.server.worker`, each a full ``OracleServer``) behind one
  listening socket, sessions pinned to workers by consistent hash (fd
  passing over ``SCM_RIGHTS``), crashed workers restarted, per-worker
  telemetry fanned in over each worker's control connection — served
  by the worker's own dispatch — and merged into one exposition;
  workers map the same compiled artifacts, so a host pays one parse
  and one page-cache copy per trace regardless of worker count.

Start a daemon with ``pythia-trace serve --socket /tmp/pythia.sock`` (or
:class:`OracleServer` in-process) and point any number of applications
at it with ``PythiaClient(trace_path, socket="/tmp/pythia.sock")``.
Add ``--workers N`` to scale across cores.

The stack is fault tolerant end to end: the client reconnects with
capped exponential backoff (:class:`RetryPolicy`), replays a ring of
recent events to resynchronise its daemon session, and degrades to an
in-process oracle (or honest ``lost`` predictions) when the daemon stays
unreachable; the daemon drains gracefully on SIGTERM
(:func:`~repro.server.daemon.serve_forever`, shared by both tiers),
answering late requests with the retryable ``shutting_down`` code.

The names below resolve on first use (PEP 562), so ``import
repro.server.client`` loads the client and its protocol only, not the
serving tier.
"""

import importlib

#: each public name -> the module that defines it, imported on first use
_EXPORTS = {
    "DEFAULT_MAX_FRAME": "repro.server.protocol",
    "RETRYABLE_CODES": "repro.server.protocol",
    "ConnectionClosed": "repro.server.protocol",
    "FrameTooLarge": "repro.server.protocol",
    "HashRing": "repro.server.supervisor",
    "OracleServer": "repro.server.daemon",
    "OracleServiceError": "repro.server.client",
    "OracleSupervisor": "repro.server.supervisor",
    "ProtocolError": "repro.server.protocol",
    "PythiaClient": "repro.server.client",
    "RequestError": "repro.server.daemon",
    "RetryPolicy": "repro.server.client",
    "TraceBundle": "repro.server.store",
    "TraceStore": "repro.server.store",
    "admin_request": "repro.server.client",
    "read_frame": "repro.server.protocol",
    "write_frame": "repro.server.protocol",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
