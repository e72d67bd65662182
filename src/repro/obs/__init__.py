"""repro.obs — the observability layer (metrics, logs, spans, accuracy).

This package re-exports nothing: import each name from the module that
defines it (``from repro.obs.spans import span``), so a process loads
only the pieces it uses.  The oracle's record and predict path needs
metrics, log, spans, accuracy, drift, flight, journal and profiler; the
daemon adds sessions, history, process and httpd; the CLI adds analysis
and top.

- :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges
  and fixed-bucket histograms, with Prometheus text exposition and a
  no-op null registry (``PYTHIA_METRICS=0``);
- :mod:`repro.obs.log` — structured key=value / JSON logging with
  per-subsystem loggers (``PYTHIA_LOG=debug``, ``PYTHIA_LOG=json:info``,
  or the CLI's ``--log-level``);
- :mod:`repro.obs.spans` — a ``with span("stage")`` API recording wall
  time per stage, exportable as Chrome trace JSON (``PYTHIA_SPANS=1``,
  ``pythia-trace spans``);
- :mod:`repro.obs.accuracy` — online scoring of every prediction the
  oracle makes against what the execution then actually does;
- :mod:`repro.obs.drift` — an online OK → DRIFTING → DIVERGED monitor
  comparing the tracker's drift signals against a reference baseline;
- :mod:`repro.obs.flight` — a bounded per-session flight recorder
  journaling recent events/predictions/outcomes (``PYTHIA_FLIGHT_DIR``);
- :mod:`repro.obs.journal` — the journal formats (JSON Lines, Chrome
  trace), the staged atomic write every dump goes through, and the
  format-sniffing read-back;
- :mod:`repro.obs.profiler` — a continuous sampling profiler over
  ``sys._current_frames()`` (``PYTHIA_PROFILE_HZ``), exporting
  collapsed stacks and self-contained flamegraph SVGs with per-op
  attribution (``pythia-trace profile``);
- :mod:`repro.obs.sessions` — the daemon's bounded per-client-session
  telemetry table (LRU, evictions prune the labeled metric series);
- :mod:`repro.obs.history` — a bounded ring of periodic registry
  snapshots with delta/rate/percentile queries and JSONL persistence
  (``PYTHIA_HISTORY*``), powering the ``history`` op;
- :mod:`repro.obs.process` — ``pythia_process_*`` CPU/RSS/fd/thread
  gauges from ``/proc`` with graceful off-Linux fallback;
- :mod:`repro.obs.httpd` — the zero-dependency HTTP observability
  endpoint (``/metrics``, ``/healthz``, ``/ready``, ``/profile``,
  ``/history.json``) behind ``pythia-trace serve --http``;
- :mod:`repro.obs.analysis` — offline trace analysis: span dumps and
  flight journals merged into a columnar :class:`TraceTable` with
  filter/groupby/percentile and wire/queue/handler decomposition
  (``pythia-trace analyze``);
- :mod:`repro.obs.top` — the live ANSI ops console behind
  ``pythia-trace top``.

The metric name catalogue lives in the README's "Observability" section.
"""
